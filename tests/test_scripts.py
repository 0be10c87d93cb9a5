"""Tests for the repository tooling scripts."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args, timeout=180):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )


def test_api_index_is_current():
    """docs/API.md must match the live docstrings (regen if this fails)."""
    proc = run_script("gen_api_index.py", "--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_run_experiments_rejects_unknown():
    proc = run_script("run_experiments.py", "e99")
    assert proc.returncode == 2
    assert "unknown experiments" in proc.stdout


def test_run_experiments_single_experiment():
    """Run the fastest experiment end to end through the script."""
    proc = run_script("run_experiments.py", "e1", timeout=400)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "E1" in proc.stdout
    assert "PASS" in proc.stdout


def test_bench_pairs_verdict_rule():
    """Nine tenths of the pairs won *and* medians further apart than the
    parent's own quartiles; ties count for neither side."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    parent = [5.0, 5.1, 5.2, 5.0, 5.3, 5.1, 5.0, 5.2, 5.1, 5.0]
    faster = [p - 1.0 for p in parent]
    assert bench_pairs.verdict(parent, faster)[0] == 0
    assert bench_pairs.verdict(faster, parent)[0] == 3
    # Wins every pair, but by less than the parent's quartile distance.
    assert bench_pairs.verdict(parent, [p - 0.01 for p in parent])[0] == 2
    # Two losses (or two ties) in ten pairs: eight wins are not nine.
    assert bench_pairs.verdict(parent, [5.4, 5.4] + faster[2:])[0] == 2
    assert bench_pairs.verdict(parent, parent[:2] + faster[2:])[0] == 2
    status, lines = bench_pairs.verdict(parent, [6.0] + faster[1:])
    assert status == 0 and "won 9, lost 1, of 10 (need 9)" in lines[2]

    # Another host metric: its name and unit in the report, its direction
    # read from BENCHMARK.json ("higher" is better only for a rate).
    rss = bench_pairs.HOST_METRICS["peak_rss_mb"]
    status, lines = bench_pairs.verdict(parent, faster, rss)
    assert status == 0 and lines[0].startswith("parent peak_rss_mb") and " MiB;" in lines[2]
    assert bench_pairs.verdict(faster, parent, rss)[0] == 3
    rate = dict(rss, better="higher")
    assert bench_pairs.verdict(parent, faster, rate)[0] == 3
    assert bench_pairs.verdict(faster, parent, rate)[0] == 0

    # Several workloads: the claimed one must read GAIN, the rest only not
    # SLOWER; INVALID or SLOWER anywhere outranks the claim's own verdict.
    gain = bench_pairs.verdict(parent, faster)[0]
    flat = bench_pairs.verdict(parent, parent)[0]
    slower = bench_pairs.verdict(faster, parent)[0]

    def overall(p2p, rbp, claim="p2p_steady"):
        return bench_pairs.overall({"p2p_steady": p2p, "rbp_wide": rbp}, claim)

    assert overall(gain, flat) == 0
    assert overall(flat, gain) == 2
    assert overall(gain, slower) == 3
    assert overall(gain, bench_pairs.INVALID) == 1
    assert overall(flat, flat, claim=None) == 0
    assert overall(flat, slower, claim=None) == 3

    args = bench_pairs.parse_args(["--parent", "HEAD", "--workload", "rbp_wide"])
    assert (args.workloads, args.claim) == (["rbp_wide"], "rbp_wide")  # its own claim
    args = bench_pairs.parse_args(
        "--parent HEAD --workload p2p_steady --workload all --claim p2p_steady".split()
    )
    assert args.workloads[0] == "p2p_steady" and len(args.workloads) == 6
    assert args.claim == "p2p_steady"
    assert bench_pairs.parse_args(["--parent", "HEAD", "--workload", "all"]).claim is None
    assert args.metric["name"] == "wall_s"
    args = bench_pairs.parse_args("--parent HEAD --workload rbp_wide --metric peak_rss_mb".split())
    assert args.metric == {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}
    for bad in (
        ["--workload", "nope"],
        ["--workload", "rbp_wide", "--claim", "p2p_steady"],
        ["--workload", "rbp_wide", "--metric", "sim_commits_per_s"],  # not host-side
    ):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(["--parent", "HEAD", *bad])
