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
    rss = bench_pairs.JUDGED_METRICS["peak_rss_mb"]
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
        ["--workload", "rbp_wide", "--metric", "sim_max_commit_gap_ms"],  # not end-to-end
    ):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(["--parent", "HEAD", *bad])


def test_bench_pairs_judges_a_simulated_time_claim():
    """With a simulated ``--metric`` only the claimed workload's simulation
    may differ between the sides; correctness and the failed share are
    checked on it all the same, and every other workload must match."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    args = bench_pairs.parse_args(
        "--parent HEAD --workload all --claim cbp_steady --metric sim_commit_p50_ms".split()
    )
    p50 = args.metric
    assert p50["name"] == "sim_commit_p50_ms" and p50["better"] == "lower"
    assert set(bench_pairs.SIM_CLAIMS) <= set(bench_pairs.JUDGED_METRICS)
    rate = bench_pairs.JUDGED_METRICS["sim_commits_per_s"]
    assert bench_pairs.verdict([163.0 + i / 10 for i in range(10)], [319.0] * 10, rate)[0] == 0

    def report(p50_ms, wall_s=4.0, correct=True, failed=0):
        return {
            "correct": correct, "attempted": 100, "failed": failed,
            "metrics": {
                "wall_s": {"value": wall_s, "unit": "s"},
                "sim_commit_p50_ms": {"value": p50_ms, "unit": "ms"},
            },
        }

    parent, change = report(49.98), report(24.98, wall_s=3.9)
    assert bench_pairs.problems(7, parent, change, sim_may_differ=True) == []
    assert bench_pairs.problems(7, parent, change, sim_may_differ=False) == [
        "seed 7: sim_commit_p50_ms 49.98 -> 24.98"
    ]
    assert bench_pairs.problems(7, parent, report(49.98, wall_s=3.0), False) == []
    assert bench_pairs.problems(7, parent, report(24.98, correct=False), True) == [
        "seed 7: change run is incorrect"
    ]
    assert bench_pairs.problems(7, parent, report(24.98, failed=1), True) == [
        "seed 7: a larger share of operations fails on the change"
    ]


def test_retained_marks_the_sites_that_grow_with_the_run():
    """A site at least ``GROWS`` times larger at full length than at half
    reads GROWS; one that stays put does not, and ``top`` cuts the list."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("retained", ROOT / "scripts" / "retained.py")
    retained = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(retained)
    mib = 1024 * 1024
    store = (2 * mib, 5)
    half = {
        "commits": 50,
        "total": 3 * mib,
        "sites": {"wal.py:1": (mib, 10), "store.py:2": store},
        "pending": {"Site._watchdog": 40, "Process.every.<locals>.tick": 2},
    }
    full = {
        "commits": 100,
        "total": 4 * mib,
        "sites": {"wal.py:1": (2 * mib, 20), "store.py:2": store},
        "pending": {"Site._watchdog": 80, "Process.every.<locals>.tick": 2, "Link._retry": 1},
    }
    lines = retained.report("w", half, full, top=5)
    assert lines[0] == "w: 50 → 100 commits; live 3.0 → 4.0 MiB traced"
    rows = {line.split()[0]: line for line in lines[2:]}
    assert rows["wal.py:1"].endswith("GROWS") and not rows["store.py:2"].endswith("GROWS")
    # Pending events by callback, most at full length first, at both lengths.
    assert [line.split() for line in lines[-3:]] == [
        ["Site._watchdog", "40", "80"],
        ["Process.every.<locals>.tick", "2", "2"],
        ["Link._retry", "0", "1"],
    ]
    assert len(retained.report("w", half, full, top=1)) == 3 + 1 + 3


def test_retained_fail_grows_names_growing_src_sites_over_the_budget():
    """``--fail-grows``: only a ``src/`` site that both grows and holds more
    than the budget at full length fails the gate."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("retained", ROOT / "scripts" / "retained.py")
    retained = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(retained)
    mib = 1024 * 1024
    half = {"sites": {"src/a.py:1": (mib, 1), "src/b.py:2": (mib, 1), "bench/c.py:3": (0, 1)}}
    full = {
        "sites": {
            "src/a.py:1": (2 * mib, 2),  # grows, over budget
            "src/b.py:2": (mib, 1),  # over budget, flat
            "src/d.py:4": (mib // 8, 1),  # grows (new), under budget
            "bench/c.py:3": (2 * mib, 2),  # grows, not src/
        }
    }
    assert retained.over_budget(half, full, 0.25) == ["src/a.py:1: 2.00 MiB, GROWS"]
    assert retained.over_budget(half, full, 4.0) == []


def _reach():
    import importlib.util

    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_list_names_existing_functions_with_known_reasons():
    """DESIGN.md's list of the functions the drivers do not reach names only
    functions that exist, each with one of the census's reasons (the census
    itself, ``scripts/reach.py --check``, runs in CI: minutes, not seconds)."""
    reach = _reach()
    names = {name for name, _ in reach.functions().values()}
    listed = reach.listed()
    assert listed, "the list in DESIGN.md is empty or its heading moved"
    assert sorted(set(listed) - names) == []
    assert sorted(name for name, reason in listed.items() if reason not in reach.REASONS) == []


def test_reach_check_fails_on_an_unlisted_or_a_reached_function():
    reach = _reach()
    listed_name = next(iter(reach.listed()))
    unreached = {name: 1 for name in reach.listed()}
    assert reach.held_to_list(unreached, by_drivers=set()) == []
    problems = reach.held_to_list({**unreached, "repro.new:fresh": 3}, by_drivers=set())
    assert problems == ["unlisted, not reached by the drivers: repro.new:fresh"]
    del unreached[listed_name]
    problems = reach.held_to_list(unreached, by_drivers={listed_name})
    assert problems == [f"listed, but the drivers reach it: {listed_name}"]
