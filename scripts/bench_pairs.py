#!/usr/bin/env python3
"""Judge a performance claim: alternating parent/change pairs, workload by workload.

Checks out ``--parent`` (a git revision) under ``.bench_out/`` and runs the
repository benchmark's driver form, ``bench/run.py --workload W --seed S
--trace 0``, once on that checkout and once on this working tree per pair:
a fresh seed for every pair, the same seed within it, and the side that goes
first alternating, so drift on the box lands on both sides alike.  Each side
runs its own copy of ``bench/`` (identical by the benchmark's rule), exactly
as the driver does.

Within a pair everything the simulation computes must be equal -- a change
that claims a host-side gain may not move a simulated metric.  The verdict
is on one metric of ``BENCHMARK.json``'s ``end_to_end`` list, ``--metric``
(default ``wall_s``; ``setup_s`` and ``peak_rss_mb`` are the other host
ones), in the direction its ``better`` names.  A simulated-time claim
(``sim_commit_p50_ms``, ``sim_commit_p99_ms``, ``sim_commits_per_s``) is
judged the same way, and then the claimed workload's simulation may differ
between the sides -- its runs must still be correct and fail no larger
share of operations, and its ``wall_s`` and ``peak_rss_mb`` are printed per
pair -- while every other workload must still match exactly.  The verdict is
the rule of the choosing-metrics guide, section 8: a gain only when the change wins at
least nine tenths of the pairs (ties count for neither side) and the
medians differ by more than the distance between the quartiles of the
parent's own runs.

``--workload`` may be repeated, and ``all`` stands for every workload named
in ``BENCHMARK.json``: each gets its own pairs and verdict block, and a
closing table sets them side by side.  ``--claim NAME`` says which of them
must read GAIN (a single workload is its own claim); the others must only
not read SLOWER.

Usage:
    python scripts/bench_pairs.py --parent HEAD~1 --workload rbp_wide
    python scripts/bench_pairs.py --parent 882a987 --workload abp_lossy --pairs 12 --seed-base 100
    python scripts/bench_pairs.py --parent HEAD~1 --workload all --claim p2p_steady
    python scripts/bench_pairs.py --parent HEAD~1 --workload all --claim rbp_wide --metric peak_rss_mb
    python scripts/bench_pairs.py --parent HEAD~1 --workload all --claim cbp_steady --metric sim_commit_p50_ms

Exit status: 0 gain (without a claim: nothing slower), 1 a run was incorrect
or the sides' simulations differ, 2 no gain shown on the claimed workload,
3 the change is slower on some workload by the same rule -- the worst of the
claimed workload's verdict and any SLOWER or INVALID elsewhere.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
GAIN, INVALID, NO_GAIN, SLOWER = 0, 1, 2, 3  # exit statuses
VERDICT_WORDS = {GAIN: "GAIN", INVALID: "INVALID", NO_GAIN: "NO GAIN SHOWN", SLOWER: "SLOWER"}
sys.path.insert(0, str(ROOT / "bench"))

import metrics  # noqa: E402  (the benchmark's own table: which metrics are host-side)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Simulated ``end_to_end`` metrics a claim may be judged on; with one of
#: them, the claimed workload's simulation is allowed to change.
SIM_CLAIMS = ("sim_commit_p50_ms", "sim_commit_p99_ms", "sim_commits_per_s")
#: The ``end_to_end`` metrics a pair can be judged on.
JUDGED_METRICS = {
    entry["name"]: entry
    for entry in BENCHMARK["end_to_end"]
    if metrics.BY_NAME[entry["name"]].kind == "host" or entry["name"] in SIM_CLAIMS
}
WALL_S = JUDGED_METRICS["wall_s"]
#: Host metrics shown per pair beside a simulated-time claim.
SHOWN_BESIDE = ("wall_s", "peak_rss_mb")


def checkout(revision: str) -> pathlib.Path:
    """The tree of ``revision`` under ``.bench_out/`` (reused when present).

    Exported with ``git archive`` rather than ``git worktree add``: the
    benchmark needs the files, not a second working copy registered in
    ``.git``, and an exported tree cannot be committed to by accident.
    """
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    target = OUT_DIR / f"parent-{commit[:12]}"
    if not (target / "bench" / "run.py").is_file():
        target.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(
            ["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=subprocess.PIPE
        )
        subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {commit} failed")
    return target


def run_side(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One driver-form run in ``tree``; the JSON object on its last line."""
    done = subprocess.run(
        [
            sys.executable, str(tree / "bench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{tree}: bench/run.py exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def verdict(
    parent: list[float], change: list[float], metric: dict = WALL_S
) -> tuple[int, list[str]]:
    """Section 8's rule on paired samples of ``metric`` (a ``BENCHMARK.json``
    ``end_to_end`` entry): exit status and report."""
    name, unit = metric["name"], metric["unit"]
    sign = 1 if metric["better"] == "lower" else -1  # > 0: the change is better
    p_q1, p_median, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_median, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    spread = p_q3 - p_q1
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    needed = -(-9 * len(parent) // 10)  # nine tenths, rounded up
    lines = [
        f"parent {name}: median {p_median:.3f}  quartiles {p_q1:.3f} .. {p_q3:.3f}  "
        f"(distance {spread:.3f})",
        f"change {name}: median {c_median:.3f}  quartiles {c_q1:.3f} .. {c_q3:.3f}  "
        f"(distance {c_q3 - c_q1:.3f})",
        f"change/parent medians: {c_median / p_median:.3f}x of {p_median:.3f} {unit}; "
        f"pairs won {won}, lost {lost}, of {len(parent)} (need {needed})",
    ]
    if won >= needed and sign * (p_median - c_median) > spread:
        return GAIN, lines + [
            "verdict: GAIN -- enough pairs won, medians apart by more than the parent's quartiles"
        ]
    if lost >= needed and sign * (c_median - p_median) > spread:
        return SLOWER, lines + ["verdict: SLOWER -- the change loses by the same rule"]
    return NO_GAIN, lines + [
        "verdict: NO GAIN SHOWN -- too few pairs won, or medians within the parent's spread"
    ]


def problems(seed: int, parent: dict, change: dict, sim_may_differ: bool) -> list[str]:
    """What makes one pair invalid: an incorrect run, a larger failed share
    on the change, or -- unless ``sim_may_differ`` -- any simulated metric
    that differs between the sides."""
    found = [
        f"seed {seed}: {side} run is incorrect"
        for side, report in (("parent", parent), ("change", change))
        if not report["correct"]
    ]
    if change["failed"] * parent["attempted"] > parent["failed"] * change["attempted"]:
        found.append(f"seed {seed}: a larger share of operations fails on the change")
    if not sim_may_differ:
        for name, entry in sorted(parent["metrics"].items()):
            if metrics.BY_NAME[name].kind != "host" and change["metrics"][name] != entry:
                other = change["metrics"][name]["value"]
                found.append(f"seed {seed}: {name} {entry['value']!r} -> {other!r}")
    return found


def overall(statuses: dict[str, int], claim: str | None) -> int:
    """The exit status for per-workload verdicts: INVALID or SLOWER anywhere
    outranks the claimed workload's own verdict; a workload that is not the
    claim passes by not being slower."""
    for bad in (INVALID, SLOWER):
        if bad in statuses.values():
            return bad
    return GAIN if claim is None else statuses[claim]


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument(
        "--workload", required=True, action="append", dest="workloads", metavar="NAME",
        help="a workload named in BENCHMARK.json, or 'all'; may be repeated",
    )
    parser.add_argument("--claim", metavar="NAME", help="the workload that must read GAIN")
    parser.add_argument(
        "--metric", default="wall_s", choices=sorted(JUDGED_METRICS),
        help="the end-to-end metric judged (default wall_s); a simulated one lets "
        "the claimed workload's simulation differ",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1, help="pair i runs seed base+i")
    parser.add_argument("--seconds", type=float, default=12.0, help="bench/run.py --seconds")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    names = [name for asked in args.workloads for name in (declared if asked == "all" else [asked])]
    args.workloads = list(dict.fromkeys(names))  # first mention keeps its place
    unknown = sorted(set(args.workloads) - set(declared))
    if unknown:
        parser.error(f"not in BENCHMARK.json: {', '.join(unknown)}")
    if args.claim is None and len(args.workloads) == 1:
        args.claim = args.workloads[0]
    if args.claim is not None and args.claim not in args.workloads:
        parser.error(f"--claim {args.claim} is not among the workloads to run")
    args.metric = JUDGED_METRICS[args.metric]
    return args


def run_pairs(
    trees: dict[str, pathlib.Path], workload: str, pairs: int, seed_base: int, seconds: float,
    metric: dict, sim_may_differ: bool = False,
) -> tuple[int, list[str]]:
    """All pairs of one workload, printed as they finish: status and report."""
    judged = metric["name"]
    shown = [judged] + (list(SHOWN_BESIDE) if sim_may_differ else [])
    samples: dict[str, list[float]] = {"parent": [], "change": []}
    broken = []
    print(f"\n{workload}: {pairs} pairs, parent = {trees['parent'].name}")
    width = max(14, len(judged) + 7)
    print(
        f"{'pair':>4} {'seed':>6} {'first':<7} "
        + "".join(f"{'parent ' + n:>{width}} {'change ' + n:>{width}} " for n in shown)
        + f"{'ratio':>7}"
    )
    for pair in range(pairs):
        seed = seed_base + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        reports = {side: run_side(trees[side], workload, seed, seconds) for side in order}
        broken += problems(seed, reports["parent"], reports["change"], sim_may_differ)
        for side in order:
            samples[side].append(reports[side]["metrics"][judged]["value"])
        values = "".join(
            f"{reports[side]['metrics'][n]['value']:>{width}.3f} "
            for n in shown
            for side in ("parent", "change")
        )
        print(
            f"{pair + 1:>4} {seed:>6} {order[0]:<7} {values}"
            f"{samples['change'][-1] / samples['parent'][-1]:>7.3f}"
        )

    status, lines = verdict(samples["parent"], samples["change"], metric)
    lines += [f"PROBLEM {problem}" for problem in broken]
    if broken:
        lines.append("verdict: INVALID -- the two sides did not run the same simulation correctly")
        status = INVALID
    print("\n".join(lines))
    return status, lines


def main() -> int:
    args = parse_args()
    trees = {"parent": checkout(args.parent), "change": ROOT}
    statuses, summary = {}, []
    simulated = args.metric["name"] in SIM_CLAIMS
    for workload in args.workloads:
        statuses[workload], lines = run_pairs(
            trees, workload, args.pairs, args.seed_base, args.seconds, args.metric,
            sim_may_differ=simulated and workload == args.claim,
        )
        role = "claim" if workload == args.claim else ""
        word = VERDICT_WORDS[statuses[workload]]
        summary.append(f"{workload:<12} {role:<6} {word:<14} {lines[2]}")
    if len(summary) > 1:
        print("\n" + "\n".join(summary))
    return overall(statuses, args.claim)


if __name__ == "__main__":
    sys.exit(main())
