#!/usr/bin/env python3
"""Judge a performance claim: alternating parent/change pairs of one workload.

Checks out ``--parent`` (a git revision) under ``.bench_out/`` and runs the
repository benchmark's driver form, ``bench/run.py --workload W --seed S
--trace 0``, once on that checkout and once on this working tree per pair:
a fresh seed for every pair, the same seed within it, and the side that goes
first alternating, so drift on the box lands on both sides alike.  Each side
runs its own copy of ``bench/`` (identical by the benchmark's rule), exactly
as the driver does.

Within a pair everything the simulation computes must be equal -- a change
that claims a host-time gain may not move a simulated metric.  The verdict
on ``wall_s`` is the rule of the choosing-metrics guide, section 8: a gain
only when the change wins at least nine tenths of the pairs (ties count for
neither side) and the medians differ by more than the distance between the
quartiles of the parent's own runs.

Usage:
    python scripts/bench_pairs.py --parent HEAD~1 --workload rbp_wide
    python scripts/bench_pairs.py --parent 882a987 --workload abp_lossy --pairs 12 --seed-base 100

Exit status: 0 gain, 1 a run was incorrect or the sides' simulations differ,
2 no gain shown, 3 the change is slower by the same rule.
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
sys.path.insert(0, str(ROOT / "bench"))

import metrics  # noqa: E402  (the benchmark's own table: which metrics are host-side)


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


def verdict(parent: list[float], change: list[float]) -> tuple[int, list[str]]:
    """Section 8's rule on paired ``wall_s`` samples: exit status and report."""
    p_q1, p_median, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_median, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    spread = p_q3 - p_q1
    won = sum(c < p for p, c in zip(parent, change))
    lost = sum(c > p for p, c in zip(parent, change))
    needed = -(-9 * len(parent) // 10)  # nine tenths, rounded up
    lines = [
        f"parent wall_s: median {p_median:.3f}  quartiles {p_q1:.3f} .. {p_q3:.3f}  "
        f"(distance {spread:.3f})",
        f"change wall_s: median {c_median:.3f}  quartiles {c_q1:.3f} .. {c_q3:.3f}  "
        f"(distance {c_q3 - c_q1:.3f})",
        f"change/parent medians: {c_median / p_median:.3f}x of {p_median:.3f} s; "
        f"pairs won {won}, lost {lost}, of {len(parent)} (need {needed})",
    ]
    if won >= needed and p_median - c_median > spread:
        return 0, lines + [
            "verdict: GAIN -- enough pairs won, medians apart by more than the parent's quartiles"
        ]
    if lost >= needed and c_median - p_median > spread:
        return 3, lines + ["verdict: SLOWER -- the change loses by the same rule"]
    return 2, lines + [
        "verdict: NO GAIN SHOWN -- too few pairs won, or medians within the parent's spread"
    ]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1, help="pair i runs seed base+i")
    parser.add_argument("--seconds", type=float, default=12.0, help="bench/run.py --seconds")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")

    trees = {"parent": checkout(args.parent), "change": ROOT}
    walls: dict[str, list[float]] = {"parent": [], "change": []}
    broken = []
    print(f"{args.workload}: {args.pairs} pairs, parent = {trees['parent'].name}")
    print(
        f"{'pair':>4} {'seed':>6} {'first':<7} {'parent wall_s':>14} {'change wall_s':>14} "
        f"{'ratio':>7}"
    )
    for pair in range(args.pairs):
        seed = args.seed_base + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        reports = {
            side: run_side(trees[side], args.workload, seed, args.seconds) for side in order
        }
        for side in order:
            if not reports[side]["correct"]:
                broken.append(f"seed {seed}: {side} run is incorrect")
        parent, change = reports["parent"], reports["change"]
        if change["failed"] * parent["attempted"] > parent["failed"] * change["attempted"]:
            broken.append(f"seed {seed}: a larger share of operations fails on the change")
        for name, entry in sorted(parent["metrics"].items()):
            if metrics.BY_NAME[name].kind != "host" and change["metrics"][name] != entry:
                other = change["metrics"][name]["value"]
                broken.append(f"seed {seed}: {name} {entry['value']!r} -> {other!r}")
        for side in order:
            walls[side].append(reports[side]["metrics"]["wall_s"]["value"])
        print(
            f"{pair + 1:>4} {seed:>6} {order[0]:<7} {walls['parent'][-1]:>14.3f} "
            f"{walls['change'][-1]:>14.3f} {walls['change'][-1] / walls['parent'][-1]:>7.3f}"
        )

    status, lines = verdict(walls["parent"], walls["change"])
    print("\n".join(lines))
    for problem in broken:
        print(f"PROBLEM {problem}")
    if broken:
        print("verdict: INVALID -- the two sides did not run the same simulation correctly")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
