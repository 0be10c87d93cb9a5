#!/usr/bin/env python3
"""What a benchmark workload still holds at its end, and what of it grows
with the run.

Runs one workload of the repository benchmark (``bench/workloads.py``,
imported read-only) at half and at full length, each in a fresh child
process under ``tracemalloc``, and prints the allocation sites still live
once the run has finished: ``file:line``, live bytes at each length and
blocks at full length.  A site whose live bytes at full length are at least
:data:`GROWS` times those at half length (a term linear in run length reads
2) is marked ``GROWS``: it holds something per operation ever made, not per
operation in flight.  Below the table it counts the events still pending in
the engine at each length by callback name (a timer scheduled through
``Process.schedule`` by the function its epoch guard wraps), so a timer term
is named, not only shown as the engine's own allocation site.

With ``--fail-grows MIB`` it also exits non-zero when an allocation site
under ``src/`` marked ``GROWS`` holds more than ``MIB`` MiB at full length
(the CI gate on ``abp_churn``), listing every such site.

Usage:
    python scripts/retained.py --workload abp_hot_mix
    python scripts/retained.py --workload abp_churn --seed 2
    python scripts/retained.py --workload abp_churn --fail-grows 0.25
    python scripts/retained.py --workload rbp_wide --fail-grows 0.8
    make retained WORKLOAD=abp_hot_mix

Tracing allocations slows a run about threefold; ``abp_hot_mix`` takes
about half a minute for both lengths on a 2-core box.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import pathlib
import subprocess
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCALES = (0.5, 1.0)
#: Full-length over half-length live bytes from which a site reads GROWS.
GROWS = 1.5
#: Allocation sites printed, largest first.
TOP = 25


def pending_callbacks(engine) -> dict[str, int]:
    """The events still queued in ``engine`` (cancelled ones left out), by
    the qualified name of the callback each will run."""
    from repro.sim.process import Process

    counts: collections.Counter[str] = collections.Counter()
    for _, _, fn, args in engine._heap:
        if args is None:  # a cancellable event: (time, seq, handle, None)
            if fn.cancelled:
                continue
            fn, args = fn.fn, fn.args
        if getattr(fn, "__func__", None) is Process._guarded:
            fn = args[1]  # (epoch, fn, args): the guarded callback
        counts[getattr(fn, "__qualname__", type(fn).__name__)] += 1
    return dict(counts)


def census(workload_name: str, seed: int, scale: float) -> dict:
    """Run the workload once and return its live allocation sites and the
    events still pending in its engine."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    tracemalloc.start()
    session = workloads.build(workloads.BY_NAME[workload_name], seed, scale)
    session.start()
    result = session.finish()
    if not result.serialization.ok:
        raise SystemExit(f"{workload_name} at scale {scale}: 1SR violated")
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    stats = snapshot.statistics("lineno")
    sites = {}
    for stat in stats:
        frame = stat.traceback[0]
        path = pathlib.Path(frame.filename)
        if path.is_relative_to(ROOT):
            path = path.relative_to(ROOT)
        sites[f"{path}:{frame.lineno}"] = (stat.size, stat.count)
    return {
        "commits": session.log.commits,
        "total": sum(stat.size for stat in stats),
        "sites": sites,
        "pending": pending_callbacks(session.cluster.engine),
    }


def run_child(workload: str, seed: int, scale: float) -> dict:
    command = [
        sys.executable, __file__, "--workload", workload, "--seed", str(seed),
        "--child-scale", str(scale),
    ]
    out = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


MIB = 1024 * 1024


def grows(half: dict, full: dict, site: str) -> bool:
    return full["sites"][site][0] >= GROWS * half["sites"].get(site, (0, 0))[0]


def report(workload: str, half: dict, full: dict, top: int) -> list[str]:
    mib = MIB
    lines = [
        f"{workload}: {half['commits']} → {full['commits']} commits; "
        f"live {half['total'] / mib:.1f} → {full['total'] / mib:.1f} MiB traced",
        f"{'allocation site':<52} {'MiB @0.5':>9} {'MiB @1.0':>9} {'blocks':>9}",
    ]
    ranked = sorted(full["sites"].items(), key=lambda item: -item[1][0])[:top]
    for site, (size, count) in ranked:
        before = half["sites"].get(site, (0, 0))[0]
        mark = "  GROWS" if grows(half, full, site) else ""
        lines.append(f"{site:<52} {before / mib:>9.2f} {size / mib:>9.2f} {count:>9}{mark}")
    lines.append(f"{'pending engine events, by callback':<52} {'@0.5':>9} {'@1.0':>9}")
    names = half["pending"].keys() | full["pending"].keys()
    if not names:
        lines.append("(none)")
    for name in sorted(names, key=lambda name: (-full["pending"].get(name, 0), name)):
        lines.append(
            f"{name:<52} {half['pending'].get(name, 0):>9} {full['pending'].get(name, 0):>9}"
        )
    return lines


def over_budget(half: dict, full: dict, budget_mib: float) -> list[str]:
    """The ``src/`` sites marked GROWS that hold more than ``budget_mib``
    MiB at full length, largest first."""
    sites = [
        (size, site)
        for site, (size, _) in sorted(full["sites"].items())
        if site.startswith("src/") and size > budget_mib * MIB and grows(half, full, site)
    ]
    return [f"{site}: {size / MIB:.2f} MiB, GROWS" for size, site in sorted(sites, reverse=True)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--fail-grows", type=float, default=None, metavar="MIB",
        help="exit 1 if a src/ site marked GROWS holds more than MIB at full length",
    )
    parser.add_argument("--child-scale", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child_scale is not None:
        print(json.dumps(census(args.workload, args.seed, args.child_scale)))
        return 0
    half, full = (run_child(args.workload, args.seed, scale) for scale in SCALES)
    print("\n".join(report(args.workload, half, full, TOP)))
    if args.fail_grows is not None:
        offenders = over_budget(half, full, args.fail_grows)
        if offenders:
            print(f"over {args.fail_grows:g} MiB and growing with the run:")
            print("\n".join(f"  {line}" for line in offenders))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
