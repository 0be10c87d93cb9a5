#!/usr/bin/env python3
"""CI smoke: a sharded sweep must be byte-identical to the serial run.

Runs one tiny but real sweep (all four protocols, a handful of seeds)
twice — ``jobs=1`` and ``jobs=N`` — and diffs the measurement digests.
Any divergence (a completion-order fold, a non-fsum accumulation, a
worker-dependent code path) exits non-zero with both digests printed.

Usage:
    python scripts/parallel_smoke.py            # jobs=4
    python scripts/parallel_smoke.py --jobs 8
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.experiment import run_sweep  # noqa: E402  (path bootstrap)


def _cell(protocol: str, parameter: int, seed: int) -> dict:
    from repro.analysis.stats import percentile
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.workload import WorkloadConfig
    from repro.workload.runner import run_standard_mix

    cluster = Cluster(
        ClusterConfig(protocol=protocol, num_sites=parameter, num_objects=12, seed=seed)
    )
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=12, num_sites=parameter, read_ops=1, write_ops=1),
        transactions=10,
        mpl=2,
    )
    assert result.ok, f"{protocol} seed {seed} failed its invariants"
    latencies = result.metrics.commit_latencies(read_only=False)
    return {
        "commits": float(result.committed_specs),
        "messages": float(result.network_stats["sent"]),
        "latency p50 (ms)": percentile(latencies, 0.50),
        "latency p99 (ms)": percentile(latencies, 0.99),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4, help="worker count (default 4)")
    args = parser.parse_args(argv)

    kwargs = dict(
        name="parallel_smoke",
        scenario=_cell,
        parameters=(3,),
        protocols=("rbp", "cbp", "abp", "p2p"),
        seeds=(0, 1, 2, 3, 4, 5),
    )
    serial = run_sweep(**kwargs, jobs=1)
    sharded = run_sweep(**kwargs, jobs=args.jobs)
    print(f"serial  digest: {serial.digest()}")
    print(f"jobs={args.jobs} digest: {sharded.digest()}")
    if sharded.digest() != serial.digest():
        print("FAIL: sharded sweep diverged from the serial run")
        return 1
    print(f"OK: byte-identical across {len(serial.points)} points")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
