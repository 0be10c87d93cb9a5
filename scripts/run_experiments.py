#!/usr/bin/env python3
"""Regenerate every experiment table (E1..E14) in one run.

This is the reproduction entry point referenced by EXPERIMENTS.md: it
invokes the benchmark suite with output capture disabled so all result
tables print, and summarizes pass/fail per experiment at the end.

Usage:
    python scripts/run_experiments.py                # everything, serially
    python scripts/run_experiments.py e1 e3          # a subset
    python scripts/run_experiments.py --jobs 4       # fan experiments across cores
    python scripts/run_experiments.py --sweep-jobs 4 # fan seeds *within* sweeps

Each experiment is one independent deterministic pytest process, so
``--jobs`` changes wall-clock only — tables and pass/fail outcomes are
identical to a serial run.  With ``--jobs > 1`` output is captured per
experiment and printed in experiment order once complete.

``--sweep-jobs`` reaches *inside* each experiment process: it is exported
as ``REPRO_SWEEP_JOBS``, which any ``run_sweep``/``ExperimentSweep`` call
without an explicit ``jobs=`` picks up, sharding each cell's seed list
across the sweep worker pool.  The order-canonical merge keeps the
output byte-identical to a serial sweep, so this too changes wall-clock
only.  The two flags multiply (``--jobs 2 --sweep-jobs 4`` can run 8
processes); prefer ``--sweep-jobs`` when running a single seed-heavy
experiment and ``--jobs`` when running the full set.
"""

# detcheck: file-ignore[D102] — wall-clock reads time the reproduction run
# itself (progress reporting); they never reach the simulation.

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

EXPERIMENTS = {
    "e1": "test_e1_message_cost.py",
    "e2": "test_e2_latency_scaling.py",
    "e3": "test_e3_implicit_ack_wait.py",
    "e4": "test_e4_contention_aborts.py",
    "e5": "test_e5_throughput.py",
    "e6": "test_e6_deadlocks.py",
    "e7": "test_e7_readonly.py",
    "e8": "test_e8_write_ratio.py",
    "e9": "test_e9_fault_tolerance.py",
    "e10": "test_e10_ablations.py",
    "e11": "test_e11_bytes.py",
    "e12": "test_e12_loss_sweep.py",
    "e13": "test_e13_churn_soak.py",
    "e14": "test_e14_batching_sweep.py",
}


def _pytest_command(experiment: str) -> list[str]:
    return [
        sys.executable,
        "-m",
        "pytest",
        str(BENCH_DIR / EXPERIMENTS[experiment]),
        "--benchmark-only",
        "--benchmark-disable-gc",
        "-q",
        "-s",
    ]


def _experiment_env(sweep_jobs: int) -> dict[str, str]:
    """Subprocess environment; exports the intra-sweep fan-out knob."""
    env = dict(os.environ)
    if sweep_jobs > 1:
        env["REPRO_SWEEP_JOBS"] = str(sweep_jobs)
    return env


def _run_captured(experiment: str, sweep_jobs: int) -> tuple[bool, float, str]:
    started = time.time()
    proc = subprocess.run(
        _pytest_command(experiment),
        cwd=BENCH_DIR.parent,
        capture_output=True,
        text=True,
        env=_experiment_env(sweep_jobs),
    )
    output = proc.stdout + (("\n" + proc.stderr) if proc.stderr else "")
    return proc.returncode == 0, time.time() - started, output


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*", help="subset, e.g. e1 e3")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="experiments to run concurrently (results are order/outcome identical)",
    )
    parser.add_argument(
        "--sweep-jobs",
        type=int,
        default=1,
        help="seed-shard sweeps inside each experiment (exported as "
        "REPRO_SWEEP_JOBS; byte-identical to serial)",
    )
    args = parser.parse_args(argv)

    requested = [a.lower() for a in args.experiments] or sorted(EXPERIMENTS)
    unknown = [e for e in requested if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; pick from {sorted(EXPERIMENTS)}")
        return 2

    outcomes: dict[str, tuple[bool, float]] = {}
    if args.jobs > 1 and len(requested) > 1:
        # Each experiment is its own subprocess; threads only babysit them.
        with ThreadPoolExecutor(max_workers=min(args.jobs, len(requested))) as pool:
            futures = {
                e: pool.submit(_run_captured, e, args.sweep_jobs) for e in requested
            }
        for experiment in requested:
            ok, elapsed, output = futures[experiment].result()
            target = BENCH_DIR / EXPERIMENTS[experiment]
            print(f"\n{'=' * 72}\n{experiment.upper()}: {target.name}\n{'=' * 72}")
            print(output, end="")
            outcomes[experiment] = (ok, elapsed)
    else:
        for experiment in requested:
            target = BENCH_DIR / EXPERIMENTS[experiment]
            print(f"\n{'=' * 72}\n{experiment.upper()}: {target.name}\n{'=' * 72}")
            started = time.time()
            proc = subprocess.run(
                _pytest_command(experiment),
                cwd=BENCH_DIR.parent,
                env=_experiment_env(args.sweep_jobs),
            )
            outcomes[experiment] = (proc.returncode == 0, time.time() - started)

    print(f"\n{'=' * 72}\nSummary\n{'=' * 72}")
    failed = 0
    for experiment in requested:
        ok, elapsed = outcomes[experiment]
        status = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        print(f"  {experiment.upper():5s} {status}   ({elapsed:6.1f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
