"""E13 — Scale/churn series: long soaks under rolling churn (50–500 sites).

Beyond the paper's static small-cluster experiments: the E13 series runs
each protocol at growing site counts under a seeded
:class:`repro.sim.churn.ChurnSchedule` (rolling crash/recover with state
transfer, cascades when quorum allows) with
:class:`repro.sim.oracles.SoakOracles` armed for the whole run.  Three
claims, each asserted:

1. **correctness under churn at every size** — convergence, 1SR and zero
   unanswered clients hold for all four protocols, with commit progress
   never stalling past the liveness window and in-doubt residency bounded
   (``run_churn_soak`` raises mid-run otherwise);
2. **bounded memory** — ring-buffer tracing keeps a soak's RSS flat no
   matter how long it runs (checked in a subprocess against a hard
   ceiling, with the ring provably wrapping);
3. **determinism** — the series folds byte-identically under
   ``run_sweep(jobs=N)`` (see ``tests/integration/test_churn_soak.py``).

The 200-site acceptance soak (≥60s simulated, all four protocols) runs
when ``E13_ACCEPTANCE=1`` — several wall-clock minutes, so it is not part
of the default collection.  The interactive-speed number is the
repository benchmark's ``sim.sim_s_per_wall_s`` on ``abp_churn``
(``python3 bench/run.py``).
"""

import os
import subprocess
import sys

import pytest

from benchmarks.common import PROTOCOLS, bench_once, print_experiment_table
from repro.analysis.experiment import run_sweep
from repro.workload.soak import SoakConfig, e13_smoke_cell, run_churn_soak

SITES = (10, 20)
#: Hard RSS ceiling for a bounded-trace soak subprocess.  A fresh
#: interpreter plus a 20-site soak peaks around 30 MB; an unbounded trace
#: or a bookkeeping leak that scales with run length blows well past this.
RSS_CEILING_MB = 256.0


def test_e13_scale_churn_series(benchmark):
    sweep = run_sweep(
        "e13_churn_soak",
        e13_smoke_cell,
        parameters=SITES,
        protocols=PROTOCOLS,
        seeds=(1,),
    )
    print_experiment_table(sweep.table("committed", parameter_label="sites"))
    print_experiment_table(sweep.table("max_stall_ms", parameter_label="sites"))
    for sites in SITES:
        # Claim 1: every oracle held, at every size, for every protocol.
        assert all(v == 1.0 for v in sweep.column(sites, "serializable").values())
        assert all(v == 1.0 for v in sweep.column(sites, "converged").values())
        assert all(v == 0.0 for v in sweep.column(sites, "unanswered").values())
        # The plan actually churned: crashes fired and every one recovered.
        crashes = sweep.column(sites, "crashes")
        assert all(v >= 3.0 for v in crashes.values()), crashes
        assert crashes == sweep.column(sites, "recoveries")
        assert all(v > 0.0 for v in sweep.column(sites, "committed").values())

    bench_once(benchmark, e13_smoke_cell, "rbp", 10, 1)


def test_e13_soak_memory_stays_bounded():
    """Claim 2: a bounded-trace soak's peak RSS sits under a hard ceiling,
    measured in a subprocess so the number is the soak's own footprint,
    not the test session's.  The tiny ring capacity forces wraparound —
    the child also asserts records were actually dropped, so a silent
    fallback to unbounded tracing cannot pass."""
    child = (
        "import resource, sys\n"
        "from repro.workload.soak import SoakConfig, run_churn_soak\n"
        "m = run_churn_soak('rbp', SoakConfig(sites=20, duration=25_000.0,"
        " trace=True, trace_capacity=500), 1)\n"
        "assert m['trace_dropped'] > 0, 'ring never wrapped'\n"
        "assert m['unanswered'] == 0.0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    rss_mb = float(proc.stdout.strip().splitlines()[-1]) / 1024.0  # KiB on Linux
    assert rss_mb < RSS_CEILING_MB, f"soak RSS {rss_mb:.1f} MB >= {RSS_CEILING_MB} MB"


@pytest.mark.skipif(
    os.environ.get("E13_ACCEPTANCE") != "1",
    reason="several minutes of wall-clock; run with E13_ACCEPTANCE=1",
)
def test_e13_acceptance_200_sites():
    """The series' acceptance cell: 200 sites, 60s simulated churn, all
    four protocols, every oracle passing."""
    for protocol in PROTOCOLS:
        metrics = run_churn_soak(
            protocol,
            SoakConfig(sites=200, duration=60_000.0, trace=True, trace_capacity=20_000),
            seed=1,
        )
        assert metrics["serializable"] == 1.0, protocol
        assert metrics["converged"] == 1.0, protocol
        assert metrics["unanswered"] == 0.0, protocol
        assert metrics["crashes"] == metrics["recoveries"] >= 3.0, protocol
