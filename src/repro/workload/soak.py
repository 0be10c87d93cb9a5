"""Churn-soak harness: long runs under continuous churn (E13).

Composes the pieces the E13 series needs into one picklable scenario cell:

- a cluster whose failure-detector / heartbeat / timeout knobs **scale
  with the site count** (constant small-cluster intervals at 200 sites
  drown the run in O(n²)-per-interval heartbeat events — see
  :func:`scaled_cluster_config`),
- a seeded :class:`repro.sim.churn.ChurnSchedule` plan sized to the soak
  duration (rolling restarts, and a cascade when time and quorum allow),
- a closed-loop workload that submits continuously until the horizon and
  then goes quiet (:meth:`ClosedLoopRunner.stop`),
- :class:`repro.sim.oracles.SoakOracles` armed for the whole run, and
- ring-buffer tracing so memory stays bounded however long the soak runs.

The phases: run under churn to the horizon, stop the clients, run on
until every outstanding transaction reaches a final outcome, drain, then
assert the end-of-run oracles.  ``run_churn_soak`` returns a flat
``dict[str, float]`` so :func:`repro.analysis.experiment.run_sweep` can
fold it across seeds and jobs byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.cluster import Cluster, ClusterConfig
from repro.sim.churn import ChurnSchedule
from repro.sim.oracles import OracleConfig, SoakOracles
from repro.workload.generator import WorkloadConfig
from repro.workload.runner import ClosedLoopRunner


def scaled_cluster_config(
    protocol: str,
    sites: int,
    seed: int,
    trace: bool = False,
    trace_capacity: int = 20_000,
) -> ClusterConfig:
    """A deployment whose periodic machinery scales with the site count.

    The failure detector and CBP's null messages each cost O(n²) messages
    per interval; holding the small-cluster defaults (50ms/25ms) at 200
    sites means ~95M heartbeat events per simulated minute before any
    transaction runs.  Scaling the intervals linearly with ``n`` keeps the
    per-simulated-second event count roughly constant across the E13 size
    axis, while timeouts stay a fixed multiple of the interval so detection
    semantics (missed-beats-to-suspicion) are size-independent.
    """
    fd_interval = max(200.0, 10.0 * sites)
    fd_timeout = 4.0 * fd_interval
    return ClusterConfig(
        protocol=protocol,
        num_sites=sites,
        num_objects=max(64, sites),
        seed=seed,
        enable_failure_detector=True,
        fd_interval=fd_interval,
        fd_timeout=fd_timeout,
        cbp_heartbeat=fd_interval,
        p2p_write_timeout=fd_interval,
        p2p_deadlock_interval=max(50.0, fd_interval / 4.0),
        max_attempts=60,
        retry_backoff=50.0,
        # Eager relay is O(n²) datagrams per broadcast — infeasible on the
        # size axis.  Crash-only churn is safe without it: a multicast's
        # sends are scheduled atomically, so partial dissemination by a
        # crashing sender cannot occur.
        relay=False,
        trace=trace,
        trace_capacity=trace_capacity if trace else None,
    )


@dataclass(frozen=True)
class SoakConfig:
    """One churn-soak cell (everything but protocol and seed)."""

    sites: int
    #: Simulated ms of churn + load before the clients go quiet.
    duration: float = 60_000.0
    mpl: int = 4
    think_time: float = 1_500.0
    read_ops: int = 2
    write_ops: int = 1
    trace: bool = False
    trace_capacity: int = 20_000
    #: ``None`` derives a window from the cluster's scaled fd timeout.
    liveness_window: Optional[float] = None
    in_doubt_limit: Optional[float] = None
    #: Extra simulated ms allowed for the quiet tail (outstanding
    #: transactions finishing + convergence drain) past the horizon.
    tail_budget: float = 120_000.0

    def __post_init__(self) -> None:
        if self.sites < 3:
            raise ValueError("churn soaks need at least 3 sites (quorum with one down)")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


def build_churn_plan(cluster: Cluster, config: SoakConfig) -> ChurnSchedule:
    """A seeded plan sized to the soak: as many rolling crash/recover
    cycles as fit the duration at this scale, a two-site cascade when a
    cycle's budget is left over and quorum allows.

    All recoveries are scheduled inside the horizon, so the quiet tail
    starts with every site up and converging.
    """
    churn = ChurnSchedule(cluster)
    cfg = cluster.config
    start = cfg.fd_timeout  # let the detector's first beats settle
    downtime = (1.25 * cfg.fd_timeout, 2.0 * cfg.fd_timeout)
    gap = (cfg.fd_interval, 2.0 * cfg.fd_interval)
    cycle_budget = downtime[1] + gap[1]
    victims = churn.default_victims()
    cycles = max(1, int((config.duration - start - cycle_budget) // cycle_budget))
    # Deterministic spread over the id space so repeated soaks at one size
    # exercise different sites per cycle.
    picks = [victims[(i * 7 + 3) % len(victims)] for i in range(cycles)]
    end = churn.rolling_restart(start, victims=picks, downtime=downtime, gap=gap)
    if (
        churn.max_concurrent_down >= 2
        and end + cycle_budget + 2.0 * cfg.fd_interval < config.duration
    ):
        pair = [victims[(cycles * 7 + 3) % len(victims)], victims[(cycles * 7 + 10) % len(victims)]]
        if pair[0] != pair[1]:
            churn.cascade(at=end + 2.0 * cfg.fd_interval, victims=pair, downtime=downtime)
    return churn


def run_churn_soak(protocol: str, config: SoakConfig, seed: int) -> dict[str, float]:
    """One soak cell: build, churn, quiesce, assert, measure.

    Raises :class:`repro.sim.oracles.OracleViolation` if any oracle fails;
    a completed call certifies the run.  The returned floats fold through
    the order-canonical merge (digest tests compare serial vs
    ``jobs=N`` sweeps over this function).
    """
    cluster = Cluster(
        scaled_cluster_config(
            protocol,
            config.sites,
            seed,
            trace=config.trace,
            trace_capacity=config.trace_capacity,
        )
    )
    cfg = cluster.config
    liveness = config.liveness_window
    if liveness is None:
        # Longest legitimate gap: a crash stalls commits for the detection
        # timeout plus a state-transfer round plus client think/backoff.
        liveness = 3.0 * cfg.fd_timeout + config.think_time + 5_000.0
    in_doubt = config.in_doubt_limit
    if in_doubt is None:
        in_doubt = liveness
    oracles = SoakOracles(
        cluster,
        OracleConfig(
            liveness_window=liveness,
            in_doubt_limit=in_doubt,
            check_interval=max(500.0, cfg.fd_interval / 2.0),
        ),
    )
    churn = build_churn_plan(cluster, config)
    runner = ClosedLoopRunner(
        cluster,
        WorkloadConfig(
            num_objects=cfg.num_objects,
            num_sites=config.sites,
            read_ops=config.read_ops,
            write_ops=config.write_ops,
        ),
        mpl=config.mpl,
        transactions=1 << 31,  # horizon-bounded, not count-bounded
        think_time=config.think_time,
    )
    oracles.arm()
    runner.start()
    cluster.run_for(config.duration)
    runner.stop()
    result = cluster.run(
        max_time=config.duration + config.tail_budget,
        stop_when=cluster.all_final,
        drain=True,
    )
    oracles.disarm()
    oracles.check_final(result)
    stats = oracles.stats()
    return {
        "committed": float(result.committed_specs),
        "failed": float(result.failed_specs),
        "unanswered": float(result.incomplete_specs),
        "throughput_per_s": result.committed_specs / (result.duration / 1_000.0),
        "converged": 1.0 if result.converged else 0.0,
        "serializable": 1.0 if result.serialization.ok else 0.0,
        "crashes": float(len(churn.faults.events("crash"))),
        "recoveries": float(len(churn.faults.events("recover"))),
        "max_stall_ms": float(stats["max_stall_ms"]),
        "max_in_doubt_ms": float(stats["max_in_doubt_residency_ms"]),
        "trace_dropped": float(cluster.trace.dropped),
        "duration_ms": float(result.duration),
        "events": float(cluster.engine.events_processed),
    }


def e13_cell(protocol: str, sites: int, seed: int) -> dict[str, float]:
    """The E13 sweep cell: a default-shape churn soak at ``sites`` sites.

    Module-level and closure-free so ``run_sweep(jobs=N)`` can pickle it
    into the worker pool.
    """
    return run_churn_soak(protocol, SoakConfig(sites=sites), seed)


def e13_smoke_cell(protocol: str, sites: int, seed: int) -> dict[str, float]:
    """A CI-sized soak: short horizon, small clusters, bounded tracing.
    Same code path as :func:`e13_cell`, an order of magnitude cheaper."""
    return run_churn_soak(
        protocol,
        SoakConfig(sites=sites, duration=25_000.0, trace=True, trace_capacity=5_000),
        seed,
    )


def e13_tiny_cell(protocol: str, sites: int, seed: int) -> dict[str, float]:
    """A sub-second cell for digest-equality tests: the sweep layer's
    serial-vs-sharded byte-identity contract must hold over the churn
    soak's metric shape (oracle stats and fault counts included), and a
    tier-1 test cannot afford the CI smoke's horizon."""
    return run_churn_soak(
        protocol,
        SoakConfig(
            sites=sites, duration=6_000.0, mpl=2, trace=True, trace_capacity=1_000
        ),
        seed,
    )
