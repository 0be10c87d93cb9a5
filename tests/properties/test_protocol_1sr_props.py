"""The flagship property: randomly generated concurrent workloads, run
through each of the paper's protocols, always produce one-copy serializable
histories and convergent replicas.

This is the executable form of the paper's correctness theorems.  Each
hypothesis example generates a full workload (shapes, homes, submission
times) and runs the complete simulated cluster.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.audit import assert_clean
from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec
from repro.sim.faults import FaultSchedule

KEYS = [f"x{i}" for i in range(6)]

tx_strategy = st.tuples(
    st.sets(st.sampled_from(KEYS), max_size=3),  # read keys
    st.sets(st.sampled_from(KEYS), max_size=2),  # write keys
    st.integers(min_value=0, max_value=2),  # home site
    st.floats(min_value=0.0, max_value=30.0),  # submit time
)

workload_strategy = st.lists(tx_strategy, min_size=1, max_size=10)

COMMON = dict(
    num_sites=3,
    num_objects=len(KEYS),
    seed=5,
    retry_aborted=True,
    max_attempts=10,
    retry_backoff=5.0,
    # Keep the baseline's presumed-deadlock machinery fast so hypothesis
    # examples stay cheap.
    p2p_write_timeout=120.0,
    p2p_deadlock_interval=5.0,
)

PROTOCOL_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_workload(protocol, workload, **overrides):
    cluster = Cluster(ClusterConfig(protocol=protocol, **{**COMMON, **overrides}))
    for index, (reads, writes, home, at) in enumerate(workload):
        spec = TransactionSpec.make(
            f"T{index}",
            home,
            read_keys=sorted(reads | writes),
            writes={key: f"T{index}v" for key in sorted(writes)},
        )
        cluster.submit(spec, at=at)
    return cluster, cluster.run(max_time=1_000_000.0)


@pytest.mark.parametrize("protocol", ["rbp", "cbp", "abp", "p2p"])
@PROTOCOL_SETTINGS
@given(workload=workload_strategy)
def test_random_workloads_are_one_copy_serializable(protocol, workload):
    cluster, result = run_workload(protocol, workload)
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    assert result.incomplete_specs == 0


@PROTOCOL_SETTINGS
@given(workload=workload_strategy)
def test_cbp_per_op_mode_is_one_copy_serializable(workload):
    cluster, result = run_workload("cbp", workload, cbp_per_op=True)
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged


@PROTOCOL_SETTINGS
@given(workload=workload_strategy)
def test_abp_shipped_variant_is_one_copy_serializable(workload):
    cluster, result = run_workload("abp", workload, abp_variant="shipped")
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged


@PROTOCOL_SETTINGS
@given(workload=workload_strategy)
def test_abp_locked_variant_is_one_copy_serializable(workload):
    cluster, result = run_workload("abp", workload, abp_variant="locked")
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    assert result.incomplete_specs == 0


# One fault, injected at a random moment spanning every 2PC stage of the
# random workload (pre-write, mid-write-round, between the commit request
# and the votes, post-decision), and always repaired — so termination is
# checkable, not just safety.
fault_strategy = st.tuples(
    st.sampled_from(["crash", "partition"]),
    st.integers(min_value=0, max_value=3),  # victim site
    st.floats(min_value=0.0, max_value=120.0),  # injection time
    st.floats(min_value=200.0, max_value=1000.0),  # outage duration
)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workload=workload_strategy, fault=fault_strategy)
def test_faults_at_random_2pc_stages_preserve_1sr_and_terminate(workload, fault):
    """Crashing or isolating a random site at a random 2PC stage must leave
    the history one-copy serializable, every client answered, and — after
    the repair plus the decision-query machinery settles — no cohort stuck
    on a transaction it cannot terminate (no held locks, no open tallies or
    queries on any live replica)."""
    kind, victim, at, duration = fault
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=4,
            num_objects=len(KEYS),
            seed=5,
            retry_aborted=True,
            max_attempts=10,
            retry_backoff=5.0,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            relay=True,
        )
    )
    schedule = FaultSchedule(cluster)
    if kind == "crash":
        schedule.crash(victim, at=at).recover(victim, at=at + duration)
    else:
        others = [site for site in range(4) if site != victim]
        schedule.partition([[victim], others], at=at).heal(at=at + duration)
    for index, (reads, writes, home, submit_at) in enumerate(workload):
        spec = TransactionSpec.make(
            f"T{index}",
            home,
            read_keys=sorted(reads | writes),
            writes={key: f"T{index}v" for key in sorted(writes)},
        )
        cluster.submit(spec, at=submit_at)
    result = cluster.run(
        max_time=1_000_000.0, stop_when=cluster.await_specs(len(workload))
    )
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    assert result.incomplete_specs == 0
    # Let the repair and the slowest cleanup paths (orphan watchdog, its
    # in-doubt escalation, a parked query restarted by the heal view) run
    # to quiescence, then audit for stuck cohorts.
    cluster.run_for(3000.0)
    result = cluster.result()
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    assert_clean(cluster)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2(d)")
def test_rbp_site_dropped_from_the_primary_never_learns_it():
    """Three transactions and one partition, in the fault property's own
    configuration: at the heal site 1 installs ``view#2[1, 2]`` while site 0
    installs ``view#2[0, 1, 2, 3]``; sites 0-2 go on to ``view#4[0, 1, 2]``
    and site 3, excluded, keeps ``view#2`` for good, so it never installs
    ``T2#2`` and the live replicas diverge."""
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp", num_sites=4, num_objects=len(KEYS), seed=5,
            max_attempts=10, retry_backoff=5.0, enable_failure_detector=True,
            fd_interval=20, fd_timeout=80, relay=True,
        )
    )
    FaultSchedule(cluster).partition([[1], [0, 2, 3]], at=18.4).heal(at=218.4)
    for name, home, reads, key, at in (
        ("T0", 1, ["x0", "x5"], "x0", 0.4),
        ("T1", 0, ["x1", "x2", "x4"], "x4", 10.3),
        ("T2", 1, ["x1"], "x1", 15.8),
    ):
        cluster.submit(TransactionSpec.make(name, home, read_keys=reads, writes={key: f"{name}v"}), at=at)
    result = cluster.run(max_time=1_000_000.0, stop_when=cluster.await_specs(3))
    cluster.run_for(3000.0)
    result = cluster.result()
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged, [str(m.view) for m in cluster.memberships]


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workload=workload_strategy)
def test_lossy_network_preserves_1sr(workload):
    """Message loss (with ARQ recovery underneath) must not break the
    protocols' correctness, only their latency."""
    cluster, result = run_workload("rbp", workload, loss_rate=0.1)
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    assert result.incomplete_specs == 0
