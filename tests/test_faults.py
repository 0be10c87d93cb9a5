"""Tests for the declarative fault scheduler."""

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import AbortReason, TransactionSpec
from repro.sim.faults import FaultSchedule


def fault_cluster(**overrides):
    defaults = dict(
        protocol="rbp",
        num_sites=5,
        num_objects=16,
        seed=29,
        enable_failure_detector=True,
        fd_interval=20.0,
        fd_timeout=80.0,
        relay=True,
    )
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def spec(name, home, key, value=None):
    if value is None:
        return TransactionSpec.make(name, home, read_keys=[key])
    return TransactionSpec.make(name, home, read_keys=[key], writes={key: value})


def test_crash_and_recover_schedule():
    cluster = fault_cluster()
    schedule = FaultSchedule(cluster).crash(4, at=100.0).recover(4, at=2000.0)
    cluster.submit(spec("during", 0, "x0", 1), at=500.0)
    cluster.submit(spec("after", 4, "x1", 2), at=4500.0)
    result = cluster.run(max_time=100000, stop_when=cluster.await_specs(2))
    assert result.ok
    assert result.committed_specs == 2
    assert [e.action for e in sorted(schedule.log, key=lambda e: e.time)] == [
        "crash",
        "recover",
    ]


def test_partition_heal_schedule():
    cluster = fault_cluster(retry_aborted=False)
    schedule = (
        FaultSchedule(cluster)
        .partition([[0, 1, 2], [3, 4]], at=50.0)
        .heal(at=3000.0)
    )
    minority = cluster.submit(spec("minority", 3, "x0", 1), at=800.0)
    late = cluster.submit(spec("late", 3, "x1", 2), at=5000.0)
    result = cluster.run(max_time=100000, stop_when=cluster.await_specs(2))
    assert minority.last_outcome is AbortReason.NO_QUORUM
    assert late.committed
    assert len(schedule.events("partition")) == 1
    assert len(schedule.events("heal")) == 1


def test_stranded_home_cannot_commit_in_singleton_view():
    """Regression: a partition that isolates a transaction's home site used
    to let it finish 2PC alone once its failure detector installed the
    singleton view {home} — a quorumless "commit" the post-heal state
    transfer silently undid, while the write it had buffered at the majority
    sites pinned an exclusive lock forever (blocking every later conflicting
    transaction).  Now the minority home aborts with NO_QUORUM and the
    majority sites presume-abort the orphaned buffered write."""
    cluster = fault_cluster(
        num_sites=4, seed=5, max_attempts=30, retry_backoff=10.0
    )
    FaultSchedule(cluster).partition([[0], [1, 2, 3]], at=50.0).heal(at=450.0)
    # Both transactions write the same key; T0's home (site 0) is stranded
    # alone mid-write-round, T1 waits on the lock T0's write buffered.
    t0 = cluster.submit(spec("T0", 0, "x0", 0), at=48.0)
    t1 = cluster.submit(spec("T1", 1, "x0", 1), at=49.0)
    result = cluster.run(max_time=300_000.0, stop_when=cluster.await_specs(2))
    assert result.serialization.ok
    assert result.converged
    assert result.incomplete_specs == 0
    assert t0.final and not t0.committed
    assert t0.last_outcome is AbortReason.NO_QUORUM
    assert t1.final and t1.committed


def test_flaky_links_require_arq():
    cluster = fault_cluster(loss_rate=0.0, enable_failure_detector=False)
    with pytest.raises(ValueError):
        FaultSchedule(cluster).flaky_links(0.3, at=10.0)


def test_flaky_links_window():
    cluster = fault_cluster(
        loss_rate=0.01, enable_failure_detector=False, protocol="rbp"
    )
    FaultSchedule(cluster).flaky_links(0.4, at=0.0, until=2000.0)
    for n in range(5):
        cluster.submit(spec(f"t{n}", n % 5, f"x{n}", n), at=100.0 + n * 100.0)
    result = cluster.run(max_time=500000)
    assert result.ok
    assert result.committed_specs == 5
    if cluster.engine.now < 2000.0:
        cluster.run_for(2500.0)  # let the restore event fire
    assert cluster.network.loss_rate == 0.01  # restored
    assert cluster.network.stats.dropped_loss > 0


def arq_cluster(**overrides):
    return fault_cluster(
        loss_rate=0.01, enable_failure_detector=False, **overrides
    )


def test_flaky_links_open_ended_window_stays_open():
    """Regression: ``until=None`` used to leak — the raised rate was never
    restored and a later bounded window clobbered it back to base."""
    cluster = arq_cluster()
    schedule = FaultSchedule(cluster).flaky_links(0.5, at=10.0)
    cluster.run_for(100.0)
    assert cluster.network.loss_rate == 0.5  # still open
    schedule.restore_links(at=200.0)
    cluster.run_for(150.0)
    assert cluster.network.loss_rate == 0.01  # back to base


def test_flaky_links_nested_window_restores_to_outer():
    cluster = arq_cluster()
    schedule = FaultSchedule(cluster)
    schedule.flaky_links(0.3, at=10.0, until=100.0)  # outer
    schedule.flaky_links(0.6, at=30.0, until=60.0)  # inner
    cluster.run_for(40.0)
    assert cluster.network.loss_rate == 0.6  # inner in effect
    cluster.run_for(30.0)  # t=70: inner closed
    assert cluster.network.loss_rate == 0.3  # restores to outer, not base
    cluster.run_for(50.0)  # t=120: outer closed
    assert cluster.network.loss_rate == 0.01


def test_flaky_links_abutting_windows_order_independent():
    """Two windows sharing a boundary timestamp give the same loss
    timeline whichever declaration order the equal-time events fire in
    (the ordering contract in the module docstring)."""
    rates = {}
    for order in ("first-then-second", "second-then-first"):
        cluster = arq_cluster()
        schedule = FaultSchedule(cluster)
        if order == "first-then-second":
            schedule.flaky_links(0.3, at=10.0, until=30.0)
            schedule.flaky_links(0.7, at=30.0, until=50.0)
        else:
            schedule.flaky_links(0.7, at=30.0, until=50.0)
            schedule.flaky_links(0.3, at=10.0, until=30.0)
        observed = []
        for step in (20.0, 20.0, 20.0):  # t=20, 40, 60
            cluster.run_for(step)
            observed.append(cluster.network.loss_rate)
        rates[order] = observed
    assert rates["first-then-second"] == rates["second-then-first"] == [0.3, 0.7, 0.01]


def test_equal_timestamp_events_fire_in_declaration_order():
    """The schedule's documented contract: same-time fault events follow
    declaration order (the engine's same-time FIFO)."""
    healed_last = fault_cluster(seed=31)
    FaultSchedule(healed_last).partition([[0, 1, 2], [3, 4]], at=50.0).heal(at=50.0)
    healed_last.run_for(60.0)
    assert healed_last.network.partitions.connected(0, 3)

    split_last = fault_cluster(seed=31)
    FaultSchedule(split_last).heal(at=50.0).partition([[0, 1, 2], [3, 4]], at=50.0)
    split_last.run_for(60.0)
    assert not split_last.network.partitions.connected(0, 3)


def test_flaky_links_rejects_empty_window():
    cluster = arq_cluster()
    with pytest.raises(ValueError):
        FaultSchedule(cluster).flaky_links(0.3, at=50.0, until=50.0)


def test_describe_renders_timeline():
    cluster = fault_cluster()
    schedule = FaultSchedule(cluster).crash(1, at=5.0).heal(at=10.0)
    cluster.run_for(20.0)
    text = schedule.describe()
    assert "crash" in text and "heal" in text
    assert text.index("crash") < text.index("heal")
