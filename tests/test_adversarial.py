"""The adversarial schedules, aimed at every protocol: invariants hold."""

import pytest

from repro.analysis.audit import assert_clean
from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import AbortReason
from repro.workload.adversarial import (
    opposed_lock_orders,
    per_op_cross_causality,
    reader_gauntlet,
    required_objects,
    submit_all,
    symmetric_race,
    write_skew_web,
)

PROTOCOLS = ["rbp", "cbp", "abp", "p2p"]


def run_schedule(protocol, schedule, **overrides):
    defaults = dict(
        protocol=protocol,
        num_sites=3,
        num_objects=required_objects(schedule),
        seed=86,
        max_attempts=40,
        retry_backoff=6.0,
        p2p_write_timeout=150.0,
        p2p_deadlock_interval=5.0,
    )
    defaults.update(overrides)
    cluster = Cluster(ClusterConfig(**defaults))
    statuses = submit_all(cluster, schedule)
    result = cluster.run(
        max_time=5_000_000.0, stop_when=cluster.await_specs(len(statuses))
    )
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    cluster.run_for(300.0)
    assert_clean(cluster, strict_wal=False)
    return cluster, result, statuses


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_symmetric_race(protocol):
    cluster, result, _ = run_schedule(protocol, symmetric_race())
    assert result.incomplete_specs == 0
    # Every racing pair leaves exactly one value per key in the end.
    for n in range(6):
        finals = {r.store.read(f"x{n}").value for r in cluster.replicas}
        assert len(finals) == 1


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_write_skew_web(protocol):
    cluster, result, _ = run_schedule(protocol, write_skew_web())
    assert result.incomplete_specs == 0
    # The 1SR checker (asserted in run_schedule) is the point; additionally
    # the serial order must exist.
    assert cluster.recorder.serial_order() is not None


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_opposed_lock_orders(protocol):
    cluster, result, _ = run_schedule(protocol, opposed_lock_orders())
    assert result.incomplete_specs == 0
    if protocol == "p2p":
        # The factory worked: the baseline actually deadlocked/timed out.
        stress = (
            result.metrics.deadlocks_detected
            + result.metrics.aborts_by_reason[AbortReason.TIMEOUT]
        )
        assert stress > 0
    else:
        assert result.metrics.deadlocks_detected == 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_reader_gauntlet(protocol):
    cluster, result, statuses = run_schedule(protocol, reader_gauntlet())
    assert result.incomplete_specs == 0
    assert result.metrics.readonly_abort_count() == 0
    for reader in range(4):
        assert statuses[f"gauntlet{reader}"].committed


def test_per_op_cross_causality_cbp():
    schedule = per_op_cross_causality()
    cluster, result, _ = run_schedule(
        "cbp", schedule, cbp_per_op=True, cbp_heartbeat=15.0
    )
    assert result.incomplete_specs == 0


def test_schedules_are_deterministic():
    assert symmetric_race() == symmetric_race()
    assert write_skew_web() == write_skew_web()


def test_required_objects():
    schedule = symmetric_race(pairs=3)
    assert required_objects(schedule) == 3
