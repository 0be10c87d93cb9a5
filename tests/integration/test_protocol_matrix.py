"""Integration: every protocol x workload combination upholds the paper's
invariants — one-copy serializability, replica convergence, and the
read-only guarantees."""

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.workload import WorkloadConfig
from repro.workload.runner import run_standard_mix

PROTOCOLS = ["rbp", "cbp", "abp", "p2p"]

WORKLOADS = {
    "low_contention": WorkloadConfig(
        num_objects=64, num_sites=4, read_ops=2, write_ops=2, zipf_theta=0.0
    ),
    "hot_spot": WorkloadConfig(
        num_objects=64, num_sites=4, read_ops=2, write_ops=2, zipf_theta=1.1
    ),
    "read_heavy": WorkloadConfig(
        num_objects=64, num_sites=4, read_ops=4, write_ops=1, readonly_fraction=0.6
    ),
    "write_heavy": WorkloadConfig(
        num_objects=64, num_sites=4, read_ops=1, write_ops=4
    ),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_invariants_hold(protocol, workload_name):
    workload = WORKLOADS[workload_name]
    cluster = Cluster(
        ClusterConfig(protocol=protocol, num_sites=4, num_objects=64, seed=101)
    )
    result = run_standard_mix(cluster, workload, transactions=40, mpl=6, max_time=500000)
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    assert result.incomplete_specs == 0
    # Paper guarantee: read-only transactions never abort, in any protocol.
    assert result.metrics.readonly_abort_count() == 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_final_state_reflects_some_serial_order(protocol):
    """Beyond graph acyclicity: replaying the checker's serial order
    sequentially must land every replica exactly where the cluster did."""
    cluster = Cluster(
        ClusterConfig(protocol=protocol, num_sites=3, num_objects=8, seed=55)
    )
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=8, num_sites=3, read_ops=1, write_ops=2, zipf_theta=0.5),
        transactions=25,
        mpl=4,
        max_time=500000,
    )
    assert result.ok
    order = cluster.recorder.serial_order()
    assert order is not None
    by_tx = {record.tx: record for record in cluster.recorder.held()}
    replay = {}
    values = {}
    for tx in order:
        record = by_tx[tx]
        for key, version in record.writes:
            replay[key] = replay.get(key, 0) + 1
            assert replay[key] == version, (tx, key, version)
    # Final versions must match every live replica.
    for replica in cluster.replicas:
        for key, version in replay.items():
            assert replica.store.read(key).version == version


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_sequential_transactions_apply_in_submission_order(protocol):
    """With one transaction at a time there is no concurrency: all commit,
    no aborts, and the final value is the last writer's."""
    cluster = Cluster(ClusterConfig(protocol=protocol, num_sites=3, seed=1))
    from repro.core.transaction import TransactionSpec

    for n in range(5):
        cluster.submit(
            TransactionSpec.make(f"t{n}", n % 3, read_keys=["x0"], writes={"x0": n}),
            at=n * 400.0,
        )
    result = cluster.run(max_time=500000)
    assert result.ok
    assert result.committed_specs == 5
    assert result.metrics.aborts == 0
    for replica in cluster.replicas:
        assert replica.store.read("x0").value == 4
        assert replica.store.read("x0").version == 5


@pytest.mark.parametrize("protocol", ["rbp", "cbp", "abp"])
def test_broadcast_protocols_never_deadlock(protocol):
    """The three paper protocols never leave a waits-for cycle standing;
    checked directly on every lock table after a contended run."""
    cluster = Cluster(
        ClusterConfig(protocol=protocol, num_sites=4, num_objects=6, seed=77)
    )
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=6, num_sites=4, read_ops=2, write_ops=2, zipf_theta=1.0),
        transactions=40,
        mpl=8,
        max_time=800000,
    )
    assert result.ok
    assert result.metrics.deadlocks_detected == 0
    for replica in cluster.replicas:
        assert replica.locks.find_cycle() is None


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_quiescent_state_audits_clean(protocol):
    """Beyond history correctness: after draining, no site retains lock or
    protocol residue, and every WAL reproduces its store (full audit)."""
    from repro.analysis.audit import assert_clean

    cluster = Cluster(
        ClusterConfig(protocol=protocol, num_sites=4, num_objects=24, seed=303)
    )
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=24, num_sites=4, read_ops=2, write_ops=2,
                       zipf_theta=0.7, readonly_fraction=0.2),
        transactions=30,
        mpl=6,
        max_time=500000,
    )
    assert result.ok
    cluster.run_for(300.0)
    assert_clean(cluster)
