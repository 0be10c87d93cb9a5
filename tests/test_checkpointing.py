"""Tests for WAL checkpointing and local rebuild fidelity."""

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec
from repro.workload import WorkloadConfig
from repro.workload.runner import run_standard_mix


def test_checkpoint_truncates_wal_and_preserves_rebuild():
    cluster = Cluster(ClusterConfig(protocol="rbp", num_sites=3, seed=5))
    for n in range(4):
        cluster.submit(
            TransactionSpec.make(f"t{n}", n % 3, writes={f"x{n}": n}),
            at=n * 100.0,
        )
    cluster.run()
    replica = cluster.replicas[0]
    wal_before = len(replica.wal)
    assert wal_before > 0
    replica.checkpoint()
    assert len(replica.wal) == 0
    # More traffic after the checkpoint...
    cluster.submit(
        TransactionSpec.make("post", 0, writes={"x7": "late"}),
        at=cluster.engine.now + 100.0,
    )
    cluster.run()
    # ...and the rebuild (checkpoint + WAL tail) matches the live store.
    assert replica.rebuild_from_local_log().digest() == replica.store.digest()


def test_rebuild_without_any_checkpoint():
    cluster = Cluster(ClusterConfig(protocol="abp", num_sites=3, seed=6))
    cluster.submit(TransactionSpec.make("t", 1, writes={"x0": 1}))
    cluster.run()
    for replica in cluster.replicas:
        assert replica.rebuild_from_local_log().digest() == replica.store.digest()


def test_periodic_checkpoints_bound_wal_growth():
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=3,
            num_objects=32,
            seed=7,
        )
    )
    for replica in cluster.replicas:
        replica.every(100.0, replica.checkpoint)
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=32, num_sites=3, read_ops=1, write_ops=2),
        transactions=60,
        mpl=3,
    )
    assert result.ok
    for replica in cluster.replicas:
        assert replica.checkpoints_taken >= 2
        # Each committed write costs ~2 records; without checkpoints the
        # log would hold all ~60*2 writes plus begin/commit records.
        assert len(replica.wal) < 120
        assert replica.rebuild_from_local_log().digest() == replica.store.digest()


@pytest.mark.parametrize("protocol", ["rbp", "cbp"])
def test_state_transfer_sets_recovery_point(protocol):
    cluster = Cluster(
        ClusterConfig(
            protocol=protocol,
            num_sites=4,
            seed=8,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            relay=True,
        )
    )
    cluster.crash_site(3, at=10.0)
    cluster.submit(TransactionSpec.make("w", 0, writes={"x0": "v"}), at=500.0)
    cluster.run(max_time=10000)
    cluster.recover_site(3)
    cluster.run_for(3000)
    replica = cluster.replicas[3]
    assert not replica.recovering
    # The received snapshot became the local checkpoint: rebuild matches.
    assert replica.rebuild_from_local_log().digest() == replica.store.digest()
    assert replica.checkpoints_taken >= 1
