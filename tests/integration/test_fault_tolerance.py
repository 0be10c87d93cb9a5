"""Integration: crashes, partitions, views and recovery (experiment E9's
assertions as tests)."""

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import AbortReason, TransactionSpec


def fault_config(protocol, num_sites=5, **overrides):
    defaults = dict(
        protocol=protocol,
        num_sites=num_sites,
        num_objects=16,
        seed=13,
        enable_failure_detector=True,
        fd_interval=20.0,
        fd_timeout=80.0,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def spec(name, home, key, value=None):
    if value is None:
        return TransactionSpec.make(name, home, read_keys=[key])
    return TransactionSpec.make(name, home, read_keys=[key], writes={key: value})


@pytest.mark.parametrize("protocol", ["rbp", "cbp"])
def test_majority_continues_after_crash(protocol):
    cluster = Cluster(fault_config(protocol))
    cluster.crash_site(4, at=50.0)
    for n in range(8):
        cluster.submit(spec(f"t{n}", n % 4, f"x{n}", n), at=500.0 + n * 50.0)
    result = cluster.run(max_time=100000)
    assert result.ok
    assert result.committed_specs == 8


def test_abp_survives_non_sequencer_crash():
    cluster = Cluster(fault_config("abp"))
    cluster.crash_site(3, at=50.0)  # site 0 (the sequencer) stays up
    for n in range(6):
        cluster.submit(spec(f"t{n}", n % 3, f"x{n}", n), at=500.0 + n * 50.0)
    result = cluster.run(max_time=100000)
    assert result.ok
    assert result.committed_specs == 6


@pytest.mark.parametrize("protocol", ["rbp", "cbp"])
def test_crash_mid_transaction_does_not_corrupt(protocol):
    """Crashing the initiator while its transaction is in flight must leave
    the survivors consistent: the transaction either committed everywhere
    (among survivors) or nowhere."""
    cluster = Cluster(fault_config(protocol, retry_aborted=False))
    cluster.submit(spec("inflight", 4, "x0", "risky"), at=100.0)
    cluster.crash_site(4, at=100.4)  # mid-protocol
    for n in range(4):
        cluster.submit(spec(f"after{n}", n, f"x{n + 1}", n), at=1000.0 + n * 50.0)
    result = cluster.run(max_time=100000)
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    survivors = [r for r in cluster.replicas if r.alive]
    values = {r.store.read("x0").value for r in survivors}
    assert len(values) == 1  # all-or-nothing among survivors


def test_minority_partition_blocks_updates_but_not_reads():
    cluster = Cluster(fault_config("rbp", retry_aborted=False))
    cluster.engine.schedule_at(10.0, cluster.partition, [[0, 1, 2], [3, 4]])
    maj_upd = cluster.submit(spec("maj_upd", 0, "x0", 1), at=500.0)
    min_upd = cluster.submit(spec("min_upd", 3, "x1", 2), at=500.0)
    min_read = cluster.submit(spec("min_read", 4, "x2"), at=500.0)
    result = cluster.run(max_time=50000)
    assert maj_upd.committed
    assert min_upd.last_outcome is AbortReason.NO_QUORUM
    assert min_read.committed


def test_heal_rejoins_and_state_transfers():
    cluster = Cluster(fault_config("rbp", retry_aborted=False))
    cluster.engine.schedule_at(10.0, cluster.partition, [[0, 1, 2], [3, 4]])
    cluster.submit(spec("while_split", 1, "x0", "majority-write"), at=500.0)
    cluster.run(max_time=20000)
    cluster.heal_partition()
    after_heal = cluster.submit(
        spec("after_heal", 3, "x1", "rejoined"), at=cluster.engine.now + 1000.0
    )
    result = cluster.run(max_time=100000)
    assert result.ok
    assert after_heal.committed
    for replica in cluster.replicas:
        assert replica.store.read("x0").value == "majority-write"


def test_crash_recover_cycle_converges():
    cluster = Cluster(fault_config("rbp"))
    cluster.crash_site(2, at=50.0)
    cluster.submit(spec("during", 0, "x0", "v1"), at=500.0)
    cluster.run(max_time=20000)
    cluster.recover_site(2)
    cluster.submit(spec("post", 2, "x1", "v2"), at=cluster.engine.now + 1000.0)
    result = cluster.run(max_time=100000)
    assert result.ok
    assert result.committed_specs == 2
    assert cluster.replicas[2].store.read("x0").value == "v1"


def test_wal_replay_matches_store_after_run():
    """Every replica's WAL, replayed from scratch, reproduces its store —
    even after faults (the recovery fidelity check)."""
    from repro.db.storage import VersionedStore

    cluster = Cluster(fault_config("rbp"))
    for n in range(6):
        cluster.submit(spec(f"t{n}", n % 5, f"x{n}", n), at=100.0 + n * 100.0)
    result = cluster.run(max_time=100000)
    assert result.ok
    for replica in cluster.replicas:
        fresh = VersionedStore()
        fresh.initialize(cluster.keys)
        replica.wal.replay(fresh)
        assert fresh.digest() == replica.store.digest()


def test_abp_sequencer_takeover_when_quiesced():
    """Crashing the sequencer between transactions: the next-lowest site
    takes over the ordering role and later commits proceed (the takeover
    is best-effort under in-flight traffic — see DESIGN.md — but must be
    seamless when the order is quiescent)."""
    cluster = Cluster(
        fault_config("abp", num_sites=4, relay=True, fd_interval=15.0, fd_timeout=60.0)
    )
    cluster.submit(spec("pre", 1, "x0", "before"), at=100.0)
    cluster.run(max_time=2000)
    cluster.crash_site(0)  # the sequencer
    post = cluster.submit(
        spec("post", 2, "x1", "after"), at=cluster.engine.now + 500.0
    )
    result = cluster.run(max_time=100000, stop_when=cluster.await_specs(2))
    assert result.ok
    assert post.committed
    # The new sequencer is the lowest surviving member.
    survivors = [t for t in cluster.totals if cluster.replicas[t.site].alive]
    assert any(t.is_sequencer and t.site == 1 for t in survivors)


def test_abp_sequencer_takeover_with_forwards_in_flight():
    """The sequencer crashes as three homes forward their commit requests
    to it (two from one home): none is relayed before the crash.  At the
    view change each home re-forwards its own to the new sequencer, and
    every survivor certifies each request once, in one order."""
    cluster = Cluster(
        fault_config("abp", num_sites=4, relay=True, fd_interval=15.0, fd_timeout=60.0)
    )
    cluster.submit(spec("pre", 1, "x0", "before"), at=100.0)
    cluster.run(max_time=2000)
    crash_at = cluster.engine.now + 100.0
    cluster.crash_site(0, at=crash_at)
    specs = [
        cluster.submit(spec(name, home, key, name), at=crash_at)
        for name, home, key in (("a", 1, "x1"), ("b", 2, "x2"), ("c", 2, "x3"), ("d", 3, "x4"))
    ]
    certified = {site: [] for site in (1, 2, 3)}
    for site, order in certified.items():
        replica = cluster.replicas[site]
        certify = replica._certify
        replica._certify = lambda request, certify=certify, order=order: (
            order.append(request.tx), certify(request)
        )
    result = cluster.run(max_time=100_000, stop_when=cluster.await_specs(5))
    assert result.ok
    assert all(status.committed for status in specs)
    orders = list(certified.values())
    assert len(orders[0]) == len(set(orders[0])) == 4
    assert all(order == orders[0] for order in orders)
    assert [cluster.totals[site].epoch for site in (1, 2, 3)] == [1, 1, 1]
