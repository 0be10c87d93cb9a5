"""Tests for the shared replica behaviour (read phase, fast paths)."""

from repro.analysis.metrics import MetricsCollector
from repro.core.replica import Replica
from repro.core.transaction import AbortReason, Transaction, TxPhase
from repro.db.locks import LockMode
from repro.db.serialization import HistoryRecorder
from repro.sim.engine import SimulationEngine
from repro.sim.trace import TraceLog


def make_tx(spec, attempt=1, at=0.0):
    return Transaction(spec, attempt, submit_time=at, first_submit_time=at)


def test_read_only_fast_path_records_versions(cluster_factory, make_spec):
    cluster = cluster_factory("rbp")
    cluster.submit(make_spec("r", 0, reads=["x0", "x1"]))
    cluster.run()
    committed = cluster.recorder.held()
    assert len(committed) == 1
    assert committed[0].reads == (("x0", 0), ("x1", 0))
    assert committed[0].writes == ()


def test_reads_observe_committed_values(cluster_factory, make_spec):
    cluster = cluster_factory("rbp")
    cluster.submit(make_spec("w", 0, writes={"x0": "fresh"}), at=0.0)
    cluster.submit(make_spec("r", 1, reads=["x0"]), at=200.0)
    cluster.run()
    record = next(r for r in cluster.recorder.held() if r.tx.startswith("r"))
    assert record.reads == (("x0", 1),)


def test_read_locks_block_until_writer_finishes(cluster_factory, make_spec):
    """A reader whose keys overlap an in-flight writer's locks waits and
    then sees the committed value (never a torn or dirty read)."""
    cluster = cluster_factory("rbp", trace=True)
    cluster.submit(make_spec("w", 0, writes={"x0": "v1", "x1": "v1"}), at=0.0)
    cluster.submit(make_spec("r", 0, reads=["x0", "x1"]), at=1.0)
    cluster.run()
    record = next(r for r in cluster.recorder.held() if r.tx.startswith("r"))
    versions = dict(record.reads)
    # Atomic snapshot: both keys at version 0 (before) or both at 1 (after).
    assert versions in ({"x0": 0, "x1": 0}, {"x0": 1, "x1": 1})


def test_submit_to_crashed_replica_aborts(cluster_factory, make_spec):
    cluster = cluster_factory("rbp", retry_aborted=False)
    cluster.replicas[0].crash()
    cluster.network.set_site_up(0, False)
    t = cluster.submit(make_spec("t", 0, writes={"x0": 1}))
    cluster.run(max_time=100)
    assert t.last_outcome is AbortReason.SITE_FAILURE


def test_install_writes_is_sorted_and_logged(cluster_factory):
    cluster = cluster_factory("rbp")
    replica = cluster.replicas[0]
    versions = replica.install_writes("TX", {"x2": "b", "x0": "a"})
    assert versions == {"x0": 1, "x2": 1}
    committed = replica.wal.committed_transactions()
    assert committed == ["TX"]
    writes = [r for r in replica.wal if r.type.value == "write"]
    assert [r.key for r in writes] == ["x0", "x2"]


def test_preempt_spares_read_only_and_public(cluster_factory, make_spec):
    cluster = cluster_factory("rbp")
    replica = cluster.replicas[0]
    # A read-only transaction holding x0.
    ro = make_tx(make_spec("ro", 0, reads=["x0"]))
    # Drive only the lock acquisition path: mark it local.
    replica.local[ro.tx_id] = ro
    replica.locks.try_acquire(ro.tx_id, "x0", LockMode.SHARED)
    preempted = replica.preempt_local_readers("x0", exempt="other")
    assert preempted == []
    # A public update transaction is also spared.
    up = make_tx(make_spec("up", 0, reads=["x0"], writes={"x1": 1}))
    replica.local[up.tx_id] = up
    replica.public.add(up.tx_id)
    replica.locks.try_acquire(up.tx_id, "x0", LockMode.SHARED)
    assert replica.preempt_local_readers("x0", exempt="other") == []
    # A private update transaction is preempted.
    priv = make_tx(make_spec("priv", 0, reads=["x0"], writes={"x1": 1}))
    priv.phase = TxPhase.READING
    replica.local[priv.tx_id] = priv
    replica.locks.try_acquire(priv.tx_id, "x0", LockMode.SHARED)
    assert replica.preempt_local_readers("x0", exempt="other") == [priv.tx_id]
    assert priv.phase is TxPhase.ABORTED


def test_view_change_updates_membership_and_quorum(cluster_factory):
    cluster = cluster_factory("rbp", num_sites=3)
    replica = cluster.replicas[0]
    replica.on_view_change([0, 1], True)
    assert replica.view_members == [0, 1]
    replica.on_view_change([0], False)
    assert not replica.has_quorum


def test_transaction_lifecycle_without_a_cluster(make_spec):
    """The base lifecycle every protocol shares: a record opened in ``_live``
    leaves, with its locks, through ``_discharge``; a crash drops them all;
    the commit tail finishes the client where its context is live and
    records a provisional writer everywhere else."""
    recorder = HistoryRecorder()
    replica = Replica(SimulationEngine(), 0, 2, recorder, MetricsCollector(), TraceLog())
    replica.residue = {"held": lambda rec: rec}
    replica.store.initialize(["x0", "x1"])

    def open_record(tx_id, key):
        replica._live[tx_id] = {key: 1}
        assert replica.locks.try_acquire(tx_id, key, LockMode.EXCLUSIVE)

    open_record("gone", "x0")
    assert replica.in_flight() == {"held": ["gone"]}
    replica._discharge("gone")
    assert replica.in_flight() == {"held": []} and not replica.locks.holders_of("x0")

    # Home with a live client context: the full commit, read set included.
    tx = make_tx(make_spec("home", 0, reads=["x1"], writes={"x0": 1}))
    replica.local[tx.tx_id] = tx
    tx.reads_observed["x1"] = (None, 0)
    open_record(tx.tx_id, "x0")
    replica._install_commit(tx.tx_id, replica._live[tx.tx_id])
    assert tx.phase is TxPhase.COMMITTED and not replica.local
    # Anywhere else (a cohort, or a home that lost the client in a crash).
    open_record("cohort", "x0")
    replica._install_commit("cohort", replica._live["cohort"])
    home, cohort = recorder.held()
    assert (home.provisional, home.reads, home.writes) == (False, (("x1", 0),), (("x0", 1),))
    assert (cohort.provisional, cohort.reads, cohort.writes) == (True, (), (("x0", 2),))
    assert not replica._live and not replica.locks.holders_of("x0")

    open_record("lost", "x1")
    replica.crash()
    assert not replica._live and not replica.locks.holders_of("x1")
