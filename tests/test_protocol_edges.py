"""Edge-case tests across the protocol implementations."""

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec
from tests.conftest import quick_cluster, spec


def all_lock_tables_empty(cluster):
    for replica in cluster.replicas:
        for key in cluster.keys:
            if replica.locks.holders_of(key):
                return False
    return True


def test_rbp_abort_releases_locks_everywhere(make_spec):
    cluster = quick_cluster("rbp", retry_aborted=False)
    cluster.submit(make_spec("a", 0, writes={"x0": 1, "x1": 1}), at=0.0)
    cluster.submit(make_spec("b", 1, writes={"x0": 2, "x1": 2}), at=0.1)
    result = cluster.run()
    assert result.ok
    cluster.run_for(100.0)  # let the final abort broadcast reach everyone
    assert all_lock_tables_empty(cluster)


def test_cbp_abort_releases_locks_everywhere(make_spec):
    cluster = quick_cluster("cbp", retry_aborted=False)
    cluster.submit(make_spec("a", 0, writes={"x0": 1}), at=0.0)
    cluster.submit(make_spec("b", 1, writes={"x0": 2}), at=0.1)
    result = cluster.run()
    assert result.ok
    cluster.run_for(100.0)
    assert all_lock_tables_empty(cluster)


def test_abp_certification_abort_leaves_no_residue(make_spec):
    cluster = quick_cluster("abp", retry_aborted=False)
    cluster.submit(make_spec("a", 0, reads=["x0"], writes={"x0": 1}), at=0.0)
    cluster.submit(make_spec("b", 1, reads=["x0"], writes={"x0": 2}), at=0.1)
    result = cluster.run()
    assert result.ok
    cluster.run_for(100.0)
    assert all_lock_tables_empty(cluster)
    for replica in cluster.replicas:
        assert replica._live == {}


def test_cbp_duplicate_nacks_cause_single_abort(make_spec):
    """Several sites may NACK the same victim; the client sees exactly one
    abort per attempt."""
    cluster = quick_cluster("cbp", num_sites=5, retry_aborted=False, seed=8)
    a = cluster.submit(make_spec("a", 0, writes={"x0": "a"}), at=0.0)
    b = cluster.submit(make_spec("b", 2, writes={"x0": "b"}), at=0.1)
    result = cluster.run()
    assert result.ok
    # One outcome per attempt, despite multiple NACK broadcasts.
    attempts = a.attempts + b.attempts
    assert result.metrics.commits + result.metrics.aborts == attempts


def test_cbp_heartbeats_suppressed_under_traffic():
    """A busy site does not send null messages: its real traffic carries
    the implicit acknowledgments."""
    cluster = quick_cluster("cbp", num_sites=3, cbp_heartbeat=30.0, seed=9)
    # A steady stream of updates from every site, denser than the
    # heartbeat interval.
    for n in range(30):
        cluster.submit(
            spec(f"t{n}", n % 3, writes={f"x{n % 8}": n}), at=n * 10.0
        )
    result = cluster.run(max_time=100000, stop_when=cluster.await_specs(30))
    nulls = result.messages_by_kind.get("cbp.null", 0)
    writes = result.messages_by_kind.get("cbp.write", 0)
    assert nulls < writes  # suppression worked; mostly real traffic


def test_preempted_reader_retries_and_commits(make_spec):
    """A local reader displaced by a remote write is retried by the client
    and eventually commits."""
    cluster = Cluster(
        ClusterConfig(
            protocol="cbp", num_sites=3, num_objects=8, seed=31, retry_backoff=5.0
        )
    )
    # Stream of remote writers against x0 from site 0...
    for n in range(6):
        cluster.submit(
            spec(f"w{n}", 0, writes={"x0": f"w{n}"}), at=n * 60.0
        )
    # ...while site 1 keeps trying to read x0 and write x1.
    reader = cluster.submit(
        TransactionSpec.make("reader", 1, read_keys=["x0"], writes={"x1": "r"}),
        at=30.0,
    )
    result = cluster.run(max_time=200000, stop_when=cluster.await_specs(7))
    assert result.ok
    assert reader.committed


def test_p2p_prepare_for_unknown_tx_votes_no():
    from repro.baselines.p2p_events import P2pPrepare

    cluster = quick_cluster("p2p")
    replica = cluster.replicas[1]
    replica._on_prepare(0, P2pPrepare("ghost#1"))
    cluster.run_for(10.0)
    # The vote was sent and is negative.
    assert cluster.network.stats.by_kind.get("p2p.vote", 0) == 1


def test_rbp_view_change_mid_round_completes(make_spec):
    """A write round blocked on a crashed site completes when the view
    change removes that site from the acknowledgment set."""
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=4,
            num_objects=8,
            seed=12,
            enable_failure_detector=True,
            fd_interval=15.0,
            fd_timeout=60.0,
        )
    )
    # Crash site 3 just before the transaction's write broadcast reaches it.
    cluster.crash_site(3, at=0.2)
    t = cluster.submit(make_spec("t", 0, writes={"x0": 1}), at=0.0)
    result = cluster.run(max_time=50000)
    assert result.ok
    assert t.committed
    # The commit had to wait for the failure detector + view change.
    assert result.metrics.commit_latencies()[0] > 50.0


def test_same_key_read_and_write_single_tx(make_spec):
    """Read-modify-write on one key: the X-at-read-time discipline."""
    for protocol in ("rbp", "cbp", "abp", "p2p"):
        cluster = quick_cluster(protocol)
        cluster.submit(make_spec("t", 0, reads=["x0"], writes={"x0": "new"}))
        result = cluster.run()
        assert result.ok, protocol
        record = cluster.recorder.held()[0]
        assert dict(record.reads) == {"x0": 0}
        assert dict(record.writes) == {"x0": 1}


def test_many_keys_transaction(make_spec):
    """A wide transaction (16 keys) exercises batching paths."""
    writes = {f"x{i}": i for i in range(16)}
    for protocol in ("rbp", "cbp", "abp"):
        cluster = quick_cluster(protocol, num_objects=16)
        cluster.submit(make_spec("wide", 0, reads=list(writes), writes=writes))
        result = cluster.run()
        assert result.ok, protocol
        for replica in cluster.replicas:
            assert replica.store.read("x15").value == 15


def test_single_site_cluster_degenerates_gracefully(make_spec):
    """n=1: every broadcast is a self-delivery; all protocols still work."""
    for protocol in ("rbp", "cbp", "abp", "p2p"):
        cluster = quick_cluster(protocol, num_sites=1, cbp_heartbeat=5.0)
        cluster.submit(make_spec("t", 0, reads=["x0"], writes={"x0": 1}))
        result = cluster.run(max_time=10000)
        assert result.ok, protocol
        assert result.committed_specs == 1
        assert result.network_stats["sent"] == 0 or protocol == "cbp"
