"""Protocol tests for the point-to-point ROWA + centralized 2PC baseline."""

from repro.baselines.p2p_events import P2pDecision, P2pPrepare, P2pWrite, P2pWriteAck
from repro.core.transaction import AbortReason


def test_single_update_commits_everywhere(cluster_factory, make_spec):
    cluster = cluster_factory("p2p")
    cluster.submit(make_spec("t1", 0, reads=["x0"], writes={"x0": 7}))
    result = cluster.run()
    assert result.ok and result.committed_specs == 1
    for replica in cluster.replicas:
        assert replica.store.read("x0").value == 7


def test_message_pattern_centralized_2pc(cluster_factory, make_spec):
    """One write, N=3: (N-1) writes + (N-1) acks + (N-1) prepare +
    (N-1) votes + (N-1) decisions — linear, not quadratic like RBP votes."""
    cluster = cluster_factory("p2p", num_sites=3, retry_aborted=False)
    cluster.submit(make_spec("t1", 0, writes={"x0": 1}))
    result = cluster.run()
    kinds = result.messages_by_kind
    assert kinds["p2p.write"] == 2
    assert kinds["p2p.write_ack"] == 2
    assert kinds["p2p.prepare"] == 2
    assert kinds["p2p.vote"] == 2
    assert kinds["p2p.decision"] == 2


def test_sequential_conflicting_writers_wait_not_abort(cluster_factory, make_spec):
    """WAIT discipline: a lock conflict queues rather than aborting, so
    two *sequential* conflicting writers both commit with zero aborts."""
    cluster = cluster_factory("p2p", retry_aborted=False)
    cluster.submit(make_spec("w1", 0, writes={"x0": "a"}), at=0.0)
    cluster.submit(make_spec("w2", 1, writes={"x0": "b"}), at=50.0)
    result = cluster.run()
    assert result.ok
    assert result.committed_specs == 2
    assert result.metrics.aborts == 0


def test_truly_concurrent_single_key_writers_cross_deadlock(cluster_factory, make_spec):
    """Two concurrent writers of the same key grab their home replica's
    lock first and then wait for each other's — a *distributed* deadlock
    invisible to local cycle detection, broken only by the write timeout.
    This is the pathology the paper's broadcast protocols eliminate."""
    cluster = cluster_factory(
        "p2p", retry_aborted=True, p2p_write_timeout=100.0
    )
    cluster.submit(make_spec("w1", 0, writes={"x0": "a"}), at=0.0)
    cluster.submit(make_spec("w2", 1, writes={"x0": "b"}), at=0.2)
    result = cluster.run(max_time=100000)
    assert result.ok
    assert result.committed_specs == 2  # retries get through
    assert result.metrics.aborts_by_reason[AbortReason.TIMEOUT] >= 1


def test_distributed_deadlock_resolved(cluster_factory, make_spec):
    """Two transactions writing {x0, x1} in opposite orders from different
    homes: the classic distributed deadlock.  The baseline must detect it
    (cycle check or timeout) and make progress."""
    cluster = cluster_factory(
        "p2p", retry_aborted=True, p2p_write_timeout=150.0, p2p_deadlock_interval=5.0
    )
    # spec writes are sorted by key, so force opposite orders via key names
    # chosen to sort differently per transaction.
    cluster.submit(make_spec("a", 0, writes={"x0": 1, "x1": 1}), at=0.0)
    cluster.submit(make_spec("b", 1, writes={"x1": 2, "x0": 2}), at=0.5)
    result = cluster.run(max_time=100000)
    assert result.ok
    assert result.committed_specs == 2


def test_local_deadlock_detection_counts(cluster_factory):
    from repro.workload import WorkloadConfig
    from repro.workload.runner import run_standard_mix

    cluster = cluster_factory(
        "p2p", num_objects=4, seed=2, p2p_write_timeout=150.0, p2p_deadlock_interval=5.0
    )
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=4, num_sites=3, read_ops=2, write_ops=2, zipf_theta=0.9),
        transactions=25,
        mpl=6,
        max_time=500000,
    )
    assert result.ok
    # Under this contention the WAIT baseline hits deadlocks/timeouts.
    deadlockish = (
        result.metrics.deadlocks_detected
        + result.metrics.aborts_by_reason[AbortReason.TIMEOUT]
        + result.metrics.aborts_by_reason[AbortReason.DEADLOCK]
    )
    assert deadlockish > 0


def test_read_only_never_aborts(cluster_factory, make_spec):
    cluster = cluster_factory("p2p")
    r1 = cluster.submit(make_spec("r1", 1, reads=["x0", "x1", "x2"]))
    result = cluster.run()
    assert r1.committed
    assert result.metrics.readonly_abort_count() == 0


def test_incremental_read_locks_wait_for_writers(cluster_factory, make_spec):
    cluster = cluster_factory("p2p", retry_aborted=False)
    cluster.submit(make_spec("w", 0, writes={"x0": "v"}), at=0.0)
    cluster.submit(make_spec("r", 1, reads=["x0"]), at=0.5)
    result = cluster.run()
    assert result.ok and result.committed_specs == 2
    # The reader saw either the old or the new value, consistently 1SR.


def test_view_change_completes_a_tally_missing_a_crashed_voter(
    cluster_factory, make_spec
):
    """Regression: the 2PC tally waits on *all* view members, and a voter
    that crashes after receiving the prepare never answers.  Before the
    ``on_view_change`` re-check the home wedged forever on that tally
    (surfaced by the E13 churn soak at p2p/20 sites/seed 3)."""
    cluster = cluster_factory(
        "p2p",
        num_sites=4,
        enable_failure_detector=True,
        fd_interval=20.0,
        fd_timeout=80.0,
    )
    silent = cluster.replicas[3]
    silent._handlers[P2pPrepare] = lambda src, prepare: None  # dies holding its vote
    t1 = cluster.submit(make_spec("T1", 0, writes={"x0": 1}))
    cluster.crash_site(3, at=30.0)  # write round done, vote outstanding
    result = cluster.run(max_time=20_000.0)
    assert t1.committed
    assert result.serialization.ok


def test_view_change_completes_a_write_round_missing_a_crashed_acker(
    cluster_factory, make_spec
):
    """Same wedge, one phase earlier: the ROWA write round waits on every
    view member's ack.  The eviction of the silent member must let the
    round proceed with the survivors' acks."""
    cluster = cluster_factory(
        "p2p",
        num_sites=4,
        enable_failure_detector=True,
        fd_interval=20.0,
        fd_timeout=80.0,
        # Keep the write timeout out of the picture: this test pins the
        # view-change path, not the timeout/retry fallback.
        p2p_write_timeout=60_000.0,
    )
    deaf = cluster.replicas[3]
    deaf._handlers[P2pWrite] = lambda src, write: None  # never acks
    t1 = cluster.submit(make_spec("T1", 0, writes={"x0": 1}))
    cluster.crash_site(3, at=30.0)
    result = cluster.run(max_time=20_000.0)
    assert t1.committed
    assert result.serialization.ok


def test_fanout_by_multicast_equals_the_per_destination_send_loop(monkeypatch):
    """Sending a write, prepare or decision with one ``router.multicast``
    must be the run the historical ``router.send`` loop produced: the same
    loss and latency draws in the same order, so the same trace, delivery
    times, network accounting and stores -- on passthrough, ARQ and batched
    links, through a commit, a deadlock victim, a write timeout and the
    re-prepare of a view change."""
    import dataclasses
    import random

    from repro.core.cluster import Cluster, ClusterConfig
    from repro.core.transaction import TransactionSpec
    from repro.net.router import ChannelRouter

    reprepared = []

    def multicast_by_send_loop(self, dsts, channel, payload, kind=None, include_self=False):
        if kind == "p2p.prepare" and dsts and self.site not in dsts:
            reprepared.append((self.site, payload.tx))  # only the missing voters
        for dst in dsts:
            if dst != self.site or include_self:
                self.send(dst, channel, payload, kind)

    def run(**links):
        cluster = Cluster(ClusterConfig(
            protocol="p2p", num_sites=5, num_objects=10, seed=6, trace=True,
            enable_failure_detector=True, fd_interval=20.0, fd_timeout=80.0,
            p2p_write_timeout=40.0, p2p_deadlock_interval=5.0, **links,
        ))
        if not links:
            cluster.network.loss_rate = 0.3  # passthrough: lossy after the transports bound
        deliveries = []
        cluster.network.on_deliver = lambda *delivery: deliveries.append(delivery)
        rng = random.Random(6)
        for n in range(40):  # ten keys, read one and write two: upgrades collide
            first, second = rng.sample(range(10), 2)
            cluster.submit(
                TransactionSpec.make(
                    f"t{n}", rng.randrange(4), read_keys=[f"x{first}"],
                    writes={f"x{first}": n, f"x{second}": n},
                ),
                at=8.0 * n,
            )
        cluster.crash_site(4, at=50.0)
        # Late enough that a 2PC round is open when the joiner's view
        # installs: the joiner withholds its acks until its snapshot lands.
        cluster.recover_site(4, at=300.0)
        cluster.run(max_time=1500.0)
        return (
            cluster.trace.records,
            deliveries,
            dataclasses.asdict(cluster.network.stats),
            [replica.store.digest() for replica in cluster.replicas],
        )

    for links in ({}, {"loss_rate": 0.3}, {"batching": 1.0}):
        by_multicast = run(**links)
        with monkeypatch.context() as patch:
            patch.setattr(ChannelRouter, "multicast", multicast_by_send_loop)
            by_send_loop = run(**links)
        assert by_multicast == by_send_loop, links
        trace, _, stats, _ = by_multicast
        kinds = {record.kind for record in trace}
        if links:  # reliable links: every n-way send of the protocol ran
            assert {"tx.commit", "p2p.deadlock", "p2p.timeout"} <= kinds and reprepared, links
        else:  # 30 % loss and nothing repairs it: no round completes
            assert "p2p.timeout" in kinds and stats["dropped_loss"] > 0
        reprepared.clear()


def test_one_sizing_per_fanout_not_per_datagram(cluster_factory, make_spec, monkeypatch):
    """Two writes at eight sites put 49 datagrams on the wire per commit;
    the four fan-outs (write, write, prepare, decision) are sized once
    each, so only the 14 write acks and 7 votes add a sizing of their own."""
    import repro.net.network as network_module

    sized = []
    wire_size = network_module.wire_size

    def counting_wire_size(payload):
        sized.append(payload)
        return wire_size(payload)

    monkeypatch.setattr(network_module, "wire_size", counting_wire_size)
    cluster = cluster_factory("p2p", num_sites=8)
    for n in range(3):
        writes = {f"x{2 * n}": n, f"x{2 * n + 1}": n}
        cluster.submit(make_spec(f"t{n}", n, writes=writes), at=50.0 * n)
    result = cluster.run()
    assert result.ok and result.committed_specs == 3
    assert cluster.network.stats.sent == 3 * 49
    assert len(sized) == 3 * 25


class _Outbox:
    """Stands in for a replica's router: records what it sends."""

    def __init__(self):
        self.sent = []

    def send(self, dst, channel, payload, kind):
        self.sent.append((dst, payload))

    def multicast(self, dsts, channel, payload, kind):
        self.sent.extend((dst, payload) for dst in dsts)


def test_tombstone_refuses_the_homes_late_write_until_the_homes_decision(cluster_factory):
    """Site 1's deadlock resolution aborts T, homed at site 0, and its
    decision reaches site 2 before T's write does: the late write draws a
    negative ack, and only the home's own decision — its last message
    naming T down the FIFO link — retires site 2's tombstone."""
    cohort = cluster_factory("p2p").replicas[2]
    cohort.router = _Outbox()
    cohort._on_decision(1, P2pDecision("T#1", False))
    assert cohort._ended("T#1")
    cohort._on_write(0, P2pWrite("T#1", "x0", 5, (0.0, 0, "T")))
    assert cohort.router.sent == [(0, P2pWriteAck("T#1", "x0", 2, False))]
    assert "T#1" not in cohort._live and not cohort.locks.holders_of("x0")
    cohort._on_decision(1, P2pDecision("T#1", False))  # a second resolver's copy
    assert cohort._ended("T#1")
    cohort._on_decision(0, P2pDecision("T#1", False))
    # Read the book itself: a lookup through ``_ended`` after the
    # retirement is one no message makes, which the tombstone oracle
    # (``-p tests.shadow_tombstones``) would count against the old sets.
    assert not cohort._tombstones


def test_a_commit_after_a_local_purge_stays_aborted_and_retires_the_tombstone(
    cluster_factory,
):
    """A cohort purged U on another site's deadlock decision after granting
    its write; the home's commit decision, crossing that abort, is not
    applied here (as before tombstones could retire), and is the home's
    last word on U.  A commit decided by the home leaves no tombstone."""
    cohort = cluster_factory("p2p").replicas[2]
    cohort.router = _Outbox()
    cohort._on_write(0, P2pWrite("U#1", "x1", 7, (0.0, 0, "U")))
    cohort._on_decision(1, P2pDecision("U#1", False))
    assert cohort._tombstones == {"U#1": 0}
    cohort._on_decision(0, P2pDecision("U#1", True))
    assert cohort.store.read("x1").version == 0
    assert not cohort._tombstones
    cohort._on_write(0, P2pWrite("V#1", "x2", 8, (0.0, 0, "V")))
    cohort._on_decision(0, P2pDecision("V#1", True))
    assert cohort.store.read("x2").value == 8
    assert not cohort._tombstones
