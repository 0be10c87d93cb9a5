"""In-doubt decision-query termination under partitions and crashes.

Deterministic scenarios exercise the RBP decision-query subsystem
(PROTOCOLS.md): a cohort that voted YES and lost sight of its home must
not guess — it queries the surviving members' decision logs and adopts
the first authoritative outcome, falling back to presumed abort only when
the answers *prove* no commit tally can exist anywhere (enough provable
never-voters to block every quorum, or the whole cluster answering with
nothing).  When every answerer is itself an in-doubt YES voter, the query
parks: a departed member may hold the commit, and its durable decision
log settles the question when it rejoins.

All timings are derived, not tuned: with ``fd_interval=20`` /
``fd_timeout=80`` a site silent since *t* is suspected at the first
detector tick after *t + 80*, and the view change lands one fixed-latency
hop later.  The transport is passthrough at ``loss_rate == 0`` (no ARQ),
so a datagram dropped by a partition is lost for good — which is exactly
how the scenarios strand votes on one side of a split.
"""

from repro.analysis.audit import assert_clean
from repro.core.cluster import Cluster, ClusterConfig
from repro.core.reliable_protocol import ReliableBroadcastReplica
from repro.core.transaction import AbortReason, TransactionSpec
from repro.net.latency import LatencyModel
from repro.sim.faults import FaultSchedule


class LinkLatency(LatencyModel):
    """Fixed delay with per-(src, dst) overrides, for lagging-link tests."""

    def __init__(self, default: float = 1.0, slow: dict | None = None):
        self.default = default
        self.slow = dict(slow or {})

    def sample(self, rng, src, dst):
        return self.slow.get((src, dst), self.default)

    def mean(self):
        return self.default


def in_doubt_cluster(**overrides):
    defaults = dict(
        protocol="rbp",
        num_sites=5,
        num_objects=8,
        seed=11,
        enable_failure_detector=True,
        fd_interval=20.0,
        fd_timeout=80.0,
        # No eager relay: a vote stranded on a slow or partitioned link must
        # stay stranded, or the scenarios degenerate into the happy path.
        relay=False,
        trace=True,
        latency=LinkLatency(1.0),
    )
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def update(name, home, key, value):
    return TransactionSpec.make(name, home, read_keys=[key], writes={key: value})


def assert_no_locks(cluster):
    for replica in cluster.replicas:
        if not replica.alive:
            continue
        for key in replica.store.keys():
            holders = replica.locks.holders_of(key)
            assert not holders, f"site {replica.site}: {key} held by {holders}"


def test_home_crash_after_prepare_resolved_by_query_commit():
    """The home crashes after the unanimous vote: one cohort misses a vote
    (slow link) and goes in doubt at the view change; the survivors answer
    its decision query from their logs and it adopts the commit — no
    presumed abort, locks released, no blocked tail for later writers."""
    # Link 3 -> 2 lags 180ms: site 2's tally is missing 3's vote when the
    # home (4) crashes, so only site 2 becomes in-doubt.
    cluster = in_doubt_cluster(latency=LinkLatency(1.0, slow={(3, 2): 180.0}))
    FaultSchedule(cluster).crash(4, at=110.0)
    t = cluster.submit(update("T", 4, "x0", 1), at=100.0)
    # Same-key follow-up homed elsewhere: blocks forever if site 2 leaks
    # the exclusive lock.
    t2 = cluster.submit(update("T2", 0, "x0", 2), at=400.0)
    result = cluster.run(max_time=50_000.0, stop_when=cluster.await_specs(2))

    assert result.ok
    assert t.committed  # home answered before crashing
    assert t2.committed  # no blocked-transaction tail
    metrics = cluster.metrics
    assert metrics.rbp_in_doubt == 1
    assert metrics.rbp_decision_queries >= 1
    assert metrics.rbp_resolved_by_query_commit == 1
    assert metrics.rbp_resolved_by_presumption == 0
    assert metrics.rbp_resolved_by_query_abort == 0

    # Every site converged on the commit; the querier adopted it within one
    # query timeout of entering in-doubt.
    in_doubt = cluster.trace.filter("rbp.in_doubt", tx="T#1")
    adopted = cluster.trace.filter("rbp.decision_adopted", tx="T#1", outcome="commit")
    assert len(in_doubt) == 1 and len(adopted) == 1
    assert adopted[0].time - in_doubt[0].time <= ReliableBroadcastReplica.decision_query_timeout
    assert_no_locks(cluster)
    assert_clean(cluster)


def test_home_isolated_in_minority_parks_then_adopts_commit():
    """The home is partitioned into a singleton view with a *prepared*
    transaction (commit request and votes already broadcast).  The majority
    commits from the votes it holds; the home must not contradict that with
    a unilateral NO_QUORUM abort — it parks in doubt and adopts the commit
    at the heal, so the client sees the truth."""
    cluster = in_doubt_cluster()
    # t=100: submit at home 4.  Writes replicate and ack by t=102; the
    # commit request and the home's own vote land everywhere at t=103.  The
    # partition at t=103.5 then strands the cohorts' votes (sent t=103,
    # due t=104) on the majority side: they commit, the home cannot.
    FaultSchedule(cluster).partition([[0, 1, 2, 3], [4]], at=103.5).heal(at=1000.0)
    t = cluster.submit(update("T", 4, "x0", 1), at=100.0)
    t2 = cluster.submit(update("T2", 0, "x0", 2), at=2000.0)
    result = cluster.run(max_time=100_000.0, stop_when=cluster.await_specs(2))

    assert result.ok
    status = t
    # The regression this guards: the isolated home used to answer the
    # client NO_QUORUM while the majority committed the transaction.
    assert status.committed
    assert status.last_outcome is not AbortReason.NO_QUORUM
    assert t2.committed
    assert cluster.metrics.rbp_in_doubt >= 1
    # The home's query ran against an empty singleton view and parked until
    # the heal delivered a view with members that knew the outcome.
    assert cluster.trace.count("rbp.query_parked") >= 1
    assert cluster.trace.filter("rbp.in_doubt", tx="T#1")
    assert_no_locks(cluster)
    assert_clean(cluster)


def test_query_answered_by_lagging_member_after_retries():
    """Three cohorts go in doubt at once and the only member that knows the
    outcome answers over a 180ms-slow link — slower than the query timeout,
    so retries fire first.  All three must keep re-asking (not presume),
    ignore the straggling votes that arrive mid-query (the query path has
    taken over), and adopt the commit when the slow answer lands."""
    # All of site 3's outbound links to 0, 1, 2 lag; everything else is
    # fast.  The early detector transient (0 suspects 3 until its first
    # slow heartbeat lands at t=200) settles before the workload starts.
    slow = {(3, 0): 180.0, (3, 1): 180.0, (3, 2): 180.0}
    cluster = in_doubt_cluster(latency=LinkLatency(1.0, slow=slow))
    FaultSchedule(cluster).crash(4, at=258.0)
    # t=250: submit at home 4.  Votes cross by t=254 except 3's votes to
    # 0, 1, 2 (due t=433).  The home and site 3 reach the full tally and
    # commit at t=254; the crash at t=258 leaves 0, 1, 2 in doubt.
    t = cluster.submit(update("T", 4, "x1", 1), at=250.0)
    t2 = cluster.submit(update("T2", 0, "x1", 2), at=2000.0)
    result = cluster.run(max_time=100_000.0, stop_when=cluster.await_specs(2))

    assert result.ok
    assert t.committed
    assert t2.committed
    metrics = cluster.metrics
    assert metrics.rbp_in_doubt == 3
    # Site 3's answers (180ms) outlive the first query timeout (60ms):
    # every querier retried at least once before the answer landed.
    assert metrics.rbp_decision_queries >= 6
    assert metrics.rbp_resolved_by_query_commit == 3
    assert metrics.rbp_resolved_by_presumption == 0

    # The straggling votes from site 3 arrived (t=433) while the queries
    # were open; the renounced vote path must not have decided — the
    # resolutions all came through adopted decisions.
    assert len(cluster.trace.filter("rbp.decision_adopted", outcome="commit")) == 3
    for record in cluster.trace.filter("rbp.in_doubt", tx="T#1"):
        adopted = [
            r
            for r in cluster.trace.filter(
                "rbp.decision_adopted", tx="T#1", outcome="commit"
            )
            if r.source == record.source
        ]
        assert adopted, f"{record.source} never adopted the outcome"
        assert (
            adopted[0].time - record.time
            <= 4 * ReliableBroadcastReplica.decision_query_timeout
        )
    assert_no_locks(cluster)
    assert_clean(cluster)


def test_total_home_loss_falls_back_to_presumed_abort():
    """The home crashes undecided inside a transient partition, taking every
    copy of the outcome with it: its commit request reached exactly one
    cohort, whose YES vote reached nobody.  That cohort's decision query
    finds a full quorum of members that never saw the transaction — the
    provable-no-commit case — and only then presumes abort."""
    cluster = in_doubt_cluster()
    # t=100: submit at home 4; writes buffer (and lock) everywhere by
    # t=101.  The partition at t=102.5 lets the commit request + home vote
    # (sent t=102) reach only site 2; site 2's vote (sent t=103) reaches
    # nobody.  The home crashes undecided; the heal at t=115 is shorter
    # than fd_timeout, so only the crash causes a view change.
    FaultSchedule(cluster).partition([[2, 4], [0, 1, 3]], at=102.5).heal(
        at=115.0
    ).crash(4, at=106.0)
    t = cluster.submit(update("T", 4, "x0", 1), at=100.0)
    # Same key again: with the old silent wait, site 2's exclusive lock
    # would pin this until the orphan watchdog (t>=1101); the query path
    # frees it within a few hops of the view change (~t=203).
    t2 = cluster.submit(update("T2", 0, "x0", 2), at=400.0)
    result = cluster.run(max_time=50_000.0, stop_when=cluster.await_specs(2))

    assert result.ok
    status = t
    assert status.final and not status.committed
    assert status.last_outcome is AbortReason.SITE_FAILURE  # crashed home
    assert t2.committed
    metrics = cluster.metrics
    assert metrics.rbp_in_doubt == 1
    assert metrics.rbp_resolved_by_presumption == 1
    assert metrics.rbp_resolved_by_query_commit == 0
    assert metrics.rbp_resolved_by_query_abort == 0
    # The non-voting majority dropped the orphaned write at the view change.
    assert cluster.trace.count("rbp.drop_orphan") >= 1

    # The presumption freed the lock long before the watchdog would have.
    adopted = cluster.trace.filter("rbp.presume_abort", tx="T#1")
    assert adopted and all(r.time < 1000.0 for r in adopted)
    assert_no_locks(cluster)
    assert_clean(cluster)


def test_all_in_doubt_survivors_park_until_committer_recovers():
    """The only sites that learned the outcome — the home and the one
    cohort whose tally completed — both crash right after committing.  The
    surviving quorum is made entirely of in-doubt YES voters: nobody can
    *prove* no-commit, so presuming abort would contradict the crashed
    committer's history.  The survivors must park instead, and adopt the
    commit from the committer's durable decision log when it rejoins."""
    # Site 3's outbound links to 0, 1, 2 lag 180ms, so 0, 1, 2 never
    # assemble the full tally before the crashes.  The home (4) and site 3
    # both commit at t=254; 4 crashes at t=258, 3 at t=256.
    slow = {(3, 0): 180.0, (3, 1): 180.0, (3, 2): 180.0}
    cluster = in_doubt_cluster(latency=LinkLatency(1.0, slow=slow))
    FaultSchedule(cluster).crash(3, at=256.0).crash(4, at=258.0).recover(3, at=3000.0)
    t = cluster.submit(update("T", 4, "x1", 1), at=250.0)
    # Same key, submitted after the recovery settles: proves the adopted
    # commit released the exclusive locks.
    t2 = cluster.submit(update("T2", 0, "x1", 2), at=4000.0)
    result = cluster.run(max_time=100_000.0, stop_when=cluster.await_specs(2))

    assert result.ok
    assert t.committed  # home answered before crashing
    assert t2.committed
    metrics = cluster.metrics
    assert metrics.rbp_in_doubt == 3
    # The regression this guards: a full quorum of unknown answers used to
    # presume abort even though every answerer was an in-doubt YES voter
    # and the departed committer held the commit — 1SR divergence.
    assert metrics.rbp_resolved_by_presumption == 0
    assert metrics.rbp_resolved_by_query_abort == 0
    assert metrics.rbp_resolved_by_query_commit == 3
    # The queries parked on the all-YES answer set (no provable no-commit)
    # rather than exhausting retries forever.
    assert cluster.trace.filter("rbp.query_parked", reason="in_doubt_quorum")

    # Every resolution waited for the committer's return at t=3000: the
    # answers came from its durable decision log, nothing guessed earlier.
    adopted = cluster.trace.filter("rbp.decision_adopted", tx="T#1", outcome="commit")
    assert len(adopted) == 3
    assert all(r.time > 3000.0 for r in adopted)
    assert_no_locks(cluster)
    assert_clean(cluster)


def test_vote_watchdog_recovers_home_from_transient_vote_loss():
    """A transient partition (healed well inside the detector timeout, so
    no view ever changes) swallows every cohort vote on its way back to the
    home.  The cohorts hold the full tally and commit; the home's tally is
    stalled forever and, before the vote-phase watchdog existed, the client
    was never answered.  The watchdog re-broadcasts the commit request and
    the cohorts' re-sent (decided) votes complete the home's tally."""
    cluster = in_doubt_cluster()
    # t=100: submit at home 4.  Writes ack by t=102; the commit request and
    # the home's vote land everywhere by t=103.  The partition at t=103.5
    # drops the cohorts' votes (sent t=103, due t=104) toward the home;
    # cohorts 0-3 exchange them and commit at t=104.  The heal at t=150
    # keeps every heartbeat gap under fd_timeout: no view change ever.
    FaultSchedule(cluster).partition([[4], [0, 1, 2, 3]], at=103.5).heal(at=150.0)
    t = cluster.submit(update("T", 4, "x0", 1), at=100.0)
    t2 = cluster.submit(update("T2", 0, "x0", 2), at=2000.0)
    result = cluster.run(max_time=50_000.0, stop_when=cluster.await_specs(2))

    assert result.ok
    status = t
    assert status.committed  # the client was answered
    assert t2.committed
    metrics = cluster.metrics
    assert metrics.rbp_vote_retries >= 1
    assert metrics.rbp_write_timeouts == 0
    # No view change means no in-doubt machinery: the watchdog alone
    # recovered the tally.
    assert metrics.rbp_in_doubt == 0
    assert metrics.rbp_decision_queries == 0
    retries = cluster.trace.filter("rbp.vote_retry", tx="T#1")
    assert retries and retries[0].time > 150.0  # after the heal, by design
    # The home committed within one round-trip of the first retry.
    (commit,) = cluster.trace.filter("tx.commit", tx="T#1")
    assert commit.time <= retries[0].time + 10.0
    assert_no_locks(cluster)
    assert_clean(cluster)


def test_slow_write_rounds_are_not_spuriously_timed_out():
    """The write watchdog times out *quiet periods*, not transactions: a
    three-write transaction over uniformly slow links spends ~1.8s in its
    write phase — longer than ``write_grace`` — but acknowledgments keep
    arriving, so it must commit without ever tripping the watchdog (the
    old once-armed check aborted it at T+write_grace flat)."""
    cluster = in_doubt_cluster(
        latency=LinkLatency(300.0),
        # 300ms links starve an 80ms detector; the watchdogs under test
        # must terminate on their own, without any view change.
        enable_failure_detector=False,
    )
    spec = TransactionSpec.make(
        "T", 4, read_keys=["x0"], writes={"x0": 1, "x1": 2, "x2": 3}
    )
    t = cluster.submit(spec, at=100.0)
    result = cluster.run(max_time=50_000.0, stop_when=cluster.await_specs(1))

    assert result.ok
    assert t.committed
    metrics = cluster.metrics
    assert metrics.rbp_write_timeouts == 0
    assert metrics.rbp_vote_retries == 0
    # Three sequential write rounds (~600ms each) plus 2PC: the commit
    # lands far beyond write_grace, proving the watchdog re-armed through
    # the whole phase instead of firing at T+1000 flat.
    assert metrics.commit_latencies()[0] > 2000.0
    assert_no_locks(cluster)
    assert_clean(cluster)
