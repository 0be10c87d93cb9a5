"""Unit tests for the tally every protocol waits on, and the electorate RBP
judges it against."""

from typing import Optional

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.rbp_events import RbpCommitRequest, RbpVote, RbpWrite
from repro.core.tally import Tally
from repro.core.transaction import Transaction, TransactionSpec, TxPhase

VIEW = frozenset({0, 1, 2})


def test_completes_when_every_view_member_answered():
    tally = Tally()
    for site in (0, 1):
        tally[site] = True
        assert not tally.complete(VIEW)
    # A shrunk view completes without any new answer arriving.
    assert tally.complete(frozenset({0, 1}))
    tally[2] = True
    assert tally.complete(VIEW)
    assert sorted(tally) == [0, 1, 2] and 2 in tally


def test_stale_voter_from_departed_site_does_not_complete():
    """Three answers against a three-member view, one of them from a site
    that left: the count is reached, the view is not covered."""
    tally = Tally.fromkeys([0, 1, 7], True)
    assert len(tally) == len(VIEW)
    assert not tally.complete(VIEW)
    assert tally.missing(VIEW) == [2]
    tally[2] = True
    assert tally.complete(VIEW)  # the straggler does not block either


def rbp_cohort(view: list[int], electorate: int):
    """Site 1 of a four-site RBP cluster in ``view``, holding ``T#1``'s
    write from home 0 and its commit request naming ``electorate``."""
    cluster = Cluster(ClusterConfig(protocol="rbp", num_sites=4))
    replica = cluster.replicas[1]
    replica.on_view_change(view, True)
    replica._on_write(RbpWrite("T#1", 0, "x0", 1, (0.0, 0, "T")))
    replica._on_commit_request(RbpCommitRequest("T#1", 0, electorate))
    return replica


def decided(replica) -> Optional[bool]:
    return replica.termination.decisions.get("T#1")


def test_a_joiners_no_does_not_count_against_a_tally_opened_before_it_joined():
    """Site 3 was down when T#1 went public; it joins mid-2PC, holds none
    of T#1's writes and votes no.  Its vote is not read: the tally waits on
    the three sites T#1 was written to, and commits on their yes."""
    replica = rbp_cohort([0, 1, 2], 0b0111)
    replica.on_view_change([0, 1, 2, 3], True)
    for site, yes in ((3, False), (0, True), (1, True)):
        replica._on_vote(RbpVote("T#1", site, yes))
        assert decided(replica) is None
    replica._on_vote(RbpVote("T#1", 2, True))
    assert decided(replica) is True and "T#1" not in replica._live


def test_a_voter_that_departs_and_rejoins_stays_out_of_the_tally():
    """Site 2 leaves the view before voting and comes back with its state
    lost (a no).  The view it left narrowed the electorate; the view it
    rejoins does not grow it back."""
    replica = rbp_cohort([0, 1, 2, 3], 0b1111)
    for site in (0, 1):
        replica._on_vote(RbpVote("T#1", site, True))
    replica.on_view_change([0, 1, 3], True)
    replica.on_view_change([0, 1, 2, 3], True)
    replica._on_vote(RbpVote("T#1", 2, False))
    assert decided(replica) is None
    replica._on_vote(RbpVote("T#1", 3, True))
    assert decided(replica) is True


def test_an_electorate_narrowed_below_a_majority_never_commits():
    """Five sites.  T#1 opens in view {0,1,2}, sites 3 and 4 rejoin, and
    site 2 leaves before voting: the electorate narrows to {0,1}.  A commit
    on two YES votes would let an in-doubt site 1 later presume abort (the
    three others promise they never voted: 5 - 3 is below a majority), so
    the home aborts and a cohort waits for that abort."""
    cluster = Cluster(ClusterConfig(protocol="rbp", num_sites=5))
    home, cohort = cluster.replicas[0], cluster.replicas[1]
    tx = Transaction(TransactionSpec.make("T", 0, writes={"x0": 1}), 1, 0.0, 0.0)
    tx.phase = TxPhase.COMMITTING
    home.local[tx.tx_id] = tx
    for replica in (home, cohort):
        replica.on_view_change([0, 1, 2], True)
        replica._on_write(RbpWrite("T#1", 0, "x0", 1, (0.0, 0, "T")))
        replica.on_view_change([0, 1, 2, 3, 4], True)
        replica._on_commit_request(RbpCommitRequest("T#1", 0, 0b00111))
        replica.on_view_change([0, 1, 3, 4], True)
        for site in (0, 1):
            replica._on_vote(RbpVote("T#1", site, True))
        assert decided(replica) is None
    assert tx.phase is TxPhase.ABORTED and "T#1" in cohort._live


def test_unanimous_reads_only_view_members():
    tally = Tally({0: True, 1: True, 7: False, 2: True})  # a NO from outside the view
    assert tally.unanimous(VIEW)
    tally[1] = False  # a repeated answer overwrites
    assert not tally.unanimous(VIEW)
    assert tally.unanimous(frozenset({0, 2}))
