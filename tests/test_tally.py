"""Unit tests for the view-aware tally every protocol waits on."""

from repro.core.tally import Tally

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


def test_restrict_drops_departed_and_rejoin_needs_a_fresh_vote():
    """The per-protocol view-change difference is exactly whether
    ``restrict`` is called: RBP prunes, P2P and CBP do not."""
    pruned, kept = Tally({0: True, 1: True, 2: False}), Tally({0: True, 1: True, 2: False})
    pruned.restrict(frozenset({0, 1}))  # site 2 departs
    assert sorted(pruned) == [0, 1] and sorted(kept) == [0, 1, 2]
    # Site 2 rejoins: with pruning its pre-departure answer does not count.
    assert not pruned.complete(VIEW)
    assert kept.complete(VIEW) and not kept.unanimous(VIEW)
    pruned[2] = True
    assert pruned.complete(VIEW) and pruned.unanimous(VIEW)


def test_unanimous_reads_only_view_members():
    tally = Tally({0: True, 1: True, 7: False, 2: True})  # a NO from outside the view
    assert tally.unanimous(VIEW)
    tally[1] = False  # a repeated answer overwrites
    assert not tally.unanimous(VIEW)
    assert tally.unanimous(frozenset({0, 2}))
