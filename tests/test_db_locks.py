"""Unit tests for the strict-2PL lock manager."""

import pytest

from repro.db.locks import LockManager, LockMode, LockPolicyError, compatible

S = LockMode.SHARED
X = LockMode.EXCLUSIVE


@pytest.fixture
def lm():
    return LockManager()


def test_compatibility_matrix():
    assert compatible(S, S)
    assert not compatible(S, X)
    assert not compatible(X, S)
    assert not compatible(X, X)


def test_shared_locks_coexist(lm):
    assert lm.try_acquire("T1", "x", S)
    assert lm.try_acquire("T2", "x", S)
    assert lm.holds("T1", "x") is S
    assert lm.holds("T2", "x") is S


def test_exclusive_excludes_everyone(lm):
    assert lm.try_acquire("T1", "x", X)
    assert not lm.try_acquire("T2", "x", S)
    assert not lm.try_acquire("T2", "x", X)
    assert lm.stats.denials == 2


def test_no_wait_failure_has_no_side_effects(lm):
    lm.try_acquire("T1", "x", X)
    lm.try_acquire("T2", "x", X)
    assert lm.holds("T2", "x") is None
    assert not lm.is_waiting("T2")


def test_reacquire_same_mode_is_noop(lm):
    assert lm.try_acquire("T1", "x", S)
    assert lm.try_acquire("T1", "x", S)
    assert lm.holds("T1", "x") is S


def test_upgrade_sole_holder(lm):
    lm.try_acquire("T1", "x", S)
    assert lm.try_acquire("T1", "x", X)
    assert lm.holds("T1", "x") is X


def test_upgrade_blocked_by_other_reader(lm):
    lm.try_acquire("T1", "x", S)
    lm.try_acquire("T2", "x", S)
    assert not lm.try_acquire("T1", "x", X)
    assert lm.holds("T1", "x") is S


def test_queued_acquire_granted_on_release(lm):
    grants = []
    lm.try_acquire("T1", "x", X)
    assert not lm.acquire("T2", "x", X, lambda tx, key: grants.append((tx, key)))
    lm.release_all("T1")
    assert grants == [("T2", "x")]
    assert lm.holds("T2", "x") is X


def test_queue_is_fifo(lm):
    grants = []
    lm.try_acquire("T1", "x", X)
    lm.acquire("T2", "x", X, lambda tx, key: grants.append(tx))
    lm.acquire("T3", "x", X, lambda tx, key: grants.append(tx))
    lm.release_all("T1")
    assert grants == ["T2"]
    lm.release_all("T2")
    assert grants == ["T2", "T3"]


def test_readers_granted_together(lm):
    grants = []
    lm.try_acquire("T1", "x", X)
    lm.acquire("R1", "x", S, lambda tx, key: grants.append(tx))
    lm.acquire("R2", "x", S, lambda tx, key: grants.append(tx))
    lm.release_all("T1")
    assert sorted(grants) == ["R1", "R2"]


def test_writer_not_starved_behind_reader_stream(lm):
    """A new reader must not jump over a queued writer (FIFO fairness)."""
    lm.try_acquire("R1", "x", S)
    lm.acquire("W", "x", X, None)
    assert not lm.acquire("R2", "x", S, None)  # queued behind the writer
    lm.release_all("R1")
    assert lm.holds("W", "x") is X


def test_double_queue_rejected(lm):
    lm.try_acquire("T1", "x", X)
    lm.acquire("T2", "x", X, None)
    with pytest.raises(LockPolicyError):
        lm.acquire("T2", "x", X, None)


def test_group_acquire_all_available(lm):
    assert lm.acquire_group("T1", {"x": S, "y": S})
    assert lm.holds("T1", "x") is S and lm.holds("T1", "y") is S


def test_group_acquire_holds_nothing_while_waiting(lm):
    lm.try_acquire("W", "y", X)
    granted = []
    assert not lm.acquire_group("T1", {"x": S, "y": S}, lambda tx: granted.append(tx))
    assert lm.holds("T1", "x") is None  # no hold-and-wait
    lm.release_all("W")
    assert granted == ["T1"]
    assert lm.holds("T1", "x") is S and lm.holds("T1", "y") is S


def test_group_empty_is_trivially_granted(lm):
    assert lm.acquire_group("T1", {})


def test_double_group_rejected(lm):
    lm.try_acquire("W", "x", X)
    lm.acquire_group("T1", {"x": S}, None)
    with pytest.raises(LockPolicyError):
        lm.acquire_group("T1", {"x": S}, None)


def test_release_all_clears_queues_and_groups(lm):
    lm.try_acquire("W", "x", X)
    lm.acquire("T1", "x", X, None)
    lm.acquire_group("T2", {"x": S}, None)
    lm.release_all("T1")
    lm.release_all("T2")
    assert not lm.is_waiting("T1")
    assert not lm.is_waiting("T2")
    lm.release_all("W")
    assert lm.holders_of("x") == {}


def test_conflicting_holders(lm):
    lm.try_acquire("R1", "x", S)
    lm.try_acquire("R2", "x", S)
    assert sorted(lm.conflicting_holders("T", "x", X)) == ["R1", "R2"]
    assert lm.conflicting_holders("T", "x", S) == []
    assert lm.conflicting_holders("R1", "x", X) == ["R2"]


def test_waits_for_edges_and_cycle_detection(lm):
    # T1 holds x, T2 holds y; each queues on the other's key: a 2-cycle.
    lm.try_acquire("T1", "x", X)
    lm.try_acquire("T2", "y", X)
    lm.acquire("T1", "y", X, None)
    lm.acquire("T2", "x", X, None)
    edges = lm.waits_for_edges()
    assert "T2" in edges["T1"] and "T1" in edges["T2"]
    cycle = lm.find_cycle()
    assert cycle is not None
    assert set(cycle) == {"T1", "T2"}


def test_no_cycle_in_straight_queue(lm):
    lm.try_acquire("T1", "x", X)
    lm.acquire("T2", "x", X, None)
    lm.acquire("T3", "x", X, None)
    assert lm.find_cycle() is None


def test_upgrade_deadlock_detected(lm):
    """Two readers both requesting upgrade: the classic S->X deadlock."""
    lm.try_acquire("T1", "x", S)
    lm.try_acquire("T2", "x", S)
    lm.acquire("T1", "x", X, None)
    lm.acquire("T2", "x", X, None)
    cycle = lm.find_cycle()
    assert cycle is not None and set(cycle) == {"T1", "T2"}


def test_three_party_cycle(lm):
    lm.try_acquire("T1", "x", X)
    lm.try_acquire("T2", "y", X)
    lm.try_acquire("T3", "z", X)
    lm.acquire("T1", "y", X, None)
    lm.acquire("T2", "z", X, None)
    lm.acquire("T3", "x", X, None)
    cycle = lm.find_cycle()
    assert cycle is not None and set(cycle) == {"T1", "T2", "T3"}


def test_held_keys_tracking(lm):
    lm.try_acquire("T1", "x", S)
    lm.try_acquire("T1", "y", X)
    assert lm.held_keys("T1") == {"x", "y"}
    lm.release_all("T1")
    assert lm.held_keys("T1") == set()


def test_grant_callbacks_run_after_state_settles(lm):
    """A grant callback that immediately releases must not corrupt the
    re-evaluation pass that invoked it."""
    order = []

    def grab_and_release(tx, key):
        order.append(tx)
        lm.release_all(tx)

    lm.try_acquire("T1", "x", X)
    lm.acquire("T2", "x", X, grab_and_release)
    lm.acquire("T3", "x", X, lambda tx, key: order.append(tx))
    lm.release_all("T1")
    assert order == ["T2", "T3"]
    assert lm.holds("T3", "x") is X


def test_preempt_displaces_holder_to_queue_front(lm):
    lm.try_acquire("U", "x", X)
    lm.acquire("W1", "x", X, None)  # younger waiter
    losers = lm.preempt("x", "T")
    assert losers == ["U"]
    assert lm.holds("T", "x") is X
    assert lm.holds("U", "x") is None
    # U's claim survives at the FRONT of the queue, ahead of W1.
    assert [r.tx for r in lm.queued("x")] == ["U", "W1"]
    lm.release_all("T")
    assert lm.holds("U", "x") is X


def test_preempt_consumes_winners_queued_claim(lm):
    lm.try_acquire("U", "x", X)
    lm.acquire("T", "x", X, None)  # T queued behind U
    lm.preempt("x", "T")
    assert lm.holds("T", "x") is X
    assert [r.tx for r in lm.queued("x")] == ["U"]
    lm.release_all("T")
    lm.release_all("U")
    assert lm.holders_of("x") == {}
    assert lm.queued("x") == []


def test_preempt_on_free_key_is_plain_grant(lm):
    assert lm.preempt("x", "T") == []
    assert lm.holds("T", "x") is X
