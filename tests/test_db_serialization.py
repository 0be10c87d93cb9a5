"""Unit tests for the one-copy serialization graph checker."""

import pytest

from repro.db.serialization import HistoryRecorder, replicas_converged
from repro.db.storage import VersionedStore


def test_empty_history_is_serializable():
    recorder = HistoryRecorder()
    result = recorder.check()
    assert result.ok
    assert result.num_transactions == 0


def test_simple_chain_is_serializable():
    recorder = HistoryRecorder()
    recorder.record_commit("T1", 0, reads={"x": 0}, writes={"x": 1}, commit_time=1.0)
    recorder.record_commit("T2", 1, reads={"x": 1}, writes={"x": 2}, commit_time=2.0)
    result = recorder.check()
    assert result.ok
    assert recorder.serial_order() == ["T1", "T2"]


def test_rw_cycle_detected():
    """The classic write-skew cycle: T1 reads x writes y, T2 reads y
    writes x, both reading the initial versions."""
    recorder = HistoryRecorder()
    recorder.record_commit("T1", 0, reads={"x": 0}, writes={"y": 1}, commit_time=1.0)
    recorder.record_commit("T2", 1, reads={"y": 0}, writes={"x": 1}, commit_time=1.0)
    result = recorder.check()
    assert not result.acyclic
    assert set(result.cycle) == {"T1", "T2"}
    assert recorder.serial_order() is None


def test_lost_update_cycle_detected():
    """Both transactions read version 0 and write versions 1 and 2: the
    second writer overwrote a value it never saw."""
    recorder = HistoryRecorder()
    recorder.record_commit("T1", 0, reads={"x": 0}, writes={"x": 1}, commit_time=1.0)
    recorder.record_commit("T2", 1, reads={"x": 0}, writes={"x": 2}, commit_time=2.0)
    result = recorder.check()
    assert not result.acyclic  # T2 -> T1 (rw) and T1 -> T2 (ww)


def test_duplicate_version_writers_flagged():
    recorder = HistoryRecorder()
    recorder.record_commit("T1", 0, reads={}, writes={"x": 1}, commit_time=1.0)
    recorder.record_commit("T2", 1, reads={}, writes={"x": 1}, commit_time=2.0)
    result = recorder.check()
    assert not result.ok
    assert any("written by both" in c for c in result.version_conflicts)


def test_version_gap_flagged():
    recorder = HistoryRecorder()
    recorder.record_commit("T1", 0, reads={}, writes={"x": 3}, commit_time=1.0)
    result = recorder.check()
    assert any("has no recorded writer" in c for c in result.version_conflicts)


def test_read_of_phantom_version_flagged():
    recorder = HistoryRecorder()
    recorder.record_commit("T1", 0, reads={"x": 5}, writes={}, commit_time=1.0)
    result = recorder.check()
    assert any("no committed transaction wrote" in c for c in result.version_conflicts)


def test_double_record_rejected():
    recorder = HistoryRecorder()
    recorder.record_commit("T1", 0, reads={}, writes={"x": 1}, commit_time=1.0)
    with pytest.raises(ValueError):
        recorder.record_commit("T1", 0, reads={}, writes={"y": 1}, commit_time=2.0)


def test_read_only_transactions_serialize():
    recorder = HistoryRecorder()
    recorder.record_commit("W1", 0, reads={}, writes={"x": 1}, commit_time=1.0)
    recorder.record_commit("R1", 1, reads={"x": 0}, writes={}, commit_time=1.5)
    recorder.record_commit("R2", 2, reads={"x": 1}, writes={}, commit_time=2.0)
    result = recorder.check()
    assert result.ok
    order = recorder.serial_order()
    assert order.index("R1") < order.index("W1") < order.index("R2")


def test_blind_writes_serializable():
    recorder = HistoryRecorder()
    recorder.record_commit("T1", 0, reads={}, writes={"x": 1}, commit_time=1.0)
    recorder.record_commit("T2", 1, reads={}, writes={"x": 2}, commit_time=2.0)
    assert recorder.check().ok


def test_explain_mentions_cycle():
    recorder = HistoryRecorder()
    recorder.record_commit("T1", 0, reads={"x": 0}, writes={"y": 1}, commit_time=1.0)
    recorder.record_commit("T2", 1, reads={"y": 0}, writes={"x": 1}, commit_time=1.0)
    text = recorder.check().explain()
    assert "VIOLATION" in text and "cycle" in text


def test_replicas_converged():
    a, b = VersionedStore(), VersionedStore()
    for s in (a, b):
        s.initialize(["x"])
    assert replicas_converged([a, b])
    a.install("x", 1, "T1")
    assert not replicas_converged([a, b])
    b.install("x", 1, "T1")
    assert replicas_converged([a, b])
    assert replicas_converged([])
    assert replicas_converged([a])


def test_provisional_record_keeps_version_order_dense():
    """Regression (E13 churn, cbp/20 sites/seed 3): cohorts installed a
    group-committed write whose initiator died before ``record_commit``,
    leaving a version with no recorded writer.  The cohort-side
    provisional record must satisfy the writer check."""
    recorder = HistoryRecorder()
    recorder.record_commit_provisional("T1", 2, writes={"x": 1}, commit_time=5.0)
    recorder.record_commit("T2", 1, reads={"x": 1}, writes={"x": 2}, commit_time=6.0)
    result = recorder.check()
    assert result.ok, result.explain()


def test_provisional_record_is_idempotent_across_cohorts():
    recorder = HistoryRecorder()
    recorder.record_commit_provisional("T1", 2, writes={"x": 1}, commit_time=5.0)
    recorder.record_commit_provisional("T1", 3, writes={"x": 1}, commit_time=5.5)
    assert len(recorder) == 1
    assert recorder.held()[0].site == 2  # first cohort wins


def test_full_record_upgrades_a_provisional_in_place():
    recorder = HistoryRecorder()
    recorder.record_commit_provisional("T1", 2, writes={"x": 1}, commit_time=5.0)
    recorder.record_commit("T1", 0, reads={"y": 0}, writes={"x": 1}, commit_time=6.0)
    assert len(recorder) == 1
    record = recorder.held()[0]
    assert not record.provisional
    assert record.site == 0
    assert record.reads == (("y", 0),)
    # A second full record is still an error after the upgrade.
    with pytest.raises(ValueError, match="recorded twice"):
        recorder.record_commit("T1", 0, reads={}, writes={"x": 1}, commit_time=7.0)


def test_upgrade_with_empty_writes_keeps_cohort_versions():
    """A partitioned-away initiator completing later may not know the
    version numbers the cohorts stamped; its empty write set must not
    erase the provisional record's authoritative versions."""
    recorder = HistoryRecorder()
    recorder.record_commit_provisional("T1", 2, writes={"x": 3}, commit_time=5.0)
    recorder.record_commit("T1", 0, reads={}, writes={}, commit_time=9.0)
    assert recorder.held()[0].writes == (("x", 3),)


def _ww_chain(length, close=False):
    """T0 -> T1 -> ... on ``x``; with ``close`` the last transaction also
    read the ``y`` that the first one overwrote (an rw edge back to it)."""
    recorder = HistoryRecorder()
    for i in range(length):
        reads, writes = {"x": i}, {"x": i + 1}
        if close and i == 0:
            writes["y"] = 1
        if close and i == length - 1:
            reads["y"] = 0
        recorder.record_commit(f"T{i:05d}", 0, reads, writes, commit_time=float(i))
    return recorder


def test_long_ww_chain_and_cycle_at_default_recursion_limit():
    """A 5000-transaction chain is a 5000-deep path in the graph: the
    search must not recurse (the interpreter's default limit is 1000)."""
    import sys

    assert sys.getrecursionlimit() < 5000
    recorder = _ww_chain(5000)
    result = recorder.check()
    assert result.ok and result.num_edges == 5000
    assert recorder.serial_order() == [f"T{i:05d}" for i in range(5000)]
    closed = _ww_chain(5000, close=True)
    assert closed.check().cycle == [f"T{i:05d}" for i in range(5000)]
    assert closed.serial_order() is None


def test_reported_cycle_is_pinned():
    """Visiting order is part of the contract (roots and successors sorted),
    so the cycle reported for a given history never changes: T1 -> T3 -> T2
    -> T1 via three rw edges, found from T1 and reported in path order."""
    recorder = HistoryRecorder()
    recorder.record_commit("T0", 0, reads={}, writes={"d": 1}, commit_time=0.0)
    recorder.record_commit("T1", 0, reads={"a": 0, "d": 1}, writes={"b": 1}, commit_time=1.0)
    recorder.record_commit("T2", 1, reads={"b": 0}, writes={"c": 1}, commit_time=1.0)
    recorder.record_commit("T3", 2, reads={"c": 0}, writes={"a": 1}, commit_time=1.0)
    result = recorder.check()
    assert result.cycle == ["T1", "T3", "T2"]
    assert result.num_edges == 8
