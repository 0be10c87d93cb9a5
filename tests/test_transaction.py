"""Unit tests for the transaction model."""

from repro.core.transaction import (
    AbortReason,
    Transaction,
    TransactionSpec,
    TxPhase,
)


def test_spec_make_sorts_writes():
    spec = TransactionSpec.make("T1", 0, read_keys=["b"], writes={"z": 1, "a": 2})
    assert spec.write_keys == ("a", "z")
    assert dict(spec.writes) == {"a": 2, "z": 1}


def test_read_only_detection():
    ro = TransactionSpec.make("R", 0, read_keys=["x"])
    rw = TransactionSpec.make("W", 0, read_keys=["x"], writes={"x": 1})
    assert ro.read_only
    assert not rw.read_only


def test_tx_id_encodes_attempt():
    spec = TransactionSpec.make("T7", 2, writes={"x": 1})
    tx = Transaction(spec, attempt=3, submit_time=10.0, first_submit_time=1.0)
    assert tx.tx_id == "T7#3"
    assert tx.spec.home == 2


def test_priority_uses_first_submission():
    spec = TransactionSpec.make("T1", 0, writes={"x": 1})
    first = Transaction(spec, 1, submit_time=1.0, first_submit_time=1.0)
    retry = Transaction(spec, 2, submit_time=50.0, first_submit_time=1.0)
    assert first.priority == retry.priority


def test_older_comparison():
    spec_a = TransactionSpec.make("A", 0, writes={"x": 1})
    spec_b = TransactionSpec.make("B", 1, writes={"x": 1})
    a = Transaction(spec_a, 1, 1.0, 1.0)
    b = Transaction(spec_b, 1, 2.0, 2.0)
    assert a.priority < b.priority
    assert not b.priority < a.priority


def test_priority_tiebreak_by_site_then_name():
    a = Transaction(TransactionSpec.make("A", 0, writes={"x": 1}), 1, 1.0, 1.0)
    b = Transaction(TransactionSpec.make("B", 1, writes={"x": 1}), 1, 1.0, 1.0)
    assert a.priority < b.priority


def test_phase_lifecycle_and_terminal():
    spec = TransactionSpec.make("T1", 0, writes={"x": 1})
    tx = Transaction(spec, 1, 0.0, 0.0)
    assert tx.phase is TxPhase.PENDING
    assert not tx.terminal
    tx.phase = TxPhase.COMMITTED
    assert tx.terminal
    tx.phase = TxPhase.ABORTED
    assert tx.terminal


def test_observed_accessors():
    spec = TransactionSpec.make("T1", 0, read_keys=["x", "y"], writes={"x": 1})
    tx = Transaction(spec, 1, 0.0, 0.0)
    tx.reads_observed = {"x": (10, 2), "y": (20, 0)}
    assert tx.observed_versions() == {"x": 2, "y": 0}


def test_abort_reasons_have_distinct_values():
    values = [reason.value for reason in AbortReason]
    assert len(values) == len(set(values))


def test_str_forms():
    spec = TransactionSpec.make("T1", 3, writes={"x": 1})
    assert str(spec) == "T1@s3"
    tx = Transaction(spec, 2, 0.0, 0.0)
    assert str(tx) == "T1#2"
