"""Tests for the metrics collector."""

from repro.analysis.metrics import MetricsCollector
from repro.core.transaction import AbortReason, Transaction, TransactionSpec


def make_tx(name, home=0, attempt=1, at=0.0, writes=None):
    spec = TransactionSpec.make(name, home, writes=writes or {"x": 1})
    return Transaction(spec, attempt, submit_time=at, first_submit_time=at)


def make_ro(name, home=0, at=0.0):
    spec = TransactionSpec.make(name, home, read_keys=["x"])
    return Transaction(spec, 1, submit_time=at, first_submit_time=at)


def test_commit_latency_from_outcomes():
    metrics = MetricsCollector()
    metrics.tx_committed(make_tx("T1", at=10.0), end_time=25.0)
    metrics.tx_committed(make_tx("T2", at=10.0), end_time=15.0)
    summary = metrics.commit_latency()
    assert summary.count == 2
    assert summary.mean == 10.0


def test_abort_taxonomy():
    metrics = MetricsCollector()
    metrics.tx_aborted(make_tx("T1"), AbortReason.DEADLOCK, 1.0)
    metrics.tx_aborted(make_tx("T2"), AbortReason.DEADLOCK, 2.0)
    metrics.tx_aborted(make_tx("T3"), AbortReason.CERTIFICATION, 3.0)
    assert metrics.aborts_by_reason[AbortReason.DEADLOCK] == 2
    assert metrics.aborts_by_reason[AbortReason.CERTIFICATION] == 1


def test_update_vs_readonly_separation():
    metrics = MetricsCollector()
    metrics.tx_committed(make_tx("W1"), 1.0)
    metrics.tx_committed(make_ro("R1"), 1.0)
    metrics.tx_aborted(make_tx("W2"), AbortReason.WRITE_CONFLICT, 2.0)
    assert metrics.committed_update_count() == 1
    assert metrics.committed_readonly_count() == 1
    assert metrics.update_abort_rate() == 0.5
    assert metrics.readonly_abort_count() == 0


def test_latency_filter_by_readonly():
    metrics = MetricsCollector()
    metrics.tx_committed(make_tx("W1", at=0.0), end_time=10.0)
    metrics.tx_committed(make_ro("R1", at=0.0), end_time=2.0)
    assert metrics.commit_latency(read_only=True).mean == 2.0
    assert metrics.commit_latency(read_only=False).mean == 10.0


def test_throughput():
    metrics = MetricsCollector()
    for n in range(10):
        metrics.tx_committed(make_tx(f"T{n}"), float(n))
    assert metrics.throughput(100.0) == 0.1
    assert metrics.throughput(0.0) == 0.0


def test_attempts_per_commit():
    metrics = MetricsCollector()
    metrics.tx_aborted(make_tx("T1", attempt=1), AbortReason.WRITE_CONFLICT, 1.0)
    metrics.tx_aborted(make_tx("T1", attempt=2), AbortReason.WRITE_CONFLICT, 2.0)
    metrics.tx_committed(make_tx("T1", attempt=3), 3.0)
    metrics.tx_committed(make_tx("T2"), 1.0)
    assert metrics.attempts_per_commit() == 2.0  # (3 + 1) / 2


def test_empty_collector_defaults():
    metrics = MetricsCollector()
    assert metrics.update_abort_rate() == 0.0
    assert metrics.attempts_per_commit() == 0.0
    assert metrics.commit_latency().count == 0
