"""Unit tests for the trace log."""

import pytest

from repro.sim.trace import TraceLog, TraceRecord


def test_emit_and_filter():
    log = TraceLog()
    log.emit(1.0, "site0", "tx.commit", tx="T1")
    log.emit(2.0, "site1", "tx.abort", tx="T2")
    log.emit(3.0, "site0", "tx.commit", tx="T3")
    assert len(log) == 3
    assert [r.detail["tx"] for r in log.filter(kind="tx.commit")] == ["T1", "T3"]
    assert [r.detail["tx"] for r in log.filter(source="site1")] == ["T2"]
    assert log.filter(kind="tx.commit", tx="T3")[0].time == 3.0


def test_disabled_log_still_counts():
    log = TraceLog(enabled=False)
    log.emit(1.0, "s", "event.a")
    log.emit(2.0, "s", "event.a")
    assert len(log) == 0
    assert log.count("event.a") == 2


def test_capacity_bound():
    log = TraceLog(capacity=2)
    for i in range(5):
        log.emit(float(i), "s", "k")
    assert len(log) == 2
    assert log.count("k") == 5


def test_capacity_drops_are_counted():
    log = TraceLog(capacity=2)
    assert not log.truncated
    for i in range(5):
        log.emit(float(i), "s", "k")
    assert log.dropped == 3
    assert log.truncated
    assert len(log) == 2
    assert log.count("k") == 5  # counters keep going past the cap


def test_disabled_log_drops_nothing():
    log = TraceLog(enabled=False, capacity=1)
    for i in range(3):
        log.emit(float(i), "s", "k")
    assert log.dropped == 0
    assert not log.truncated


def test_dump_renders_every_record():
    log = TraceLog()
    log.emit(1.0, "site0", "tx.commit", tx="T1")
    text = log.dump()
    assert "site0" in text and "tx.commit" in text and "tx=T1" in text


def test_clear():
    log = TraceLog(capacity=1)
    log.emit(1.0, "s", "k")
    log.emit(2.0, "s", "k")
    assert log.truncated
    log.clear()
    assert len(log) == 0
    assert log.count("k") == 0
    assert log.dropped == 0 and not log.truncated


# -- the ring (E13 soaks) ---------------------------------------------------------


def test_ring_keeps_newest_records():
    log = TraceLog(capacity=3)
    for i in range(8):
        log.emit(float(i), "s", "k", i=i)
    assert len(log) == 3
    assert [r.detail["i"] for r in log.records] == [5, 6, 7]


def test_ring_records_are_chronological_across_wraparound():
    log = TraceLog(capacity=4)
    for i in range(11):  # wraps twice, ends mid-buffer
        log.emit(float(i), "s", "k")
    times = [r.time for r in log.records]
    assert times == sorted(times) == [7.0, 8.0, 9.0, 10.0]


def test_ring_dropped_is_exact():
    log = TraceLog(capacity=5)
    for i in range(17):
        log.emit(float(i), "s", "k")
    assert log.dropped == 12  # overwritten, not refused
    assert log.truncated
    assert log.count("k") == 17  # counters keep going past the cap


def test_ring_below_capacity_matches_unbounded():
    ring = TraceLog(capacity=10)
    plain = TraceLog()
    for i in range(6):
        ring.emit(float(i), "s", "k", i=i)
        plain.emit(float(i), "s", "k", i=i)
    assert [(r.time, r.detail) for r in ring.records] == [
        (r.time, r.detail) for r in plain.records
    ]
    assert not ring.truncated


def test_ring_filter_sees_rotated_order():
    log = TraceLog(capacity=3)
    for i in range(5):
        log.emit(float(i), "s", "a" if i % 2 else "b")
    assert [r.time for r in log.filter(kind="a")] == [3.0]
    assert [r.time for r in log.filter(kind="b")] == [2.0, 4.0]


def test_ring_clear_resets_head():
    log = TraceLog(capacity=2)
    for i in range(5):
        log.emit(float(i), "s", "k")
    log.clear()
    for i in range(3):
        log.emit(float(10 + i), "s", "k")
    assert [r.time for r in log.records] == [11.0, 12.0]


def test_ring_requires_capacity():
    with pytest.raises(ValueError):
        TraceLog(capacity=0)


# -- rows against the record-per-emit reference ------------------------------------


class _RecordLog:
    """The reference: one ``TraceRecord`` built per emit, a ring rotated on
    read."""

    def __init__(self, capacity=None):
        self.capacity = capacity
        self.buffer, self.head = [], 0

    def emit(self, time, source, kind, **detail):
        record = TraceRecord(time, source, kind, detail)
        if self.capacity is not None and len(self.buffer) >= self.capacity:
            self.buffer[self.head] = record
            self.head = (self.head + 1) % self.capacity
            return
        self.buffer.append(record)

    @property
    def records(self):
        return self.buffer[self.head:] + self.buffer[:self.head]


@pytest.mark.parametrize("capacity", [None, 7, 40])
def test_rows_read_back_as_the_records_emitted(capacity):
    log, reference = TraceLog(capacity=capacity), _RecordLog(capacity)
    for i in range(23):  # overwrites a 7-slot ring twice over, ending mid-buffer
        args = (i * 0.5, f"site{i % 3}", ("tx.commit", "tx.abort", "net")[i % 3])
        detail = {"tx": f"T{i % 4}", "n": i} if i % 5 else {}
        log.emit(*args, **detail)
        reference.emit(*args, **detail)
    assert log.records == reference.records
    assert log.records is not log.records  # a fresh list per read
    assert log.dump() == "\n".join(str(record) for record in reference.records)
    queries = ({"kind": "tx.abort"}, {"source": "site0"}, {"tx": "T1"}, {"kind": "net", "n": 17})
    for criteria in queries:
        expected = [
            r for r in reference.records
            if all(getattr(r, k, r.detail.get(k)) == v for k, v in criteria.items())
        ]
        assert log.filter(**criteria) == expected
    assert len(log) == len(reference.buffer)
