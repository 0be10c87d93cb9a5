"""Structured trace log for simulations.

Protocols emit trace records ("site 2 delivered commit request for T7 at
t=41.2") through a shared :class:`TraceLog`.  Tests assert on traces; the
benchmark harness keeps tracing disabled for speed.

Bounded modes (long soaks must stay memory-bounded; see E13):

- ``mode="head"`` (the default with a ``capacity``): keep the *oldest*
  ``capacity`` records and refuse the rest — the historical behaviour,
  right for tests that assert on a run's opening phase.
- ``mode="ring"``: keep the *newest* ``capacity`` records in a circular
  buffer — right for churn soaks, where the interesting records are the
  ones nearest the failure being diagnosed and memory must not grow with
  simulated time.

In both modes ``counts`` keeps incrementing past the cap and ``dropped``
counts exactly the records no longer retained, so ``truncated`` flags any
incomplete history (the audit checks it).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace event."""

    time: float
    source: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:10.3f}] {self.source:<12} {self.kind:<20} {extras}"


class TraceLog:
    """Append-only trace sink with simple filtering helpers.

    ``enabled=False`` turns :meth:`emit` into a counter-only fast path so
    benchmarks don't pay for record construction.  Enabled, :meth:`emit`
    stores a plain ``(time, source, kind, detail)`` row; :attr:`records`
    builds a fresh list of :class:`TraceRecord` objects from the rows on
    each read, so a caller that reads it repeatedly should keep the list.
    """

    def __init__(
        self,
        enabled: bool = True,
        capacity: Optional[int] = None,
        mode: str = "head",
    ):
        if mode not in ("head", "ring"):
            raise ValueError(f"unknown trace mode {mode!r}; pick 'head' or 'ring'")
        if mode == "ring" and capacity is None:
            raise ValueError("mode='ring' requires a capacity")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.enabled = enabled
        self.capacity = capacity
        self.mode = mode
        self._buffer: list[tuple[float, str, str, dict[str, Any]]] = []
        #: Next slot to overwrite once the ring is full (ring mode only).
        self._ring_head = 0
        self.counts: Counter[str] = Counter()
        #: Records no longer retained because ``capacity`` was reached —
        #: refused (head mode) or overwritten (ring mode).  ``counts``
        #: keeps incrementing past the cap, so a non-zero value here is the
        #: only sign that ``records`` is an incomplete history — consumers
        #: (audit, timeline, tests) must check :attr:`truncated`.
        self.dropped = 0

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        """Record one event (cheap no-op body when disabled)."""
        self.counts[kind] += 1
        if not self.enabled:
            return
        buffer = self._buffer
        if self.capacity is not None and len(buffer) >= self.capacity:
            self.dropped += 1
            if self.mode == "head":
                return
            # Ring wraparound: overwrite the oldest slot in place, so the
            # buffer always holds the newest ``capacity`` records.
            head = self._ring_head
            buffer[head] = (time, source, kind, detail)
            self._ring_head = head + 1 if head + 1 < self.capacity else 0
            return
        buffer.append((time, source, kind, detail))

    @property
    def records(self) -> list[TraceRecord]:
        """Retained records in emission (chronological) order: a fresh
        list, built from the rows, oldest to newest in a wrapped ring too."""
        return [TraceRecord(*row) for row in self._rows()]

    def _rows(self) -> list[tuple[float, str, str, dict[str, Any]]]:
        if self.mode == "ring" and self._ring_head:
            head = self._ring_head
            return self._buffer[head:] + self._buffer[:head]
        return self._buffer

    @property
    def truncated(self) -> bool:
        """True when at least one record was dropped at capacity."""
        return self.dropped > 0

    def filter(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        **detail: Any,
    ) -> list[TraceRecord]:
        """Records matching every given criterion."""
        return list(self.iter_filtered(kind=kind, source=source, **detail))

    def iter_filtered(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        **detail: Any,
    ) -> Iterator[TraceRecord]:
        for row in self._rows():
            _, row_source, row_kind, row_detail = row
            if kind is not None and row_kind != kind:
                continue
            if source is not None and row_source != source:
                continue
            if any(row_detail.get(k) != v for k, v in detail.items()):
                continue
            yield TraceRecord(*row)

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were emitted (works when disabled)."""
        return self.counts[kind]

    def dump(self, records: Optional[Iterable[TraceRecord]] = None) -> str:
        """Human-readable rendering, mainly for debugging failed tests."""
        return "\n".join(str(r) for r in (records if records is not None else self.records))

    def clear(self) -> None:
        self._buffer.clear()
        self._ring_head = 0
        self.counts.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._buffer)
