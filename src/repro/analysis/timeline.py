"""ASCII transaction timelines from trace logs.

Turns a run's :class:`repro.sim.trace.TraceLog` into a gantt-style view of
every transaction's lifecycle — submission, read completion, terminal
outcome — which makes protocol behaviour (sequential RBP write rounds,
CBP's heartbeat-bound commit waits, baseline deadlock stalls) visible at
a glance:

    T1#1  s0 |----r=============C           |  committed @ 41.2
    T2#1  s1 |      --r=====A               |  aborted (write_conflict)

Legend: ``-`` waiting for read locks, ``r`` reads done, ``=`` executing /
committing, ``C`` committed, ``A`` aborted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.trace import TraceLog


@dataclass
class TxTimeline:
    """Lifecycle timestamps of one transaction attempt."""

    tx_id: str
    site: str = "?"
    submit: Optional[float] = None
    reads_done: Optional[float] = None
    end: Optional[float] = None
    outcome: Optional[str] = None  # "committed" | "aborted:<reason>" | None
    events: list[tuple[float, str]] = field(default_factory=list)


class TimelineBuilder:
    """Extracts per-transaction timelines from a trace log."""

    SUBMIT = "tx.submit"
    READS = "tx.reads_done"
    COMMITS = ("tx.commit", "tx.commit_readonly")
    ABORT = "tx.abort"

    def __init__(self, trace: TraceLog):
        self.timelines: dict[str, TxTimeline] = {}
        for record in trace.records:
            tx_id = record.detail.get("tx")
            if tx_id is None:
                continue
            timeline = self.timelines.setdefault(tx_id, TxTimeline(tx_id))
            timeline.events.append((record.time, record.kind))
            if record.kind == self.SUBMIT:
                timeline.submit = record.time
                timeline.site = record.source
            elif record.kind == self.READS:
                timeline.reads_done = record.time
            elif record.kind in self.COMMITS:
                # Only the home's commit ends the timeline; remote applies
                # share the kind "rbp.applied"/"cbp.applied" instead.
                if record.source == timeline.site or timeline.site == "?":
                    timeline.end = record.time
                    timeline.outcome = "committed"
            elif record.kind == self.ABORT:
                if record.source == timeline.site or timeline.site == "?":
                    timeline.end = record.time
                    reason = record.detail.get("reason", "?")
                    timeline.outcome = f"aborted:{reason}"

    def ordered(self) -> list[TxTimeline]:
        return sorted(
            self.timelines.values(),
            key=lambda t: (t.submit if t.submit is not None else float("inf"), t.tx_id),
        )

    def render(self, width: int = 64) -> str:
        """Gantt rendering across the full traced time span."""
        timelines = [t for t in self.ordered() if t.submit is not None]
        if not timelines:
            return "(no transactions traced)"
        start = min(t.submit for t in timelines)
        end = max((t.end if t.end is not None else t.submit) for t in timelines)
        span = max(end - start, 1e-9)

        def column(time: float) -> int:
            return min(int((time - start) / span * (width - 1)), width - 1)

        lines = []
        label_width = max(len(t.tx_id) for t in timelines) + 1
        for t in timelines:
            row = [" "] * width
            begin = column(t.submit)
            reads = column(t.reads_done) if t.reads_done is not None else None
            stop = column(t.end) if t.end is not None else width - 1
            for i in range(begin, stop + 1):
                row[i] = "-"
            if reads is not None:
                for i in range(reads, stop + 1):
                    row[i] = "="
                row[reads] = "r"
            if t.end is not None:
                row[stop] = "C" if t.outcome == "committed" else "A"
            status = t.outcome if t.outcome else "incomplete"
            suffix = f"{status} @ {t.end:.1f}" if t.end is not None else status
            lines.append(
                f"{t.tx_id:<{label_width}} {t.site:<7}|{''.join(row)}|  {suffix}"
            )
        return "\n".join(lines)


def render_timeline(trace: TraceLog, width: int = 64) -> str:
    """Convenience wrapper: trace log -> gantt string."""
    return TimelineBuilder(trace).render(width)
