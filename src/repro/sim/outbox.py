"""Swap-drain outbox with one guarded flush timer.

What the batcher, RBP group commit and the token-mode total order owe
the network collects here until a flush.  Two
hazards are handled once: a send can deliver back synchronously and enqueue
more mid-flush, so :meth:`Outbox.drain` detaches the queue first and such
arrivals wait for the next flush (detcheck H402); and at most one timer is
armed per window, which re-checks the queue when it fires, so a crash that
:meth:`Outbox.clear`\\ ed the window leaves the firing a no-op.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.sim.engine import SimulationEngine


class Outbox:
    """Items queued for one flush window.

    With ``flush`` set, the first :meth:`put` of a window arms a timer that
    hands the drained items to ``flush(items)`` after ``window`` simulated
    ms (0.0: same instant, after the current event cascade).  Without it
    the owner calls :meth:`drain` itself (token mode: on token receipt).
    """

    __slots__ = ("engine", "flush", "window", "_items", "_armed")

    def __init__(
        self,
        engine: SimulationEngine,
        flush: Optional[Callable[[list], None]] = None,
        window: float = 0.0,
    ):
        if window < 0:
            raise ValueError("flush window must be non-negative")
        self.engine = engine
        self.flush = flush
        self.window = window
        self._items: list[Any] = []
        self._armed = False

    def put(self, item: Any) -> None:
        """Queue ``item``; arms the flush timer if there is one and it is idle."""
        self._items.append(item)
        if self.flush is not None and not self._armed:
            self._armed = True
            # detcheck: ignore[P203] — _fire re-checks the queue; a crash
            # clears it (clear) and leaves the firing a no-op.
            self.engine.schedule(self.window, self._fire)

    def drain(self) -> list[Any]:
        """Detach and return the queued items, in issue order."""
        items, self._items = self._items, []
        return items

    def clear(self) -> None:
        """Drop the open window (fail-stop crash: queued items are lost)."""
        self._items = []

    def __len__(self) -> int:
        return len(self._items)

    def _fire(self) -> None:
        if not self._items:
            # A crash cleared the window under the timer.
            self._armed = False
            return
        self._armed = False
        self.flush(self.drain())


def by_destination(pairs: Iterable[tuple[int, Any]]) -> list[tuple[int, list[Any]]]:
    """Group ``(destination, item)`` pairs per destination: destinations
    sorted (so flushes are deterministic), issue order kept within each."""
    groups: dict[int, list[Any]] = {}
    for dst, item in pairs:
        groups.setdefault(dst, []).append(item)
    return sorted(groups.items())
