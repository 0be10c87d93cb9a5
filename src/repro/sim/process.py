"""Base class for simulated entities (sites, detectors, clients).

A :class:`Process` owns a set of timers; crashing a process cancels all of
its timers and makes subsequent ``schedule`` calls inert, which models a
fail-stop site [SS82]: a crashed site performs no further actions until it is
explicitly recovered.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import EventHandle, SimulationEngine


class Process:
    """A simulated entity attached to an engine.

    Subclasses schedule work through :meth:`schedule`, which (a) tags the
    callback so it silently drops if the process crashed in the meantime and
    (b) tracks pending timers so :meth:`crash` can cancel them.
    """

    def __init__(self, engine: SimulationEngine, name: str):
        self.engine = engine
        self.name = name
        self.alive = True
        self._timers: list[EventHandle] = []
        #: Drop fired/cancelled handles from ``_timers`` once it outgrows
        #: this; reset to twice the survivors, so pruning is amortised O(1)
        #: however many timers are genuinely pending.
        self._prune_at = 256
        self._crash_count = 0

    @property
    def now(self) -> float:
        return self.engine.now

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay``, dropped if we crash first."""
        epoch = self._crash_count
        handle = self.engine.schedule(delay, self._guarded, epoch, fn, args)
        self._timers.append(handle)
        if len(self._timers) > self._prune_at:
            self._timers = [h for h in self._timers if h.pending]
            self._prune_at = max(256, 2 * len(self._timers))
        return handle

    def _guarded(self, epoch: int, fn: Callable[..., Any], args: tuple) -> None:
        if self.alive and epoch == self._crash_count:
            fn(*args)

    def crash(self) -> None:
        """Fail-stop: cancel all pending timers and stop reacting to events."""
        if not self.alive:
            return
        self.alive = False
        self._crash_count += 1
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        self.on_crash()

    def recover(self) -> None:
        """Bring the process back up (state recovery is the subclass's job)."""
        if self.alive:
            return
        self.alive = True
        self.on_recover()

    def on_crash(self) -> None:
        """Hook for subclasses; called once per crash."""

    def on_recover(self) -> None:
        """Hook for subclasses; called once per recovery."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.name} {state}>"
