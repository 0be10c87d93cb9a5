"""Base class for simulated entities (sites, detectors, clients).

Every timer a :class:`Process` schedules carries the process's crash epoch;
crashing the process bumps the epoch, so each timer armed before the crash
fires as a no-op, and nothing scheduled while it is down runs either.  That
models a fail-stop site [SS82]: a crashed site performs no further actions
until it is explicitly recovered.  Periodic work is registered once, with
:meth:`Process.every`; no subclass re-arms a tick loop by hand.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import EventHandle, SimulationEngine


class Process:
    """A simulated entity attached to an engine.

    Subclasses schedule work through :meth:`schedule`, which tags the
    callback so it silently drops if the process crashed in the meantime
    (the process keeps no list of its timers).
    """

    def __init__(self, engine: SimulationEngine, name: str):
        self.engine = engine
        self.name = name
        self.alive = True
        self._crash_count = 0
        #: ``(interval, tick)`` per unended :meth:`every` loop, for :meth:`recover`.
        self._loops: list[tuple[float, Callable[[], None]]] = []

    @property
    def now(self) -> float:
        return self.engine.now

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay``, dropped if we crash first."""
        return self.engine.schedule(delay, self._guarded, self._crash_count, fn, args)

    def _guarded(self, epoch: int, fn: Callable[..., Any], args: tuple) -> None:
        if self.alive and epoch == self._crash_count:
            fn(*args)

    def every(self, interval: float, fn: Callable[[], Any]) -> None:
        """Run ``fn()`` each ``interval`` while the process is alive, first
        one ``interval`` from now.  A crash silences the loop (the epoch
        guard of :meth:`schedule`), :meth:`recover` starts it again once,
        after ``on_recover``, and ``fn`` returning ``False`` ends it."""
        if interval <= 0:
            # Rescheduling at +0 never lets simulated time advance.
            raise ValueError(f"interval must be positive, got {interval!r}")

        def tick() -> None:
            if fn() is False:
                self._loops.remove(loop)
                return
            self.schedule(interval, tick)

        loop = (interval, tick)
        self._loops.append(loop)
        if self.alive:
            self.schedule(interval, tick)

    def crash(self) -> None:
        """Fail-stop: stop reacting to events; every timer armed so far
        fires as a no-op (the epoch guard of :meth:`schedule`)."""
        if not self.alive:
            return
        self.alive = False
        self._crash_count += 1
        self.on_crash()

    def recover(self) -> None:
        """Bring the process back up (state recovery is the subclass's job)."""
        if self.alive:
            return
        self.alive = True
        self.on_recover()
        for interval, tick in self._loops:
            self.schedule(interval, tick)

    def on_crash(self) -> None:
        """Hook for subclasses; called once per crash."""

    def on_recover(self) -> None:
        """Hook for subclasses; called once per recovery."""