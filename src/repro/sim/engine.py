"""Discrete-event simulation engine.

The engine maintains a priority queue of timestamped callbacks.  Time is a
float in abstract "milliseconds"; nothing in the library depends on the unit,
but latency models and default timeouts are written as if it were
milliseconds on a LAN.

Determinism guarantees:

- Events at the same timestamp fire in the order they were scheduled
  (a monotonically increasing sequence number breaks ties).
- The engine itself never consults a random source; randomness enters only
  through :class:`repro.sim.rng.RngRegistry` streams used by latency models
  and workloads.

Hot-path design (the whole library funnels through this loop):

- **Heap entries are ``(time, seq, fn, args)`` tuples**, so ``heapq``
  orders them in C (``seq`` is unique, so a comparison never reaches
  ``fn``); :meth:`SimulationEngine.run` settles, pops and fires the head in
  one loop body rather than through a call per step.
- **Only a cancellable event carries a handle.**  :meth:`SimulationEngine.
  schedule_at` is fire-and-forget: it pushes the callback and its
  arguments and returns nothing, which is what a datagram delivery, a
  spec's first attempt or a scripted fault needs -- nothing ever cancels
  them, and the network schedules one per datagram.  :meth:`SimulationEngine.
  schedule` and :meth:`SimulationEngine.reschedule` return an
  :class:`EventHandle` (timers, watchdogs, outbox flushes: anything a
  caller may cancel or re-arm); its entry is ``(time, seq, handle, None)``,
  the ``None`` marking where the callback lives.
- **Lazy cancellation with bounded garbage.**  ``EventHandle.cancel`` leaves
  the heap entry in place (an O(log n) removal per cancel would dominate ARQ
  timer churn), but the engine counts cancelled residents and compacts the
  heap once they exceed :attr:`SimulationEngine.compact_fraction` of it, so
  a timer-heavy workload can no longer pin an ever-growing heap.
- **O(1) ``pending_count``** via the same counter.
- **Reusable timer slots.**  :meth:`SimulationEngine.reschedule` re-arms a
  still-pending handle by *deferring* it in place: the heap entry keeps its
  position and is pushed to the new deadline only when it surfaces, which
  replaces the cancel+push pair per ARQ ack/heartbeat cycle with a couple of
  attribute writes.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: Reasons :meth:`SimulationEngine.run` returned, in its own words.  A
#: harness that saw ``RUN_HORIZON`` knows events remain beyond ``until``;
#: ``RUN_EXHAUSTED`` means the queue is truly empty — ``peek_time()`` alone
#: cannot tell those apart after the fact (it returns None in both cases
#: once the horizon event has been consumed by a later run).
RUN_EXHAUSTED = "exhausted"  #: queue empty (time advanced to ``until`` if given)
RUN_HORIZON = "horizon"  #: next event lies beyond ``until``; it stays queued
RUN_STOPPED = "stopped"  #: :meth:`SimulationEngine.stop` was called
RUN_PREDICATE = "predicate"  #: the ``stop_when`` predicate returned True
RUN_BUDGET = "budget"  #: ``max_events`` events were processed


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class EventHandle:
    """A cancellable handle to a scheduled event.

    Cancellation is lazy: the heap entry stays in place but is skipped when
    popped.  ``fired`` is True once the callback has run.  ``fire_at`` is the
    real deadline: normally equal to ``time`` (the heap position), it is
    moved forward by :meth:`SimulationEngine.reschedule` without touching the
    heap — the engine re-sorts the entry when it surfaces.  ``time`` and
    ``seq`` mirror the handle's ``(time, seq, handle, None)`` heap entry;
    the heap orders on the tuple, never on the handle.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "fire_at", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        engine: Optional["SimulationEngine"] = None,
    ):
        self.time = time
        self.fire_at = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if it already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        # Drop references so cancelled timers don't pin large closures.
        self.fn = None
        self.args = ()
        if self._engine is not None:
            self._engine._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not yet fired/cancelled."""
        return not self.cancelled and not self.fired


class SimulationEngine:
    """Single-threaded deterministic discrete-event loop.

    Typical use::

        engine = SimulationEngine()
        engine.schedule(10.0, my_callback, arg1, arg2)
        engine.run(until=1000.0)

    The engine stops when the event queue is empty, when ``until`` is
    reached, or when :meth:`stop` is called from inside a callback;
    :meth:`run` reports which of those happened.
    """

    #: Compact the heap when cancelled entries exceed this fraction of it
    #: (and at least ``compact_min`` of them have accumulated).  Instance
    #: attributes so tests can disable compaction to compare traces.
    compact_fraction = 0.5
    compact_min = 64

    def __init__(self) -> None:
        #: ``(time, seq, fn, args)`` entries, or ``(time, seq, handle, None)``
        #: for a cancellable event: ``seq`` is unique, so ``heapq`` orders
        #: them by comparing floats and ints in C and never reaches ``fn``.
        self._heap: list[tuple[float, int, Any, Optional[tuple]]] = []
        #: Current simulation time: the time of the event firing, or of the
        #: last one fired.  Only the engine writes it.
        self.now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        self._cancelled_in_heap = 0
        self.events_processed = 0
        self.compactions = 0

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now;
        returns the handle that cancels it."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._push_handle(self.now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at an absolute simulation time, for good:
        no handle, so nothing can cancel it (use :meth:`schedule` for an
        event that may be cancelled)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        seq = self._seq = self._seq + 1
        heapq.heappush(self._heap, (time, seq, fn, args))

    def _push_handle(self, time: float, fn: Callable[..., Any], args: tuple) -> EventHandle:
        seq = self._seq = self._seq + 1
        handle = EventHandle(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, seq, handle, None))
        return handle

    def reschedule(
        self,
        handle: Optional[EventHandle],
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
    ) -> EventHandle:
        """Re-arm a timer slot: ``fn(*args)`` fires ``delay`` from now.

        When ``handle`` is still pending and the new deadline is not earlier
        than its current heap position (the common case for retransmit
        timers and heartbeats, which only ever push their deadline out), the
        existing heap entry is reused by deferring it in place — no cancel,
        no push.  Otherwise (handle is None, already fired/cancelled, or the
        new deadline is earlier) it falls back to cancel + fresh schedule.
        Returns the live handle to store back into the slot.
        """
        if delay < 0:
            raise SimulationError(f"cannot reschedule into the past (delay={delay})")
        target = self.now + delay
        if handle is not None and not handle.cancelled and not handle.fired:
            if target >= handle.time:
                handle.fire_at = target
                handle.fn = fn
                handle.args = args
                return handle
            handle.cancel()
        return self._push_handle(target, fn, args)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None if queue is empty.

        None is ambiguous after a bounded :meth:`run`: "idle until the
        horizon" and "nothing pending at all" look identical here.  Use the
        value :meth:`run` returns (``RUN_HORIZON`` vs ``RUN_EXHAUSTED``) to
        distinguish them.
        """
        return None if self._settle_head() is None else self._heap[0][0]

    def _settle_head(self) -> Optional[tuple]:
        """Expose the next *live* event at the heap top.

        Discards cancelled entries and re-sorts entries whose deadline was
        deferred by :meth:`reschedule`; returns the settled head entry
        without popping it.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3] is not None:
                return entry
            head = entry[2]
            if head.cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
            elif head.fire_at > head.time:
                self._resort_deferred(head)
            else:
                return entry
        return None

    def _resort_deferred(self, head: EventHandle) -> None:
        """Move a deferred timer surfacing at its old heap position to its
        real deadline (a new seq keeps same-time FIFO order)."""
        heapq.heappop(self._heap)
        head.time = head.fire_at
        head.seq = self._seq = self._seq + 1
        heapq.heappush(self._heap, (head.time, head.seq, head, None))

    def step(self) -> bool:
        """Run the single next pending event.

        Returns False when no pending event remains.
        """
        if self._settle_head() is None:
            return False
        time, _, fn, args = heapq.heappop(self._heap)
        self.now = time
        if args is None:
            handle = fn
            handle.fired = True
            fn, args = handle.fn, handle.args
            handle.fn = None
            handle.args = ()
        fn(*args)
        self.events_processed += 1
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> str:
        """Run events until exhaustion, ``until`` time, event budget, or predicate.

        ``stop_when`` is evaluated after every processed event; it allows a
        harness to run "until all transactions are terminal" even while
        perpetual timers (heartbeats) keep the queue non-empty.

        Returns the reason the loop stopped — one of :data:`RUN_EXHAUSTED`
        (queue empty; with ``until`` given, time still advanced to the
        horizon), :data:`RUN_HORIZON` (events remain, but beyond ``until``),
        :data:`RUN_STOPPED`, :data:`RUN_PREDICATE` or :data:`RUN_BUDGET`.
        Callers that used to infer exhaustion from ``peek_time() is None``
        should use this instead: after a horizon-bounded run both cases
        leave the same ``peek_time`` answer for horizons beyond the last
        event.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._stopped = False
        processed = 0
        # The whole library funnels through this loop, so it settles the
        # head (as _settle_head does) and fires it (as _fire does) inline
        # rather than through three calls per event.  ``heap`` stays valid
        # across callbacks because _compact rewrites the list in place.
        heap = self._heap
        heappop = heapq.heappop
        try:
            while True:
                if self._stopped:
                    return RUN_STOPPED
                if not heap:
                    if until is not None and until > self.now:
                        # An empty queue still lets time pass up to the
                        # requested horizon (run_for semantics).
                        self.now = until
                    return RUN_EXHAUSTED
                time, _, fn, args = heap[0]
                if args is None:
                    # A handle's entry: settle it as _settle_head does.
                    if fn.cancelled:
                        heappop(heap)
                        self._cancelled_in_heap -= 1
                        continue
                    if fn.fire_at > time:
                        self._resort_deferred(fn)
                        continue
                if until is not None and time > until:
                    self.now = until
                    return RUN_HORIZON
                heappop(heap)
                self.now = time
                if args is None:
                    handle = fn
                    handle.fired = True
                    fn, args = handle.fn, handle.args
                    handle.fn = None
                    handle.args = ()
                fn(*args)
                self.events_processed += 1
                processed += 1
                if stop_when is not None and stop_when():
                    return RUN_PREDICATE
                if max_events is not None and processed >= max_events:
                    return RUN_BUDGET
        finally:
            self._running = False

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= self.compact_min
            and self._cancelled_in_heap > self.compact_fraction * len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Purge cancelled entries and re-heapify.

        ``heapify`` on the (time, seq) total order reproduces exactly the
        pop order of the garbage-laden heap, so compaction is invisible to
        the simulation (asserted by the determinism tests).  The list is
        rewritten in place: a cancel inside a callback compacts the very
        list :meth:`run` is iterating.
        """
        self._heap[:] = [
            entry for entry in self._heap if entry[3] is not None or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.compactions += 1

    def pending_count(self) -> int:
        """Number of not-cancelled events still queued (O(1))."""
        return len(self._heap) - self._cancelled_in_heap

    def heap_size(self) -> int:
        """Raw heap length including cancelled residents (for tests/metrics)."""
        return len(self._heap)