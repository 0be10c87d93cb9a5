"""Causal broadcast: reliable broadcast + causal delivery order [Bv94].

Implementation: the classic vector-clock holdback algorithm.  Site ``i``
increments its clock entry and stamps the outgoing message; a received
message from ``j`` with clock ``V`` is deliverable at site ``k`` when

- ``V[j] == local[j] + 1``  (it is the next broadcast of ``j``), and
- ``V[x] <= local[x]`` for all ``x != j``  (everything the sender had
  delivered, we have delivered).

Deliverability is tracked *incrementally*: a held-back message counts the
clock entries still blocking it (its **deficit**) and indexes itself under
each missing ``(site, value)`` pair.  Every local delivery advances exactly
one clock entry, so it pops exactly one waiting-index bucket and decrements
the deficits found there; a message whose deficit reaches zero joins an
arrival-ordered ready heap.  Delivery work is therefore proportional to the
messages actually unblocked, not to a rescan of the whole holdback queue —
the per-event cost no longer degrades as bursts deepen the queue.  Delivery
*order* is unchanged from the historical scan-and-restart loop: that loop
always delivered the earliest-arrived deliverable message next, and
deliverability is monotone (a deliverable message stays deliverable until
delivered), so popping the minimum arrival rank from the ready heap yields
the identical sequence.

**Deliver at once.**  Almost every arrival is the sender's next broadcast
with nothing else missing: 99 % and more on the benchmark's lossless ABP
and CBP workloads, 89 % under 2 % datagram loss, where retransmission
delays one sender's messages behind another's.  Such a message is
delivered straight from admission, with no holdback entry and no heap
traffic, when the ready heap is empty: one C-level pass,
``sum(map(gt, stamped, local)) == 1``, confirms that only the sender's own
entry is ahead.  The order is still the scan-and-restart loop's: with the
heap empty no held message is deliverable, so the new arrival is the
earliest-arrived deliverable one, and it still takes an arrival rank, so
later ranks are unchanged.  A non-empty heap (a delivery releasing
waiters, survivors re-indexed by :meth:`~CausalBroadcast.adopt_state`)
holds earlier-ranked ready messages, so the arrival waits its turn there.

As the paper requires for the CBP protocol, the message clocks are exposed
to the application layer: the upward callback receives the stamped envelope,
and :meth:`clock` reports the site's current delivered-vector, so protocols
can test causal precedence and concurrency between operations.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from operator import gt
from typing import Any, Callable, Optional

from repro.broadcast.message import BroadcastMessage
from repro.broadcast.reliable import ReliableBroadcast
from repro.broadcast.vector_clock import VectorClock
from repro.net.sizes import kind_of, register_payload


@dataclass(slots=True)
class CausalEnvelope:
    """A payload stamped with the sender's vector clock at broadcast time."""

    vc: VectorClock
    payload: Any
    kind: str = ""

    def __post_init__(self) -> None:
        self.kind = sys.intern(self.kind or kind_of(self.payload))


class _Held:
    """One held-back message and the count of clock entries blocking it."""

    __slots__ = ("order", "message", "envelope", "deficit")

    def __init__(self, order: int, message: BroadcastMessage, envelope: CausalEnvelope):
        self.order = order
        self.message = message
        self.envelope = envelope
        self.deficit = 0


class CausalBroadcast:
    """Causal broadcast endpoint for one site."""

    def __init__(self, reliable: ReliableBroadcast):
        self.reliable = reliable
        self.site = reliable.site
        self.num_sites = reliable.num_sites
        self._clock = VectorClock.zero(self.num_sites)
        self._send_seq = 0
        #: Holdback state: every undelivered message by arrival rank, the
        #: ready heap of (rank, held) with deficit zero, and the waiting
        #: index mapping each missing (site, value) clock entry to the
        #: messages it blocks.
        self._held: dict[int, _Held] = {}
        self._heap: list[tuple[int, _Held]] = []
        self._waiting: dict[tuple[int, int], list[_Held]] = {}
        self._arrivals = 0
        self._deliver: Optional[Callable[[BroadcastMessage, CausalEnvelope], None]] = None
        self.delivered_count = 0
        #: Optional matrix-clock stability tracking (see enable_stability).
        self.stability = None
        reliable.set_deliver(self._on_reliable_deliver)

    def enable_stability(self):
        """Attach a :class:`repro.broadcast.stability.StabilityTracker`.

        Every delivered envelope's clock feeds the tracker (it states what
        the sender had delivered), as does our own clock after each local
        delivery.  Returns the tracker.
        """
        from repro.broadcast.stability import StabilityTracker

        self.stability = StabilityTracker(self.num_sites, self.site)
        return self.stability

    @property
    def clock(self) -> VectorClock:
        """Copy of the site's current delivered-vector clock."""
        return self._clock.copy()

    def frontier(self) -> VectorClock:
        """What a broadcast issued now would causally follow: the delivered
        clock with this site's own entry at its send counter (its own
        broadcasts count from the moment they are sent)."""
        stamp = self._clock.copy()
        stamp.entries[self.site] = self._send_seq
        return stamp

    def set_deliver(self, fn: Callable[[BroadcastMessage, CausalEnvelope], None]) -> None:
        self._deliver = fn

    def broadcast(self, payload: Any, kind: Optional[str] = None) -> CausalEnvelope:
        """Causally broadcast ``payload``; returns the stamped envelope.

        The returned envelope's clock identifies this broadcast: its entry
        for this site is the broadcast's own event number, which protocols
        use for the implicit-acknowledgment test.

        The stamp combines the delivered-vector (what we have seen) with our
        own *send* counter, so back-to-back broadcasts issued before our own
        first message loops back through delivery still get distinct,
        FIFO-ordered stamps.
        """
        self._send_seq += 1
        stamp = self._clock.copy()
        stamp.entries[self.site] = self._send_seq
        envelope = CausalEnvelope(stamp, payload, kind or "")
        self.reliable.broadcast(envelope, envelope.kind)
        return envelope

    # -- receive path: admission, delivery -----------------------------------------

    def _on_reliable_deliver(self, message: BroadcastMessage) -> None:
        self._admit(message, message.payload)
        self._pump()

    def _admit(self, message: BroadcastMessage, envelope: CausalEnvelope) -> None:
        """Deliver a message at once when it is the next in causal order,
        else index it under every clock entry still blocking it.  A stamp
        at or below the sender's delivered entry is dropped: it is covered
        — delivered already, or skipped by a state transfer's fast-forward
        (its effects are in the snapshot and the adopted books), which is
        how traffic held during the transfer is cut."""
        sender = message.sender
        stamped = envelope.vc.entries
        local = self._clock.entries
        seq = stamped[sender]
        if seq <= local[sender]:
            return
        order = self._arrivals
        self._arrivals += 1
        # Nothing ready ranks ahead of it, it is the sender's next broadcast
        # and no other entry is ahead of ours: deliverable now.
        if not self._heap and seq == local[sender] + 1 and sum(map(gt, stamped, local)) == 1:
            self._apply(message, envelope)
            return
        held = _Held(order, message, envelope)
        self._held[order] = held
        self._register(held)

    def _register(self, held: _Held) -> None:
        sender = held.message.sender
        # Hot path: raw entry lists, one scan, no generator machinery.
        stamped = held.envelope.vc.entries
        local = self._clock.entries
        deficit = 0
        seq = stamped[sender]
        if seq != local[sender] + 1:
            # Waits for the sender's preceding broadcast.
            deficit += 1
            self._waiting.setdefault((sender, seq - 1), []).append(held)
        for site, seen in enumerate(stamped):
            if site != sender and seen > local[site]:
                deficit += 1
                self._waiting.setdefault((site, seen), []).append(held)
        held.deficit = deficit
        if deficit == 0:
            heapq.heappush(self._heap, (held.order, held))

    def _pump(self) -> None:
        """Deliver ready messages in arrival order until the heap drains."""
        heap = self._heap
        while heap:
            order, held = heapq.heappop(heap)
            del self._held[order]
            self._apply(held.message, held.envelope)

    def _apply(self, message: BroadcastMessage, envelope: CausalEnvelope) -> None:
        sender = message.sender
        self._clock.increment_inplace(sender)
        self.delivered_count += 1
        if self.stability is not None:
            self.stability.observe(sender, envelope.vc)
            self.stability.observe(self.site, self._clock)
        # This delivery advanced exactly one clock entry: release the
        # messages waiting on it.
        waiters = self._waiting.pop((sender, self._clock.entries[sender]), None)
        if waiters is not None:
            for held in waiters:
                held.deficit -= 1
                if held.deficit == 0:
                    heapq.heappush(self._heap, (held.order, held))
        if self._deliver is None:
            raise RuntimeError(f"site {self.site}: causal broadcast has no deliver callback")
        self._deliver(message, envelope)

    def pending_count(self) -> int:
        """Messages held back waiting for causal predecessors."""
        return len(self._held)

    # -- the stack's chain: view changes and state transfer ------------------------

    def set_group(self, members: list[int]) -> None:
        """Adopt a new view: the reliable layer below keeps the group."""
        self.reliable.set_group(members)

    def export_state(self) -> dict:
        """The lower layers' state-transfer keys plus ours: the delivered
        clock."""
        state = self.reliable.export_state()
        state["causal_clock"] = list(self._clock)
        return state

    def adopt_state(self, state: Any) -> None:
        """Rejoiner side (the reply carries the exported keys as attributes):
        jump the delivered-vector past messages the state transfer already
        covers.  Our own send counter is preserved — peers still expect our
        next broadcast to continue our own sequence — and held-back messages
        from the skipped past are discarded.  Survivors are re-indexed
        against the new clock, keeping their arrival ranks; delivery resumes
        with the next arrival, not here.
        """
        self.reliable.adopt_state(state)
        own_send_seq = max(self._send_seq, state.causal_clock[self.site])
        self._clock = VectorClock(state.causal_clock)
        self._clock.entries[self.site] = own_send_seq
        self._send_seq = own_send_seq
        survivors = [
            self._held[order]
            for order in sorted(self._held)
            if self._deliverable_in_future(self._held[order])
        ]
        self._held = {}
        self._heap = []
        self._waiting = {}
        for held in survivors:
            self._held[held.order] = held
            self._register(held)

    def _deliverable_in_future(self, held: _Held) -> bool:
        return held.envelope.vc[held.message.sender] > self._clock[held.message.sender]


# Import-time shape check for the size model (detcheck P201/P202).
register_payload(CausalEnvelope)
