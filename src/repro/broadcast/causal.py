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

As the paper requires for the CBP protocol, the message clocks are exposed
to the application layer: the upward callback receives the stamped envelope,
and :meth:`clock` reports the site's current delivered-vector, so protocols
can test causal precedence and concurrency between operations.

**Delta clocks** (:meth:`CausalBroadcast.enable_delta_clocks`): with the
batching feature on, a broadcast may ship a :class:`DeltaCausalEnvelope`
carrying only the clock entries that changed since the sender's previous
broadcast, instead of the full O(n) vector.  Every receiver reconstructs
the full stamp from its record of that previous stamp; a delta arriving
before its base (relay and retransmission reorder across links) is parked
until the base reconstructs.  The sender falls back to a full clock
whenever continuity is in doubt — first broadcast, view change
(:meth:`set_group`, which also covers ARQ epoch bumps: link incarnations
only change through the crash/recovery path that announces a view change)
or recovery (:meth:`adopt_state`) — and whenever the delta would not
actually be smaller on the wire.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.broadcast.message import BroadcastMessage
from repro.broadcast.reliable import ReliableBroadcast
from repro.broadcast.vector_clock import VectorClock
from repro.net.sizes import estimate_size, kind_of, register_payload


@dataclass(slots=True)
class CausalEnvelope:
    """A payload stamped with the sender's vector clock at broadcast time."""

    vc: VectorClock
    payload: Any
    kind: str = ""

    def __post_init__(self) -> None:
        self.kind = sys.intern(self.kind or kind_of(self.payload))


@dataclass(slots=True)
class DeltaCausalEnvelope:
    """A payload stamped with only the clock entries that changed.

    ``delta`` holds ``(site, value)`` pairs — the output of
    :meth:`VectorClock.delta_since` against the sender's previous stamp.
    The sender's own entry always appears (each broadcast increments it),
    so the receiver reads the sender's sequence number straight from the
    delta to order reconstruction.  Receivers rebuild the full
    :class:`CausalEnvelope` before the holdback queue ever sees the
    message; the rest of the stack is delta-agnostic.
    """

    delta: tuple[tuple[int, int], ...]
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
        #: Delta-clock state (enable_delta_clocks): the stamp of our own
        #: previous broadcast, whether the next broadcast must ship a full
        #: clock, each peer's last reconstructed stamp, and deltas parked
        #: waiting for their reconstruction base, per sender by sequence.
        self._delta_enabled = False
        self._last_stamp: Optional[VectorClock] = None
        self._full_due = True
        self._recon: dict[int, VectorClock] = {}
        self._recon_pending: dict[int, dict[int, BroadcastMessage]] = {}
        self.deltas_sent = 0
        self.fulls_sent = 0
        self.deltas_parked = 0
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

    def enable_delta_clocks(self) -> None:
        """Ship vector clocks as deltas against the previous broadcast
        whenever that is smaller on the wire (see the module docstring).
        Cluster-wide: every site of a group must agree, since receivers
        only reconstruct what senders encode."""
        self._delta_enabled = True

    @property
    def clock(self) -> VectorClock:
        """Copy of the site's current delivered-vector clock."""
        return self._clock.copy()

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

        With delta clocks enabled the wire form may be a
        :class:`DeltaCausalEnvelope`; the returned envelope is always the
        full stamp regardless.
        """
        self._send_seq += 1
        stamp = self._clock.copy()
        stamp.entries[self.site] = self._send_seq
        envelope = CausalEnvelope(stamp, payload, kind or "")
        wire: Any = envelope
        if self._delta_enabled:
            wire = self._encode(envelope)
        self._last_stamp = stamp
        self.reliable.broadcast(wire, envelope.kind)
        return envelope

    def _encode(self, envelope: CausalEnvelope) -> Any:
        """Pick the wire form: delta when safe and strictly smaller."""
        if self._full_due or self._last_stamp is None:
            self._full_due = False
            self.fulls_sent += 1
            return envelope
        delta = envelope.vc.delta_since(self._last_stamp)
        # Payload and kind are common to both forms: compare the encodings.
        if estimate_size(delta) < estimate_size(envelope.vc):
            self.deltas_sent += 1
            return DeltaCausalEnvelope(delta, envelope.payload, envelope.kind)
        self.fulls_sent += 1
        return envelope

    # -- receive path: reconstruction, admission, delivery ------------------------

    def _on_reliable_deliver(self, message: BroadcastMessage) -> None:
        payload = message.payload
        if type(payload) is DeltaCausalEnvelope:
            envelope = self._decode_delta(message)
            if envelope is None:
                return  # parked until its base reconstructs, or stale
        else:
            envelope = payload
            if self._delta_enabled:
                self._note_recon(message.sender, envelope.vc)
        self._admit(message, envelope)
        if self._recon_pending:
            self._drain_recon(message.sender)
        self._pump()

    def _decode_delta(self, message: BroadcastMessage) -> Optional[CausalEnvelope]:
        wire: DeltaCausalEnvelope = message.payload
        sender = message.sender
        seq = -1
        for site, value in wire.delta:
            if site == sender:
                seq = value
                break
        if seq < 0:
            raise RuntimeError(
                f"site {self.site}: delta from {sender} lacks the sender's own entry"
            )
        prev = self._recon.get(sender)
        if prev is None or seq > prev.entries[sender] + 1:
            # Base not reconstructed yet (relay/retransmit reorder): park.
            self._recon_pending.setdefault(sender, {})[seq] = message
            self.deltas_parked += 1
            return None
        if seq <= prev.entries[sender]:
            return None  # stale duplicate of an already-reconstructed stamp
        vc = prev.apply_delta(wire.delta)
        self._recon[sender] = vc
        return CausalEnvelope(vc, wire.payload, wire.kind)

    def _note_recon(self, sender: int, vc: VectorClock) -> None:
        """A full stamp re-seeds the reconstruction chain for ``sender``."""
        prev = self._recon.get(sender)
        if prev is None or vc.entries[sender] > prev.entries[sender]:
            self._recon[sender] = vc

    def _drain_recon(self, sender: int) -> None:
        """Admit parked deltas from ``sender`` whose base just arrived."""
        parked = self._recon_pending.get(sender)
        if not parked:
            return
        while True:
            prev = self._recon[sender]
            message = parked.pop(prev.entries[sender] + 1, None)
            if message is None:
                break
            wire: DeltaCausalEnvelope = message.payload
            vc = prev.apply_delta(wire.delta)
            self._recon[sender] = vc
            self._admit(message, CausalEnvelope(vc, wire.payload, wire.kind))
        if not parked:
            del self._recon_pending[sender]

    def _admit(self, message: BroadcastMessage, envelope: CausalEnvelope) -> None:
        """Index a message under every clock entry still blocking it.  A
        stamp at or below the sender's delivered entry is dropped: it is
        covered — delivered already, or skipped by a state transfer's
        fast-forward (its effects are in the snapshot and the adopted
        books), which is how traffic held during the transfer is cut."""
        if envelope.vc.entries[message.sender] <= self._clock.entries[message.sender]:
            return
        held = _Held(self._arrivals, message, envelope)
        self._arrivals += 1
        self._held[held.order] = held
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
        """Messages held back waiting for causal predecessors (including
        deltas parked for reconstruction)."""
        parked = sum(
            len(self._recon_pending[sender]) for sender in sorted(self._recon_pending)
        )
        return len(self._held) + parked

    # -- the stack's chain: view changes and state transfer ------------------------

    def set_group(self, members: list[int]) -> None:
        """Adopt a new view, bottom-up.  Some receiver may have lost our
        reconstruction chain (this also covers ARQ link-epoch bumps): the
        next broadcast ships a full clock."""
        self.reliable.set_group(members)
        self._full_due = True

    def export_state(self) -> dict:
        """The lower layers' state-transfer keys plus ours: the delivered
        clock and, with delta clocks on (``None`` costs no wire bytes), the
        last reconstructed stamp per sender, so a rejoiner can decode deltas
        that straddle the transfer — under static membership no view change
        makes the senders go full, so this is the only defense."""
        state = self.reliable.export_state()
        state["causal_clock"] = list(self._clock)
        if self._delta_enabled:
            state["causal_recon"] = {s: list(vc) for s, vc in self._recon.items()}
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
        # Receivers may have lost our reconstruction chain while we were
        # away; ship a full clock first.
        self._full_due = True
        for sender, entries in sorted((state.causal_recon or {}).items()):
            self._note_recon(sender, VectorClock(entries))

    def _deliverable_in_future(self, held: _Held) -> bool:
        return held.envelope.vc[held.message.sender] > self._clock[held.message.sender]


# Import-time shape check for the size model (detcheck P201/P202).
register_payload(CausalEnvelope)
register_payload(DeltaCausalEnvelope)
