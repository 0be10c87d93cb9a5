"""Atomic (total-order) broadcast, consistent with causal order.

The paper's ABP protocol needs a total order on commit requests that also
respects causality, while write operations may travel by plain causal
broadcast (ISIS provides both primitives [Bv94]).  This layer therefore sits
*on top of* :class:`repro.broadcast.causal.CausalBroadcast` and offers both:

- :meth:`broadcast` -- total-order delivery (a global sequence number), and
- :meth:`broadcast_causal` -- pass-through causal delivery,

with a single upward callback so the two streams interleave correctly
(causally-ordered messages are never delayed behind unrelated sequencing).

Two orderers are implemented (ablation experiment E10):

- **fixed sequencer** (default): the lowest-id group member assigns global
  sequence numbers to ordered messages as it causally delivers them, and
  causally broadcasts the assignment.  Because the assignment causally
  follows the data message, every site has the data by the time it learns
  the number; and because the sequencer's causal delivery order extends the
  causal partial order, the resulting total order is causal.
- **token ring** (Totem-style [AMMS+95]): a token carrying the next global
  sequence number circulates; a site stamps its pending ordered messages
  while holding the token.

Every delivery consults :attr:`TotalOrderBroadcast.is_sequencer`, a plain
attribute that :meth:`~TotalOrderBroadcast.set_group` keeps with the sorted
group, and numbered messages wait in a heap of ``(epoch, seq)`` keys, so
recording and delivering one costs a heap push and pop, not a re-sort of
the queue and a list shift.

Sequencer takeover on view change is best-effort (the new lowest-id member
assigns the unassigned backlog under a higher epoch).  A production system
needs a view flush here; the fault-injection experiments in this repository
crash non-sequencer sites or quiesce first, as documented in DESIGN.md.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.broadcast.causal import CausalBroadcast, CausalEnvelope
from repro.broadcast.message import BroadcastMessage, MessageId
from repro.net.sizes import kind_of, register_payload
from repro.sim.engine import SimulationEngine
from repro.sim.outbox import Outbox
from repro.sim.process import Process

TOKEN_CHANNEL = "abcast.token"


@dataclass(slots=True)
class SequencedEnvelope:
    """Inner wrapper distinguishing ordered from causal-only payloads."""

    payload: Any
    ordered: bool
    kind: str = ""
    preassigned: Optional[tuple[int, int]] = None  # (epoch, seq) in token mode

    def __post_init__(self) -> None:
        self.kind = sys.intern(self.kind or kind_of(self.payload))


@dataclass(slots=True)
class OrderAssignment:
    """Sequencer-issued mapping of message ids to global sequence numbers."""

    epoch: int
    assignments: list[tuple[MessageId, int]]
    kind: str = "abcast.order"


@dataclass(slots=True)
class Token:
    """Totem-style circulating token carrying the next sequence number."""

    epoch: int
    next_seq: int
    kind: str = "abcast.token"


@dataclass(slots=True)
class _OrderedPending:
    message: BroadcastMessage
    envelope: CausalEnvelope


DeliverFn = Callable[[Any, CausalEnvelope, Optional[int]], None]


class TotalOrderBroadcast(Process):
    """Atomic broadcast endpoint for one site, layered on causal broadcast.
    A :class:`Process`: the stability tick and the token hold are its timers,
    so they stop with the site and the tick resumes when it recovers."""

    def __init__(
        self,
        engine: SimulationEngine,
        causal: CausalBroadcast,
        mode: str = "sequencer",
        token_hold: float = 1.0,
        uniform: bool = False,
        stability_interval: float = 10.0,
        group_commit: bool = False,
    ):
        if mode not in ("sequencer", "token"):
            raise ValueError(f"unknown total-order mode {mode!r}")
        super().__init__(engine, f"abcast{causal.site}")
        self.causal = causal
        self.site = causal.site
        self.num_sites = causal.num_sites
        self.mode = mode
        self.token_hold = token_hold
        #: Uniform delivery: an ordered message is handed to the
        #: application only once it is *stable* (delivered at every group
        #: member, per the matrix-clock tracker).  This closes the
        #: durability window of non-uniform delivery — a site can no longer
        #: commit a transaction whose commit request would vanish if that
        #: site and the sequencer crashed — at the price of roughly one
        #: extra one-way delay, bounded by ``stability_interval`` null
        #: messages on an idle system.
        self.uniform = uniform
        self.stability_interval = stability_interval
        self.group: list[int] = list(range(self.num_sites))
        #: The lowest-id group member orders (``group`` is sorted); kept
        #: with ``group`` by :meth:`set_group`, read on every delivery.
        self.is_sequencer = self.site == self.group[0]
        self.epoch = 0
        self._deliver: Optional[DeliverFn] = None
        # Ordered-delivery machinery.
        self.next_delivery_index = 0
        self._ready: dict[tuple[int, int], _OrderedPending] = {}
        self._unordered: dict[MessageId, _OrderedPending] = {}
        #: Heap of keys awaiting delivery; a key already delivered or cut
        #: by a state transfer is stale and skipped when it surfaces.
        self._delivery_order: list[tuple[int, int]] = []
        # Sequencer state.
        self._next_seq = 0
        #: Group commit: the sequencer accumulates the assignments it issues
        #: at one simulation instant and broadcasts them as a single
        #: OrderAssignment per epoch run, instead of one per message.
        self.group_commit = group_commit
        self._assign_outbox = Outbox(engine, self._flush_assignments)
        # Token state: payloads wait here (no timer) for the token.
        self._outbox = Outbox(engine)
        self._has_token = False
        causal.set_deliver(self._on_causal_deliver)
        if uniform:
            tracker = causal.enable_stability()
            tracker.on_advance(lambda stable: self._drain())
            self._last_own_broadcast = 0.0
            self.every(stability_interval, self._stability_tick)
        if mode == "token":
            causal.reliable.router.register(TOKEN_CHANNEL, self._on_token)
            if self.site == 0:
                self.schedule(0.0, self._acquire_token, Token(0, 0))

    # -- public API ---------------------------------------------------------

    def set_deliver(self, fn: DeliverFn) -> None:
        """Register ``fn(payload, envelope, order_index)``.

        ``payload`` is the application payload (unwrapped), ``envelope`` the
        causal envelope carrying its vector clock, and ``order_index`` the
        global total-order position for ordered messages (``None`` for
        causal-only messages).
        """
        self._deliver = fn

    def broadcast(self, payload: Any, kind: Optional[str] = None) -> None:
        """Atomically broadcast ``payload`` (total + causal order)."""
        if self.uniform:
            self._last_own_broadcast = self.engine.now
        if self.mode == "sequencer":
            self.causal.broadcast(SequencedEnvelope(payload, True, kind or ""), kind)
        else:
            self._outbox.put((payload, kind or ""))
            if self._has_token:
                self._flush_outbox()

    def broadcast_causal(self, payload: Any, kind: Optional[str] = None) -> None:
        """Causally broadcast ``payload`` (no total ordering)."""
        if self.uniform:
            self._last_own_broadcast = self.engine.now
        self.causal.broadcast(SequencedEnvelope(payload, False, kind or ""), kind)

    def set_group(self, members: list[int]) -> None:
        """Adopt a new view, bottom-up (a takeover broadcasts into the new
        group): re-elect the sequencer, bump the epoch and, when uniform,
        take stability over the new members — a departed member's last row
        would otherwise pin it for good."""
        self.causal.set_group(members)
        self.group = sorted(members)
        self.is_sequencer = self.site == self.group[0]
        self.epoch += 1
        if self.uniform:
            self.causal.stability.restrict_to(members)
            self._drain()
        if self.mode == "sequencer" and self.is_sequencer:
            # Best-effort takeover: number the unassigned backlog.
            # Canonical (sorted) takeover order: the backlog dict reflects
            # this site's arrival order, which other sites need not share.
            backlog = sorted(self._unordered)
            if backlog:
                assignments = []
                for msg_id in backlog:
                    assignments.append((msg_id, self._next_seq))
                    self._next_seq += 1
                self.causal.broadcast(OrderAssignment(self.epoch, assignments))

    def export_state(self) -> dict:
        """The lower layers' state-transfer keys plus our ordering position."""
        state = self.causal.export_state()
        state["total_order_state"] = {
            "next_delivery_index": self.next_delivery_index,
            "last_delivered_key": self._last_delivered_key,
            "next_seq": self._next_seq,
            "epoch": self.epoch,
        }
        return state

    def adopt_state(self, state: Any) -> None:
        """Rejoiner side: jump past the total-order prefix the transferred
        snapshot covers (``state``: the reply, keys as attributes).

        Numbered messages from the covered prefix are dropped, and so are
        unnumbered ones the adopted causal clock covers — the causal layer's
        own cut.  Those were delivered before this site crashed and still
        wait for their number, but the message predates the crash, any
        takeover and the donor's settle window (``RecoveryAgent.serve_delay``),
        so the snapshot covers its assignment too: the number never reaches
        this site, and the entry would otherwise stay for good.
        """
        self.causal.adopt_state(state)
        order = state.total_order_state
        self.next_delivery_index = order["next_delivery_index"]
        last = self._last_delivered_key = order["last_delivered_key"]
        self._next_seq = max(self._next_seq, order["next_seq"])
        self.epoch = max(self.epoch, order["epoch"])
        self._ready = {
            key: pending for key, pending in self._ready.items() if last is None or key > last
        }
        cut = state.causal_clock
        self._unordered = {
            msg_id: pending
            for msg_id, pending in self._unordered.items()
            if pending.envelope.vc[msg_id.sender] > cut[msg_id.sender]
        }
        self._delivery_order = [key for key in self._delivery_order if key in self._ready]
        heapq.heapify(self._delivery_order)

    # -- causal delivery path ------------------------------------------------

    def _on_causal_deliver(self, message: BroadcastMessage, envelope: CausalEnvelope) -> None:
        inner = envelope.payload
        if isinstance(inner, OrderAssignment):
            self._on_order_assignment(inner)
            return
        if not isinstance(inner, SequencedEnvelope):
            raise RuntimeError(f"site {self.site}: unexpected causal payload {inner!r}")
        if inner.kind == "abcast.stability":
            return  # clock carrier only; the stability tracker saw it
        if not inner.ordered:
            self._handoff(message, envelope, None)
            return
        pending = _OrderedPending(message, envelope)
        if inner.preassigned is not None:
            self._record_order(inner.preassigned, pending)
        elif self.mode == "sequencer" and self.is_sequencer:
            key = (self.epoch, self._next_seq)
            self._next_seq += 1
            # Record before broadcasting (detcheck H402): the message is never
            # unordered here, so its assignment coming back is a duplicate.
            self._record_order(key, pending)
            self._issue_assignment(key[0], message.id, key[1])
        else:
            self._unordered[message.id] = pending
        self._drain()

    def _issue_assignment(self, epoch: int, msg_id: MessageId, seq: int) -> None:
        """Broadcast one assignment, or queue it for the group-commit flush.

        The local :meth:`_record_order` already happened (H402); only the
        wire announcement is deferred, by one zero-delay event, so every
        ordered message the sequencer delivers at this instant shares one
        OrderAssignment frame.
        """
        if not self.group_commit:
            self.causal.broadcast(OrderAssignment(epoch, [(msg_id, seq)]))
            return
        self._assign_outbox.put((epoch, msg_id, seq))

    def _flush_assignments(self, outbox: list[tuple[int, MessageId, int]]) -> None:
        # One OrderAssignment per contiguous same-epoch run, so a view
        # change mid-window never mixes epochs inside one frame.
        index = 0
        while index < len(outbox):
            epoch = outbox[index][0]
            assignments: list[tuple[MessageId, int]] = []
            while index < len(outbox) and outbox[index][0] == epoch:
                assignments.append((outbox[index][1], outbox[index][2]))
                index += 1
            self.causal.broadcast(OrderAssignment(epoch, assignments))

    def on_crash(self) -> None:
        """Fail-stop: assignments queued for the flush are lost with the
        site (the takeover sequencer re-numbers the unassigned backlog)."""
        self._assign_outbox.clear()

    def _on_order_assignment(self, order: OrderAssignment) -> None:
        for msg_id, seq in order.assignments:
            # An assignment is causally after the message it numbers, so
            # the message is here: numbered already (first assignment wins:
            # the sequencer's own, takeover duplicates) or still unordered.
            pending = self._unordered.pop(msg_id, None)
            if pending is None:
                continue
            if self.mode == "sequencer" and not self.is_sequencer:
                # Track the orderer's counter so a takeover continues from it.
                self._next_seq = max(self._next_seq, seq + 1)
            self._record_order((order.epoch, seq), pending)
        self._drain()

    def _record_order(self, key: tuple[int, int], pending: _OrderedPending) -> None:
        self._ready[key] = pending
        heapq.heappush(self._delivery_order, key)

    def _drain(self) -> None:
        """Deliver ready ordered messages in contiguous global order.

        The global order index counts delivered ordered messages; a message
        is deliverable once every ordered message with a smaller (epoch,
        seq) key has been delivered.  Within one epoch, sequence numbers are
        contiguous from the sequencer, so gap-freedom is detectable.
        """
        queue = self._delivery_order
        while queue:
            key = queue[0]
            if key not in self._ready:
                heapq.heappop(queue)
                continue
            epoch, seq = key
            if not self._is_next(epoch, seq):
                break
            pending = self._ready[key]
            if self.uniform and not self._is_stable(pending):
                break  # stability advance will re-drain
            heapq.heappop(queue)
            del self._ready[key]
            index = self.next_delivery_index
            self.next_delivery_index += 1
            self._last_delivered_key = key
            self._handoff(pending.message, pending.envelope, index)

    _last_delivered_key: Optional[tuple[int, int]] = None

    def _is_stable(self, pending: _OrderedPending) -> bool:
        tracker = self.causal.stability
        assert tracker is not None
        sender = pending.message.sender
        return tracker.is_stable(sender, pending.envelope.vc[sender])

    def _stability_tick(self) -> None:
        """Null messages keep stability advancing on an idle system.

        Suppressed when this site broadcast recently — real traffic's
        piggybacked clocks already carry the information.
        """
        if self.engine.now - self._last_own_broadcast < self.stability_interval:
            # Recent real traffic's piggybacked clock already carried the
            # information; this firing is redundant (detcheck H401 guard).
            return
        self.causal.broadcast(
            SequencedEnvelope(None, False, "abcast.stability"), "abcast.stability"
        )
        self._last_own_broadcast = self.engine.now

    def _is_next(self, epoch: int, seq: int) -> bool:
        last = self._last_delivered_key
        if last is None:
            return seq == 0
        last_epoch, last_seq = last
        if epoch == last_epoch:
            return seq == last_seq + 1
        # New epoch: the takeover sequencer continues the counter, so the
        # first message of an epoch is deliverable when its seq continues
        # from the last delivered one.
        return epoch > last_epoch and seq == last_seq + 1

    def _handoff(
        self,
        message: BroadcastMessage,
        envelope: CausalEnvelope,
        order_index: Optional[int],
    ) -> None:
        if self._deliver is None:
            raise RuntimeError(f"site {self.site}: total-order broadcast has no deliver callback")
        inner: SequencedEnvelope = envelope.payload
        self._deliver(inner.payload, envelope, order_index)

    # -- token mode -----------------------------------------------------------

    def _on_token(self, src: int, token: Token) -> None:
        self._acquire_token(token)

    def _acquire_token(self, token: Token) -> None:
        # Token possession is its own freshness evidence: this fires on
        # direct token receipt or the sole-member self-pass (_pass_token),
        # and a crashed epoch's callbacks are dropped by the engine.
        # detcheck: ignore[H401]
        self._has_token = True
        self._token = token
        self._flush_outbox()
        self.schedule(self.token_hold, self._pass_token)

    def _flush_outbox(self) -> None:
        token = self._token
        for payload, kind in self._outbox.drain():
            key = (token.epoch, token.next_seq)
            token.next_seq += 1
            self.causal.broadcast(
                SequencedEnvelope(payload, True, kind, preassigned=key), kind
            )

    def _pass_token(self) -> None:
        if not self._has_token:
            return
        self._has_token = False
        token = self._token
        members = self.group
        if len(members) <= 1:
            # detcheck: ignore[P203] — sole-member token self-pass; the token
            # argument is the freshness token (stale tokens are discarded).
            self.schedule(self.token_hold, self._acquire_token, token)
            return
        position = members.index(self.site)
        successor = members[(position + 1) % len(members)]
        self.causal.reliable.router.send(successor, TOKEN_CHANNEL, token, "abcast.token")

# Import-time shape check for the size model (detcheck P201/P202).
register_payload(SequencedEnvelope, OrderAssignment, Token)
