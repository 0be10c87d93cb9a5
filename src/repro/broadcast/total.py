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

- **fixed sequencer** (default): a site sends each ordered payload
  point-to-point to the lowest-id group member, which numbers it and
  causally broadcasts it once, number attached (the "send to the sequencer,
  which broadcasts" method: n-1 datagrams a message, plus the forward when
  the origin is not the sequencer).  A forward carries the origin's causal
  frontier, and the sequencer relays it only once its own frontier covers
  that one, so the relay causally follows everything the origin had sent or
  delivered (a pre-shipped write set included); the relays are one site's
  FIFO causal broadcasts, so the total order extends the causal order.
- **token ring** (Totem-style [AMMS+95]): a token carrying the next global
  sequence number circulates; a site stamps its pending ordered messages
  while holding the token.

Both leave one representation of a numbered message: a
:class:`SequencedEnvelope` with the ``preassigned`` ``(epoch, seq)`` its
numbering site set.  Numbered messages wait in a heap of those keys, so
recording and delivering one costs a heap push and pop.

Sequencer takeover on view change: each site keeps its forwards that have
not come back numbered, in FIFO order, and re-forwards them when the view
elects a new sequencer, which continues the sequence counter under a higher
epoch.  A sequencer drops a forward whose ``(origin, n)`` it has relayed or
delivered already; one counter per origin suffices, as an origin's forwards
arrive in FIFO order.  This is still best-effort: a relay the old sequencer
sent to only some sites before it crashed is not flushed (a production
system needs a view flush); the fault-injection experiments in this
repository crash non-sequencer sites or quiesce first, as documented in
DESIGN.md.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from dataclasses import dataclass
from operator import le
from typing import Any, Callable, Optional

from repro.broadcast.causal import CausalBroadcast, CausalEnvelope
from repro.broadcast.message import BroadcastMessage
from repro.broadcast.vector_clock import VectorClock
from repro.net.sizes import kind_of, register_payload
from repro.sim.engine import SimulationEngine
from repro.sim.outbox import Outbox
from repro.sim.process import Process

TOKEN_CHANNEL = "abcast.token"
FORWARD_CHANNEL = "abcast.forward"


@dataclass(slots=True)
class SequencedEnvelope:
    """Inner wrapper distinguishing ordered from causal-only payloads."""

    payload: Any
    ordered: bool
    kind: str = ""
    #: ``(epoch, seq)``, set by the site that numbered the message.
    preassigned: Optional[tuple[int, int]] = None
    #: ``(origin, n)`` of the forward a sequencer relays (``None`` in token mode).
    forward: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        self.kind = sys.intern(self.kind or kind_of(self.payload))


@dataclass(slots=True)
class OrderForward:
    """An ordered payload on its way to the sequencer: its origin's ``n``-th,
    with the origin's causal frontier when it was sent.  ``kind`` is the
    caller's label for the payload, if it gave one (the relay's
    :class:`SequencedEnvelope` derives it otherwise)."""

    n: int
    frontier: VectorClock
    payload: Any
    kind: str = ""


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
        #: Heap of keys awaiting delivery; a key already delivered or cut
        #: by a state transfer is stale and skipped when it surfaces.
        self._delivery_order: list[tuple[int, int]] = []
        # Sequencer state: the next number to give, and per origin one past
        # the last forward relayed (as sequencer) or delivered here.
        self._next_seq = 0
        self._relayed = [0] * self.num_sites
        #: Forwards received and not yet relayed, in arrival order: the
        #: sequencer relays one once its frontier covers the forward's.
        self._parked: list[tuple[int, OrderForward]] = []
        #: This site's forwards not yet delivered back, FIFO, for a
        #: takeover to re-forward.
        self._forwarded: deque[OrderForward] = deque()
        self._forward_seq = 0
        # Token state: payloads wait here (no timer) for the token.
        self._outbox = Outbox(engine)
        self._has_token = False
        causal.set_deliver(self._on_causal_deliver)
        if uniform:
            tracker = causal.enable_stability()
            tracker.on_advance(lambda stable: self._drain())
            self._last_own_broadcast = 0.0
            self.every(stability_interval, self._stability_tick)
        router = self._router = causal.reliable.router
        if mode == "token":
            router.register(TOKEN_CHANNEL, lambda src, token: self._acquire_token(token))
            if self.site == 0:
                self.schedule(0.0, self._acquire_token, Token(0, 0))
        else:
            router.register(FORWARD_CHANNEL, self._on_forward)

    # -- public API ---------------------------------------------------------

    def set_deliver(self, fn: DeliverFn) -> None:
        """Register ``fn(payload, envelope, order_index)``: the unwrapped
        application payload, the causal envelope carrying its vector clock,
        and its global total-order position (``None`` if causal-only)."""
        self._deliver = fn

    def broadcast(self, payload: Any, kind: Optional[str] = None) -> None:
        """Atomically broadcast ``payload`` (total + causal order)."""
        if self.mode == "token":
            self._outbox.put((payload, kind or ""))
            if self._has_token:
                self._flush_outbox()
            return
        forward = OrderForward(self._forward_seq, self.causal.frontier(), payload, kind or "")
        self._forward_seq += 1
        self._forwarded.append(forward)
        self._forward(forward)

    def broadcast_causal(self, payload: Any, kind: Optional[str] = None) -> None:
        """Causally broadcast ``payload`` (no total ordering)."""
        self._cast(SequencedEnvelope(payload, False, kind or ""))

    def set_group(self, members: list[int]) -> None:
        """Adopt a new view, bottom-up (a takeover broadcasts into the new
        group): re-elect the sequencer, bump the epoch and, when uniform,
        take stability over the new members — a departed member's last row
        would otherwise pin it for good.  A new sequencer gets this site's
        forwards not yet delivered back: the old one may have left with
        them unrelayed."""
        self.causal.set_group(members)
        sequencer = self.group[0]
        self.group = sorted(members)
        self.is_sequencer = self.site == self.group[0]
        self.epoch += 1
        if self.uniform:
            self.causal.stability.restrict_to(members)
            self._drain()
        if self.mode == "sequencer" and self.group[0] != sequencer:
            for forward in self._forwarded:
                self._forward(forward)
        if self._parked and self.is_sequencer:
            self._relay_parked()

    def export_state(self) -> dict:
        """The lower layers' state-transfer keys plus our ordering position."""
        state = self.causal.export_state()
        state["total_order_state"] = {
            "next_delivery_index": self.next_delivery_index,
            "last_delivered_key": self._last_delivered_key,
            "next_seq": self._next_seq,
            "relayed": list(self._relayed),
            "epoch": self.epoch,
        }
        return state

    def adopt_state(self, state: Any) -> None:
        """Rejoiner side: jump past the total-order prefix the transferred
        snapshot covers (``state``: the reply, keys as attributes).

        Numbered messages from the covered prefix are dropped, and so are
        this site's own forwards the donor had delivered back: their relay
        is covered too, so it never reaches this site, and the entry would
        otherwise wait for good.
        """
        self.causal.adopt_state(state)
        order = state.total_order_state
        self.next_delivery_index = order["next_delivery_index"]
        last = self._last_delivered_key = order["last_delivered_key"]
        self._next_seq = max(self._next_seq, order["next_seq"])
        self._relayed = list(map(max, self._relayed, order["relayed"]))
        self.epoch = max(self.epoch, order["epoch"])
        self._ready = {
            key: pending for key, pending in self._ready.items() if last is None or key > last
        }
        while self._forwarded and self._forwarded[0].n < self._relayed[self.site]:
            self._forwarded.popleft()
        self._delivery_order = [key for key in self._delivery_order if key in self._ready]
        heapq.heapify(self._delivery_order)

    # -- the sequencer: forward and relay --------------------------------------

    def _forward(self, forward: OrderForward) -> None:
        if self.is_sequencer:
            self._on_forward(self.site, forward)
        else:
            self._router.send(self.group[0], FORWARD_CHANNEL, forward, FORWARD_CHANNEL)

    def _on_forward(self, origin: int, forward: OrderForward) -> None:
        # Parked whether or not this site orders yet: an origin that
        # installed the view first may forward before we adopt it.
        self._parked.append((origin, forward))
        if self.is_sequencer:
            self._relay_parked()

    def _relay_parked(self) -> None:
        """Number and relay, in arrival order, every parked forward this
        site's frontier covers; drop one relayed or delivered already.  An
        origin's frontiers only grow, so a forward left waiting keeps its
        origin's later ones waiting too: per-origin FIFO holds."""
        frontier = self.causal.frontier().entries
        relayed = self._relayed
        waiting: list[tuple[int, OrderForward]] = []
        relays: list[SequencedEnvelope] = []
        for origin, forward in self._parked:
            if forward.n < relayed[origin]:
                continue
            if not all(map(le, forward.frontier.entries, frontier)):
                waiting.append((origin, forward))
                continue
            relayed[origin] = forward.n + 1
            key = (self.epoch, self._next_seq)
            self._next_seq += 1
            relays.append(
                SequencedEnvelope(forward.payload, True, forward.kind, key, (origin, forward.n))
            )
        # State first, then the sends (detcheck H402).
        self._parked = waiting
        for envelope in relays:
            self._cast(envelope)

    def _cast(self, envelope: SequencedEnvelope) -> None:
        if self.uniform:
            self._last_own_broadcast = self.engine.now
        self.causal.broadcast(envelope, envelope.kind)

    # -- causal delivery path ------------------------------------------------

    def _on_causal_deliver(self, message: BroadcastMessage, envelope: CausalEnvelope) -> None:
        inner = envelope.payload
        if not isinstance(inner, SequencedEnvelope):
            raise RuntimeError(f"site {self.site}: unexpected causal payload {inner!r}")
        if inner.ordered:
            self._on_numbered(message, envelope, inner)
        elif inner.kind != "abcast.stability":  # a null is a clock carrier only
            self._handoff(message, envelope, None)
        # Every delivery advances the frontier a parked forward may wait on.
        if self._parked and self.is_sequencer:
            self._relay_parked()

    def _on_numbered(
        self, message: BroadcastMessage, envelope: CausalEnvelope, inner: SequencedEnvelope
    ) -> None:
        key = inner.preassigned
        if inner.forward is not None:
            origin, n = inner.forward
            if n < self._relayed[origin] and message.sender != self.site:
                return  # a second sequencer's relay of one forward: the first wins
            self._relayed[origin] = max(self._relayed[origin], n + 1)
            # Track the orderer's counter so a takeover continues from it.
            self._next_seq = max(self._next_seq, key[1] + 1)
            if origin == self.site:
                while self._forwarded and self._forwarded[0].n <= n:
                    self._forwarded.popleft()
        self._ready[key] = _OrderedPending(message, envelope)
        heapq.heappush(self._delivery_order, key)
        self._drain()

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
        """Null messages keep stability advancing on an idle system."""
        if self.engine.now - self._last_own_broadcast < self.stability_interval:
            # Recent real traffic's piggybacked clock already carried the
            # information; this firing is redundant (detcheck H401 guard).
            return
        self._cast(SequencedEnvelope(None, False, "abcast.stability"))

    def _is_next(self, epoch: int, seq: int) -> bool:
        # A takeover sequencer continues the counter, so the first message
        # of a new epoch also continues from the last delivered seq.
        last = self._last_delivered_key
        if last is None:
            return seq == 0
        return epoch >= last[0] and seq == last[1] + 1

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
            self._cast(SequencedEnvelope(payload, True, kind, preassigned=key))

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
        self._router.send(successor, TOKEN_CHANNEL, token, "abcast.token")

# Import-time shape check for the size model (detcheck P201/P202).
register_payload(SequencedEnvelope, OrderForward, Token)
