"""Per-link ARQ transport: reliable FIFO channels over a faulty network.

The paper assumes reliable FIFO links between correct, connected sites; the
simulated :class:`repro.net.network.Network` can drop datagrams (loss,
partitions, crashed destinations), so this transport restores the assumption
with sequence numbers, cumulative acknowledgments, bounded windowed
retransmission and per-link incarnation epochs.

Two modes, fixed at construction:

- **passthrough**: no framing and no acks, so message accounting matches the
  paper's analytical cost model exactly.  This is the default on a lossless
  network.  Passthrough is a binding, not a layer: the transport's ``send``
  and ``multicast`` are the network's own, bound to the site, and
  :meth:`ReliableTransport.set_receiver` attaches the receiver to the
  network itself, so no transport code runs per datagram.
- **ARQ** (lossy network, or ``reliable=True`` on a lossless one): payloads
  are framed with per-link sequence numbers; the receiver delivers in order
  and returns cumulative acks; the sender resends lost frames as soon as an
  ack shows them missing, and unacked frames on a timer.  First
  transmissions keep the payload's own accounting label;
  retransmissions are labelled ``transport.retransmit`` and acks
  ``transport.ack`` so experiments can separate protocol messages from
  transport overhead (E1's analytical comparison depends on this).

Reliability machinery (ARQ mode):

- **Sliding window.**  At most ``window`` frames per link are in flight;
  further sends queue in FIFO order and are admitted as acks free slots, so
  a dead link accumulates a bounded retransmission set instead of an
  unbounded one.
- **Loss repair.**  ``Network`` links are FIFO, so a frame sent before
  one that has arrived, and not itself received, is lost.  Every ack names
  the frame it answers, and the sender resends at once, once each, the
  unacked frames between the last arrival the peer reported and that one.
  Every ack also carries the acker's send high-water mark toward the peer;
  a receiver that learns of seqs it has not heard of below it answers with
  a NACK naming that mark, which brings the same resend.  So a lost tail
  frame, even a link's first, is repaired on the next datagram the other
  way, not a timer interval later.  Correctness does not rest on FIFO (seq
  dedup discards duplicates); on a reordering network the inference would
  only cost extra resends.
- **Retransmission with exponential backoff.**  The timer is the backstop
  for what an ack cannot show: a lost NACK with no later traffic, a lost
  resend, a crashed or partitioned peer.  Each silent retransmit
  interval doubles the next one (up to ``max_backoff`` times the base
  interval); any ack that makes progress resets the backoff.  A crashed or
  partitioned peer therefore costs a geometrically decaying trickle, not a
  go-back-N storm every interval forever.
- **Reachability hook.**  :meth:`set_suspected` (wired to the failure
  detector by the cluster) parks retransmission toward suspected peers
  entirely and resumes it, with fresh backoff, when suspicion clears.
- **Incarnation epochs.**  Each transport carries a per-site epoch, bumped
  by :meth:`reset` when the site recovers from a crash (the counter lives on
  the long-lived transport object, standing in for a durably logged
  incarnation number).  Frames and acks carry both the sender's epoch and
  the sender's belief about the receiver's epoch.  A peer that observes a
  larger epoch re-frames its outstanding traffic from sequence zero for the
  new incarnation; a receiver that sees a frame numbered against its
  *previous* incarnation discards it but acks with the current epoch, which
  is what teaches the sender to re-frame.  Without this handshake a
  recovered site's peers would keep their old sequence state and every
  post-recovery frame would buffer forever — a silent FIFO stall.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Optional

from repro.net.network import Network
from repro.net.sizes import kind_of, register_payload
from repro.sim.engine import EventHandle, SimulationEngine
from repro.sim.trace import TraceLog

#: Accounting label for retransmitted data frames (first transmissions keep
#: the payload's own kind; see NetworkStats.retransmissions).
RETRANSMIT_KIND = "transport.retransmit"
ACK_KIND = "transport.ack"


@dataclass(slots=True)
class Frame:
    """ARQ data frame wrapping one upper-layer payload.

    ``src_epoch`` is the sender's incarnation; ``dst_epoch`` is the
    incarnation of the receiver the sequence number was assigned against.
    """

    seq: int
    payload: Any
    kind: str
    src_epoch: int = 0
    dst_epoch: int = 0
    #: Size memo (see ``register_payload``): retransmission re-sends the
    #: *same* Frame object on every backoff interval, so without it a lossy
    #: link pays the payload traversal per retransmit, not once per frame.
    _size: int = field(default=-1, init=False, repr=False, compare=False)


@dataclass(slots=True)
class AckFrame:
    """Cumulative acknowledgment: everything below ``next_expected`` arrived.

    ``seq`` names the frame the ack answers (-1: none, the re-sync ack for
    a frame numbered against a previous incarnation).  A NACK (``nack``)
    answers no frame: its ``seq`` is the peer's send high-water mark, and
    every frame below it that the acker has not reported is lost.  ``high``
    is the acker's own send high-water mark toward the peer (the next seq
    it would assign), so the peer can NACK what it lacks below it.

    Carries the same epoch pair as :class:`Frame` so a recovered receiver's
    acks teach senders about the new incarnation even when the ack itself
    acknowledges nothing.
    """

    next_expected: int
    seq: int = -1
    high: int = 0
    nack: bool = False
    src_epoch: int = 0
    dst_epoch: int = 0
    kind: str = "transport.ack"


@dataclass
class _LinkSendState:
    next_seq: int = 0
    #: Lowest unacked seq: ``unacked`` holds exactly ``[acked_to, next_seq)``,
    #: in seq order (insertion order).
    acked_to: int = 0
    #: Every seq below this was reported arrived by the peer or has been
    #: resent once as a hole the peer named (see ``_repair``).
    repaired_to: int = 0
    unacked: dict[int, Frame] = field(default_factory=dict)
    #: Payloads waiting for a window slot, FIFO: (payload, accounting label).
    pending: deque = field(default_factory=deque)
    #: Multiplier on the base retransmit interval; doubles on every silent
    #: retransmission, resets to 1 on ack progress.
    backoff: float = 1.0
    #: Reusable timer slot (see SimulationEngine.reschedule): the handle is
    #: kept across re-arms instead of cancel+push per ack/send cycle.
    retransmit_timer: Optional[EventHandle] = None
    #: Deadline the timer owes a retransmission for; None = parked (fully
    #: acked, or the peer is suspected down — the timer may still be armed
    #: but fires as a no-op and is reused).
    retransmit_due: Optional[float] = None


@dataclass
class _LinkRecvState:
    next_expected: int = 0
    #: Every seq below this has arrived or been named lost to the sender
    #: (by the ack of a later frame, or by a NACK).
    heard_to: int = 0
    buffer: dict[int, Frame] = field(default_factory=dict)


class ReliableTransport:
    """Reliable FIFO channel endpoint for one site.

    Exactly one transport is attached per site; upper layers register a
    delivery callback with :meth:`set_receiver` and send with :meth:`send`.

    A lossy network always gets ARQ, since every protocol in this library
    is built on reliable links.  On a lossless network the transport is
    passthrough (bit-identical to the analytical cost model) unless
    ``reliable=True``, which forces ARQ — required before
    ``FaultSchedule.flaky_links`` can inject loss mid-run, and for
    partitions whose dropped datagrams should be repaired rather than
    retried at the protocol layer.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        network: Network,
        site: int,
        retransmit_interval: Optional[float] = None,
        reliable: bool = False,
        window: int = 32,
        max_backoff: float = 64.0,
        trace: Optional[TraceLog] = None,
    ):
        if window < 1:
            raise ValueError("window must be at least 1")
        if max_backoff < 1:
            raise ValueError("max_backoff must be at least 1 (a multiplier)")
        self.engine = engine
        self.network = network
        self.site = site
        self.passthrough = network.loss_rate == 0 and not reliable
        self.window = window
        self.max_backoff = max_backoff
        self.trace = trace
        mean = network.latency.mean()
        self.retransmit_interval = (
            retransmit_interval if retransmit_interval is not None else max(4 * mean, 1.0)
        )
        #: This site's incarnation number, bumped by :meth:`reset`.
        self.epoch = 0
        #: Largest incarnation observed per peer.  Survives :meth:`reset`:
        #: losing it would only cost an extra resync round trip, but keeping
        #: it keeps recovery deterministic and cheap.
        self._peer_epoch: dict[int, int] = {}
        #: Peers the failure detector currently suspects (see
        #: :meth:`set_suspected`); retransmission toward them is parked.
        self._suspected: set[int] = set()
        self._receiver: Optional[Callable[[int, Any], None]] = None
        self._send_state: dict[int, _LinkSendState] = {}
        self._recv_state: dict[int, _LinkRecvState] = {}
        if self.passthrough:
            # A binding, not a layer: this site's sends are the network's
            # own, with the site as their source (as ``set_receiver``
            # attaches the receiver to the network).
            self.send = partial(network.send, site)
            self.multicast = partial(network.multicast, site)
        else:
            network.attach(site, self._on_datagram)

    def set_receiver(self, fn: Callable[[int, Any], None]) -> None:
        """Register the upper-layer callback ``fn(src_site, payload)``.

        In passthrough mode the network calls ``fn`` directly.
        """
        self._receiver = fn
        if self.passthrough:
            self.network.attach(self.site, fn)

    def send(self, dst: int, payload: Any, kind: Optional[str] = None) -> None:
        """Send ``payload`` reliably and in FIFO order to ``dst``.

        ARQ mode only: a passthrough transport's ``send`` is the network's."""
        if dst == self.site:
            self.network.send(self.site, dst, payload, kind)
            return
        state = self._send_state.setdefault(dst, _LinkSendState())
        label = kind if kind is not None else kind_of(payload)
        if len(state.unacked) >= self.window:
            state.pending.append((payload, label))
            return
        self._admit(dst, state, payload, label)

    def multicast(
        self,
        dsts: Iterable[int],
        payload: Any,
        kind: Optional[str] = None,
        include_self: bool = False,
    ) -> None:
        """Send ``payload`` to each of ``dsts`` (our own site only on request).

        ARQ mode only: it frames the payload per link (a passthrough
        transport's ``multicast`` is the network's, which takes the whole
        fan-out at once).
        """
        for dst in dsts:
            if dst != self.site or include_self:
                self.send(dst, payload, kind)

    def reset(self) -> None:
        """Begin a new incarnation after a crash (drop all link state).

        Bumps :attr:`epoch` so peers can tell post-recovery traffic from the
        previous incarnation's: frames we now send carry the new epoch (a
        peer seeing it re-frames its side of the link from sequence zero),
        and frames peers send numbered against our old incarnation are
        discarded but acked with the new epoch, which resynchronizes the
        sender.  Peer-side retransmit timers keep firing until that
        handshake completes, but each firing toward a down site parks itself
        behind exponential backoff, so the churn is bounded.
        """
        for state in self._send_state.values():
            if state.retransmit_timer is not None:
                state.retransmit_timer.cancel()
        self._send_state.clear()
        self._recv_state.clear()
        self._suspected = set()
        self.epoch += 1

    def set_suspected(self, suspected: set[int]) -> None:
        """Reachability hook: park retransmission toward suspected peers.

        Wired to the failure detector's suspicion changes by the cluster.
        Newly suspected peers have their retransmit deadline parked (the
        armed timer fires as a no-op and is reused later); peers whose
        suspicion clears get fresh backoff and an immediate re-arm if frames
        are still outstanding toward them.
        """
        if self.passthrough:
            return
        previous = self._suspected
        self._suspected = set(suspected)
        for peer in sorted(self._suspected - previous):
            state = self._send_state.get(peer)
            if state is not None:
                state.retransmit_due = None
        for peer in sorted(previous - self._suspected):
            state = self._send_state.get(peer)
            if state is None:
                continue
            state.backoff = 1.0
            if state.unacked or state.pending:
                self._arm_retransmit(peer, state)

    # -- internals ---------------------------------------------------------

    def _on_datagram(self, src: int, payload: Any) -> None:
        """The network's receive callback in ARQ mode."""
        if src == self.site:
            self._deliver(src, payload)  # loopback is never framed
        elif isinstance(payload, AckFrame):
            self._on_ack(src, payload)
        elif isinstance(payload, Frame):
            self._on_frame(src, payload)
        else:
            # A raw (unframed) payload reaching an ARQ endpoint means some
            # peer runs in passthrough mode.  Delivering it would bypass the
            # FIFO machinery and let framing bugs masquerade as reordering
            # or duplication, so mixed configs are an explicit error.
            if self.trace is not None:
                self.trace.emit(
                    self.engine.now,
                    f"transport{self.site}",
                    "transport.unframed",
                    src=src,
                    payload_kind=kind_of(payload),
                )
            raise RuntimeError(
                f"site {self.site} (ARQ mode) received an unframed payload of "
                f"kind {kind_of(payload)!r} from site {src}: mixed "
                "passthrough/ARQ transport configurations are not supported"
            )

    def _note_peer_epoch(self, peer: int, peer_epoch: int) -> bool:
        """Track ``peer``'s incarnation; False means the message is stale.

        Seeing a larger epoch means the peer crashed and recovered: its
        receive state for us is gone (our outstanding frames must be
        re-framed from sequence zero) and its old send stream toward us is
        dead (our buffered out-of-order frames from it can never be
        completed, their FIFO predecessors died with the crash).
        """
        known = self._peer_epoch.get(peer, 0)
        if peer_epoch < known:
            return False
        if peer_epoch > known:
            self._peer_epoch[peer] = peer_epoch
            self._relink(peer)
        return True

    def _relink(self, peer: int) -> None:
        """Restart the link to ``peer`` for its new incarnation."""
        self._recv_state.pop(peer, None)
        old = self._send_state.pop(peer, None)
        if old is None:
            return
        if old.retransmit_timer is not None:
            old.retransmit_timer.cancel()
        state = _LinkSendState()
        self._send_state[peer] = state
        # Re-frame in the original FIFO order: unacked frames (by sequence)
        # first, then payloads that never got a window slot.
        for seq in range(old.acked_to, old.next_seq):
            frame = old.unacked[seq]
            if len(state.unacked) < self.window:
                self._admit(peer, state, frame.payload, frame.kind, resend=True)
            else:
                state.pending.append((frame.payload, frame.kind))
        state.pending.extend(old.pending)

    def _admit(
        self,
        dst: int,
        state: _LinkSendState,
        payload: Any,
        label: str,
        resend: bool = False,
    ) -> None:
        """Assign the next sequence number, transmit, arm the timer."""
        frame = Frame(
            state.next_seq, payload, label, self.epoch, self._peer_epoch.get(dst, 0)
        )
        state.next_seq += 1
        state.unacked[frame.seq] = frame
        self._transmit(dst, frame, resend)
        self._arm_retransmit(dst, state)

    def _transmit(self, dst: int, frame: Frame, resend: bool) -> None:
        if resend:
            # Retransmissions get their own accounting label so protocol
            # message counts (E1) keep matching the analytical cost model.
            self.network.stats.retransmissions += 1
            self.network.send(self.site, dst, frame, RETRANSMIT_KIND)
        else:
            self.network.send(self.site, dst, frame, frame.kind)

    def _refill(self, dst: int, state: _LinkSendState) -> None:
        while state.pending and len(state.unacked) < self.window:
            payload, label = state.pending.popleft()
            self._admit(dst, state, payload, label)

    def _on_frame(self, src: int, frame: Frame) -> None:
        if not self._note_peer_epoch(src, frame.src_epoch):
            return  # a previous incarnation of src; its stream is dead
        state = self._recv_state.setdefault(src, _LinkRecvState())
        if frame.dst_epoch != self.epoch:
            # Numbered against our previous incarnation: the sequence means
            # nothing to our fresh receive state.  Ack with the current
            # epoch; _note_peer_epoch on the sender re-frames its traffic.
            self._send_ack(src, state, -1)
            return
        if frame.seq >= state.heard_to:
            state.heard_to = frame.seq + 1
        if frame.seq == state.next_expected:
            state.next_expected += 1
            self._deliver(src, frame.payload)
            while state.next_expected in state.buffer:
                queued = state.buffer.pop(state.next_expected)
                state.next_expected += 1
                self._deliver(src, queued.payload)
        elif frame.seq > state.next_expected:
            state.buffer[frame.seq] = frame
        # Always (re)acknowledge cumulatively, naming the frame answered:
        # the sender resends the holes below it (``_repair``).
        self._send_ack(src, state, frame.seq)

    def _send_ack(
        self, src: int, state: _LinkRecvState, seq: int, nack: bool = False
    ) -> None:
        send = self._send_state.get(src)
        ack = AckFrame(
            state.next_expected,
            seq,
            send.next_seq if send is not None else 0,
            nack,
            self.epoch,
            self._peer_epoch.get(src, 0),
        )
        self.network.send(self.site, src, ack, ACK_KIND)

    def _on_ack(self, src: int, ack: AckFrame) -> None:
        if not self._note_peer_epoch(src, ack.src_epoch):
            return
        if ack.dst_epoch != self.epoch:
            return  # acknowledges frames of our previous incarnation
        state = self._send_state.get(src)
        if state is not None:
            self._on_link_ack(src, state, ack)
        if ack.high:
            self._nack_below(src, ack.high)

    def _on_link_ack(self, src: int, state: _LinkSendState, ack: AckFrame) -> None:
        """Apply one ack (or NACK) from ``src`` to our send side of the link."""
        low = state.acked_to
        for seq in range(low, ack.next_expected):
            del state.unacked[seq]
        acked = ack.next_expected > low
        if acked:
            state.acked_to = ack.next_expected
            state.backoff = 1.0  # forward progress
        self._repair(src, state, ack)
        if acked:
            self._refill(src, state)
        if not state.unacked:
            # Park rather than cancel: the armed handle stays in the heap
            # and is reused (deferred in place) by the next send, so the
            # steady ack/send churn creates no heap garbage at all.
            state.retransmit_due = None
        elif acked:
            # Progress reset the backoff; pull the (possibly backed-off)
            # deadline back in for the frames still outstanding.
            state.retransmit_due = None
            self._arm_retransmit(src, state)

    def _repair(self, dst: int, state: _LinkSendState, ack: AckFrame) -> None:
        """Resend, once each, the holes ``ack`` names.

        Links are FIFO, so a frame sent before the one an ack answers, and
        not itself reported, was lost; a NACK names the same holes below the
        high-water mark it answers.  A hole whose resend is lost too is the
        timer's (``_retransmit``).
        """
        for seq in range(max(state.repaired_to, state.acked_to), ack.seq):
            self._transmit(dst, state.unacked[seq], True)
        # A plain ack's own frame arrived; a NACK's mark is the next seq,
        # which may not have been sent yet.
        end = ack.seq if ack.nack else ack.seq + 1
        if end > state.repaired_to:
            state.repaired_to = end

    def _nack_below(self, src: int, high: int) -> None:
        """``src`` has sent every seq below ``high`` toward us: NACK at once
        the ones we have not heard of (FIFO: the ack carrying ``high``
        arrived after them, so they are lost)."""
        state = self._recv_state.get(src)
        if state is None:
            state = self._recv_state[src] = _LinkRecvState()
        if high > state.heard_to:
            state.heard_to = high
            self._send_ack(src, state, high, nack=True)

    def _arm_retransmit(self, dst: int, state: _LinkSendState) -> None:
        if state.retransmit_due is not None or dst in self._suspected:
            return  # an earlier deadline is owed, or the peer is parked
        delay = self.retransmit_interval * state.backoff
        state.retransmit_due = self.engine.now + delay
        state.retransmit_timer = self.engine.reschedule(
            state.retransmit_timer, delay, self._retransmit, dst
        )

    def _retransmit(self, dst: int) -> None:
        state = self._send_state.get(dst)
        if state is None or state.retransmit_due is None or not state.unacked:
            return  # parked no-op: acked, parked, or reset since arming
        if not self.network.site_is_up(self.site):
            # Re-armed by the next send after recovery (reset() clears us).
            state.retransmit_due = None
            return
        for seq in range(state.acked_to, state.next_seq):
            self._transmit(dst, state.unacked[seq], True)
        # Exponential backoff: each silent interval doubles the next one so
        # a dead or partitioned peer costs a decaying trickle, not a storm.
        state.backoff = min(state.backoff * 2, self.max_backoff)
        delay = self.retransmit_interval * state.backoff
        state.retransmit_due = self.engine.now + delay
        state.retransmit_timer = self.engine.reschedule(
            state.retransmit_timer, delay, self._retransmit, dst
        )

    def _deliver(self, src: int, payload: Any) -> None:
        if self._receiver is None:
            raise RuntimeError(f"site {self.site} transport has no receiver")
        self._receiver(src, payload)

# Import-time shape check for the size model (detcheck P201/P202).
register_payload(Frame, AckFrame)
