"""Opt-in batching: coalesce a flush window's traffic per link.

Every message in this simulator is a point-to-point datagram paying
``HEADER_BYTES`` of framing and one full scheduling round trip through the
event loop.  Bursty protocol phases — a transaction's write fan-out, the
vote storm after a commit request, the sequencer's order assignments — issue
several payloads to the same destinations at (nearly) the same instant, so
the per-datagram overhead dominates both the byte accounting and the
simulator's wall-clock cost.

:class:`BroadcastBatcher` sits between a site's :class:`ChannelRouter
<repro.net.router.ChannelRouter>` and its transport.  Payloads sent inside
one *flush window* are queued per destination; when the window closes, each
destination receives a single slotted :class:`BatchEnvelope` carrying every
queued payload in issue order.  The receiving router unpacks the envelope
and dispatches the constituents in deterministic ``(sender, batch seq,
slot)`` order — slot order *is* the sender's issue order, so per-link FIFO
is preserved payload-for-payload.

Selection is per-cluster via ``ClusterConfig.batching``: the flush window in
simulated milliseconds, or ``None`` for off.  ``None`` keeps the historical
passthrough path: no batcher is constructed at all and the wire traffic is
bit-identical to previous releases (the pinned digests in
``tests/integration/test_batching_equivalence.py`` prove it).  Batching on
also turns on protocol group commit (RBP votes/acks, ABP order assignments
packed per instant), and nothing else.  With batching enabled,
correctness is *outcome equivalence* — same committed set, same converged
stores, 1SR — not trace identity: coalescing reorders event timing by up
to one flush window.

A flush window of ``0.0`` still batches: the flush is scheduled through
the event loop at the current timestamp, so every payload issued by the
current event cascade shares one envelope per link without adding simulated
latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.net.sizes import register_payload
from repro.sim.outbox import Outbox, by_destination

#: Accounting label of the envelope's own framing overhead.  The network
#: attributes each constituent payload's bytes to the payload's own kind
#: (see ``Network.send``); only the residual — shared header plus envelope
#: framing — lands under this label, which is background traffic for the
#: E1 cost model.
BATCH_KIND = "transport.batch"


@dataclass(slots=True)
class BatchEnvelope:
    """One link's coalesced payloads for one flush window.

    ``seq`` numbers the batches a site flushes (its identity together with
    the sending site); ``items`` hold the constituent payloads in issue
    order — the receiver dispatches slot 0 first, so FIFO per link is
    preserved exactly.
    """

    seq: int
    items: tuple[Any, ...]
    kind: str = BATCH_KIND


class BroadcastBatcher:
    """Per-site flush-window coalescer between router and transport.

    The router hands every outgoing (already channel-tagged) payload to
    :meth:`send`; the first payload of a window arms one flush timer for
    the whole site.  At flush time each destination's queue becomes one
    :class:`BatchEnvelope` (destinations drained in sorted order, so runs
    are deterministic); a queue holding a single payload is sent unwrapped
    — byte-identical to an unbatched send, just window-delayed.
    """

    def __init__(self, engine, transport, flush_window: float = 0.0):
        self._window = Outbox(engine, self._flush, window=flush_window)
        self.transport = transport
        self._next_seq = 0
        #: Counters for tests and the E14 tables.
        self.batches_sent = 0
        self.singles_sent = 0
        self.payloads_batched = 0

    def send(self, dst: int, payload: Any, kind: Optional[str] = None) -> None:
        """Queue one payload for ``dst``; arms the flush timer if idle."""
        self._window.put((dst, (payload, kind)))

    def multicast(
        self,
        dsts: Iterable[int],
        payload: Any,
        kind: Optional[str] = None,
        include_self: bool = False,
    ) -> None:
        """Queue one payload for each of ``dsts`` (the transport's
        ``multicast`` contract: our own site only on request)."""
        for dst in dsts:
            if dst != self.transport.site or include_self:
                self.send(dst, payload, kind)

    def _flush(self, queued: list[tuple[int, tuple[Any, Optional[str]]]]) -> None:
        for dst, items in by_destination(queued):
            if len(items) == 1:
                payload, kind = items[0]
                self.singles_sent += 1
                self.transport.send(dst, payload, kind)
                continue
            envelope = BatchEnvelope(
                self._next_seq, tuple(payload for payload, _ in items)
            )
            self._next_seq += 1
            self.batches_sent += 1
            self.payloads_batched += len(items)
            self.transport.send(dst, envelope, BATCH_KIND)

    def pending_count(self) -> int:
        """Payloads queued for the currently open window."""
        return len(self._window)

    def reset(self) -> None:
        """Drop the open window (fail-stop crash: queued traffic is lost)."""
        self._window.clear()


# Import-time shape check and sizer derivation (detcheck P201/P202).
register_payload(BatchEnvelope)
