"""Channel demultiplexer over a site's transport.

A site runs several message-consuming components (broadcast stack, failure
detector, membership, protocol point-to-point traffic).  The router tags
payloads with a channel name at the sender and dispatches by channel at the
receiver, so the components stay decoupled.

It is also where a site in state transfer holds its protocol traffic: each
channel declares at registration whether it is served during a transfer
(the transfer itself, failure detection, membership); :meth:`hold` parks
every other channel's arrivals until :meth:`release` dispatches them in
arrival order, on top of the installed snapshot.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.net.batching import BatchEnvelope
from repro.net.sizes import kind_of, register_payload
from repro.net.transport import ReliableTransport

Handler = Callable[[int, Any], None]


@dataclass(slots=True, init=False)
class Tagged:
    """A channel-tagged payload travelling through the transport.

    ``kind`` is interned, and defaults to the payload's own label
    (:func:`repro.net.sizes.kind_of`); the constructor is written out so
    that one is allocated per send in a single frame."""

    channel: str
    payload: Any
    kind: str
    #: Size memo (see ``register_payload``): under ARQ one multicast puts
    #: the same Tagged inside a Frame per link, and each Frame is sized.
    _size: int = field(default=-1, init=False, repr=False, compare=False)

    def __init__(self, channel: str, payload: Any, kind: str) -> None:
        self.channel = channel
        self.payload = payload
        self.kind = sys.intern(kind or kind_of(payload))
        self._size = -1


class ChannelRouter:
    """Sends and dispatches channel-tagged payloads for one site."""

    def __init__(self, transport: ReliableTransport, batcher: Optional[Any] = None):
        self.transport = transport
        self.site = transport.site
        #: Optional flush-window coalescer (repro.net.batching); when
        #: absent every send goes straight to the transport, keeping the
        #: historical wire traffic bit-identical.
        self.batcher = batcher
        self._sender = batcher if batcher is not None else transport
        #: One handler table per state; ``_dispatch`` reads whichever
        #: ``_handlers`` names, so holding costs the receive path nothing.
        self._served: dict[str, Handler] = {}
        self._holding: dict[str, Handler] = {}
        self._handlers = self._served
        #: (channel, src, payload) parked while held, in arrival order.
        self.parked: list[tuple[str, int, Any]] = []
        transport.set_receiver(self._dispatch)

    def register(self, channel: str, handler: Handler, during_transfer: bool = False) -> None:
        """Register ``handler(src_site, payload)`` for ``channel``; with
        ``during_transfer`` it is also served while the site is held."""
        if channel in self._served:
            raise ValueError(f"channel {channel!r} already registered")
        self._served[channel] = handler
        self._holding[channel] = handler if during_transfer else (
            lambda src, payload: self.parked.append((channel, src, payload))
        )

    def hold(self) -> None:
        """Park arrivals on every channel not served during a transfer."""
        self._handlers = self._holding

    def release(self) -> None:
        """Serve every channel again, first the parked arrivals in order."""
        self._handlers = self._served
        parked, self.parked = self.parked, []
        for channel, src, payload in parked:
            self._served[channel](src, payload)

    def drop(self) -> None:
        """Fail-stop while held: the parked arrivals are lost."""
        self.parked = []
        self.release()

    def send(self, dst: int, channel: str, payload: Any, kind: Optional[str] = None) -> None:
        self._sender.send(dst, Tagged(channel, payload, kind or ""), kind)

    def multicast(
        self,
        dsts: Iterable[int],
        channel: str,
        payload: Any,
        kind: Optional[str] = None,
        include_self: bool = False,
    ) -> None:
        # One envelope for the whole fan-out: allocation and the memoized
        # wire size amortize across destinations.
        self._sender.multicast(dsts, Tagged(channel, payload, kind or ""), kind, include_self)

    def _dispatch(self, src: int, payload: Any) -> None:
        # Exact types: nothing subclasses either envelope.
        cls = payload.__class__
        if cls is Tagged:
            try:
                handler = self._handlers[payload.channel]
            except KeyError:
                raise RuntimeError(
                    f"site {self.site}: no handler for channel {payload.channel!r}"
                ) from None
            handler(src, payload.payload)
            return
        if cls is BatchEnvelope:
            # Unpack in slot order — the sender's issue order — so batching
            # preserves per-link FIFO payload-for-payload, and batches from
            # different senders dispatch in (sender, seq) arrival order.
            for item in payload.items:
                self._dispatch(src, item)
            return
        raise RuntimeError(f"site {self.site}: untagged payload {payload!r} from {src}")


# Import-time shape check and sizer derivation (detcheck P201/P202).
register_payload(Tagged)
