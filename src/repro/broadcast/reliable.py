"""Reliable broadcast [HT93].

Properties implemented (and tested):

- **Validity**: if a correct site broadcasts m, all correct group members
  eventually deliver m.
- **Agreement**: if any correct site delivers m, all correct group members
  eventually deliver m.
- **Integrity**: every site delivers m at most once, and only if m was
  broadcast.

Two dissemination modes:

- ``relay=False`` (default): the sender unicasts m to every group member.
  This matches the paper's cost model (a broadcast = n-1 point-to-point
  messages) and satisfies agreement when the sender does not crash
  mid-broadcast.
- ``relay=True``: eager flooding — every site re-forwards m on first
  receipt, so agreement holds even when the sender crashes after reaching a
  single correct site.  Used by the fault-injection experiments; costs
  O(n^2) messages.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.broadcast.message import BroadcastMessage, MessageId
from repro.net.router import ChannelRouter
from repro.sim.engine import SimulationEngine

CHANNEL = "rbcast"


class SeenIds:
    """The broadcast ids one site has admitted, kept as a per-sender
    watermark plus the holes below it.

    What a site has admitted from ``sender`` is every ``seq`` below
    ``top[sender]`` except the ones in ``holes[sender]``: the set of every
    admitted id, exactly, whatever the arrival order.  Each sender numbers
    its broadcasts 0, 1, 2, ... and links are FIFO, which keeps the state
    at one int per sender plus one per hole: an in-order stream -- every
    passthrough and ARQ delivery -- never opens one, a relayed copy that
    overtakes a lost predecessor opens holes that later copies fill, and a
    rejoiner's gap costs at most what it missed.
    """

    __slots__ = ("_top", "_holes")

    def __init__(self, num_sites: int):
        self._top = [0] * num_sites
        self._holes: dict[int, set[int]] = {}

    def admit(self, msg_id: MessageId) -> bool:
        """Record ``msg_id``; False when it was admitted before."""
        sender, seq = msg_id
        top = self._top[sender]
        if seq == top:
            self._top[sender] = seq + 1
            return True
        if seq > top:
            self._holes.setdefault(sender, set()).update(range(top, seq))
            self._top[sender] = seq + 1
            return True
        holes = self._holes.get(sender)
        if holes is None or seq not in holes:
            return False
        holes.remove(seq)
        if not holes:
            del self._holes[sender]
        return True

    def __contains__(self, msg_id: MessageId) -> bool:
        sender, seq = msg_id
        return seq < self._top[sender] and seq not in self._holes.get(sender, ())

    def footprint(self) -> int:
        """Ints held: one watermark per sender plus one per open hole."""
        held = len(self._top)
        for holes in self._holes.values():
            held += len(holes)
        return held


class ReliableBroadcast:
    """Reliable broadcast endpoint for one site."""

    def __init__(
        self,
        engine: SimulationEngine,
        router: ChannelRouter,
        site: int,
        num_sites: int,
        relay: bool = False,
    ):
        self.engine = engine
        self.router = router
        self.site = site
        self.num_sites = num_sites
        self.relay = relay
        self.group: list[int] = list(range(num_sites))
        self._next_seq = 0
        self.seen = SeenIds(num_sites)
        self._deliver: Optional[Callable[[BroadcastMessage], None]] = None
        self.delivered_count = 0
        router.register(CHANNEL, self._on_receive)

    def set_deliver(self, fn: Callable[[BroadcastMessage], None]) -> None:
        """Register the upward delivery callback."""
        self._deliver = fn

    def set_group(self, members: list[int]) -> None:
        """Restrict dissemination to the current view's members."""
        if self.site not in members:
            raise ValueError(f"site {self.site} not in its own group {members}")
        self.group = sorted(members)

    def export_state(self) -> dict:
        """This layer's keys of a state-transfer reply: none (chain bottom)."""
        return {}

    def adopt_state(self, state: Any) -> None:
        """Rejoiner side of :meth:`export_state`: nothing to adopt."""

    def broadcast(self, payload: Any, kind: Optional[str] = None) -> BroadcastMessage:
        """Reliably broadcast ``payload`` to the group (including ourselves).

        Local delivery is scheduled through the event loop (not synchronous)
        so upper layers observe a single, uniform delivery path.
        """
        msg_id = MessageId(self.site, self._next_seq)
        self._next_seq += 1
        message = BroadcastMessage(msg_id, payload, kind or "")
        self.seen.admit(msg_id)
        # Single shared envelope for the whole fan-out; multicast skips the
        # sending site itself (local delivery goes through the event loop).
        self.router.multicast(self.group, CHANNEL, message, message.kind)
        # Never cancelled: a handle-less event, now, behind the fan-out.
        self.engine.schedule_at(self.engine.now, self._handoff, message)
        return message

    def _on_receive(self, src: int, message: BroadcastMessage) -> None:
        # SeenIds.admit's in-order case inlined (every passthrough and ARQ
        # delivery is one); any other arrival goes through admit itself.
        sender, seq = message.id
        tops = self.seen._top
        if seq == tops[sender]:
            tops[sender] = seq + 1
        elif not self.seen.admit(message.id):
            return
        if self.relay:
            # multicast skips our own site; one envelope for the fan-out.
            self.router.multicast(
                [dst for dst in self.group if dst not in (src, message.sender)],
                CHANNEL,
                message,
                message.kind,
            )
        # _handoff, inlined: this runs once per datagram received.
        deliver = self._deliver
        if deliver is None:
            raise RuntimeError(f"site {self.site}: reliable broadcast has no deliver callback")
        self.delivered_count += 1
        deliver(message)

    def _handoff(self, message: BroadcastMessage) -> None:
        if self._deliver is None:
            raise RuntimeError(f"site {self.site}: reliable broadcast has no deliver callback")
        self.delivered_count += 1
        self._deliver(message)
