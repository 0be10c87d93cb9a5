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
        self._seen: set[MessageId] = set()
        self._deliver: Optional[Callable[[BroadcastMessage], None]] = None
        self.delivered_count = 0
        self.gc_reclaimed = 0
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
        self._seen.add(msg_id)
        # Single shared envelope for the whole fan-out; multicast skips the
        # sending site itself (local delivery goes through the event loop).
        self.router.multicast(self.group, CHANNEL, message, message.kind)
        self.engine.schedule(0.0, self._deliver_local, message)
        return message

    def _deliver_local(self, message: BroadcastMessage) -> None:
        self._handoff(message)

    def _on_receive(self, src: int, message: BroadcastMessage) -> None:
        if message.id in self._seen:
            return
        self._seen.add(message.id)
        if self.relay:
            # multicast skips our own site; one envelope for the fan-out.
            self.router.multicast(
                [dst for dst in self.group if dst not in (src, message.sender)],
                CHANNEL,
                message,
                message.kind,
            )
        self._handoff(message)

    def _handoff(self, message: BroadcastMessage) -> None:
        if self._deliver is None:
            raise RuntimeError(f"site {self.site}: reliable broadcast has no deliver callback")
        self.delivered_count += 1
        self._deliver(message)

    def garbage_collect(self, stable, lag: int = 128) -> int:
        """Drop dedup entries for messages stable at every site.

        ``stable`` is a vector (per-origin delivered-everywhere counts,
        from :class:`repro.broadcast.stability.StabilityTracker`).  A
        ``lag`` margin is kept because relayed duplicates of a stable
        message can still be in flight for a short while; by the time a
        message is ``lag`` broadcasts below the stability frontier, any
        straggler copy has long been delivered or dropped.  Returns the
        number of entries reclaimed.
        """
        removable = {
            msg_id
            for msg_id in self._seen
            if stable[msg_id.sender] - lag >= msg_id.seq
        }
        self._seen -= removable
        self.gc_reclaimed += len(removable)
        return len(removable)
