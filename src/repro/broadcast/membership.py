"""Majority-quorum view management [Bv94, SS94].

The communication layer maintains a *view* of the current configuration; as
sites fail and recover the view is restructured, and the system stays
operational while the view holds a majority of all sites.  The paper
delegates fault tolerance to this layer so the replication protocols can use
read-one/write-all *within the view*.

Design (simplified virtual synchrony, documented in DESIGN.md):

- The **coordinator** of a view is its lowest-id unsuspected member.
- When the coordinator's failure detector output changes, it installs and
  multicasts a new view (higher view id) to every site it believes alive.
- Sites adopt any view with a higher id that includes them.
- A recovering site multicasts a JOIN request; the coordinator responds with
  a new view including it, and the protocol layer performs a state transfer
  (hooked via ``on_view``'s ``joined`` set).
- Views that lose a majority of all sites are **blocked**: the protocol
  layer must refuse update transactions in them (one-copy serializability
  would otherwise break across a partition).

This is not a full group-membership consensus protocol (impossible in pure
asynchrony [CHTCB96]); it is faithful to what the paper assumes of its
communication substrate under the simulation's partial synchrony.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.broadcast.failure_detector import FailureDetector
from repro.net.router import ChannelRouter
from repro.net.sizes import register_payload
from repro.sim.engine import SimulationEngine
from repro.sim.process import Process

CHANNEL = "membership"


@dataclass(frozen=True)
class View:
    """An installed configuration: numbered, with a fixed member list."""

    view_id: int
    members: tuple[int, ...]

    def has_quorum(self, num_sites: int) -> bool:
        """Majority of *all* sites, not just of the previous view."""
        return len(self.members) * 2 > num_sites

    def __contains__(self, site: int) -> bool:
        return site in self.members

    def __str__(self) -> str:
        return f"view#{self.view_id}{list(self.members)}"


@dataclass(slots=True)
class ViewMessage:
    view: View
    kind: str = "membership.view"


@dataclass(slots=True)
class JoinRequest:
    """Rejoin/resync request; carries the requester's view id so the
    coordinator can propose past any view numbers generated independently
    on the other side of a partition (view-id collision avoidance)."""

    site: int
    view_id: int = 0
    kind: str = "membership.join"


ViewListener = Callable[[View, set[int]], None]


class MembershipService(Process):
    """Per-site membership endpoint."""

    def __init__(
        self,
        engine: SimulationEngine,
        router: ChannelRouter,
        detector: FailureDetector,
        site: int,
        num_sites: int,
    ):
        super().__init__(engine, f"memb{site}")
        self.router = router
        self.detector = detector
        self.site = site
        self.num_sites = num_sites
        #: The full-cluster fan-out list never changes; building it afresh
        #: on every announce cost an O(n) allocation per join attempt
        #: (detcheck S301 audit; same precompute as FailureDetector).
        self._peers = tuple(p for p in range(num_sites) if p != site)
        self.view = View(0, tuple(range(num_sites)))
        self.listeners: list[ViewListener] = []
        router.register(CHANNEL, self._on_message, during_transfer=True)
        detector.on_change = self._on_suspicion_change

    def add_listener(self, listener: ViewListener) -> None:
        """``listener(view, joined_sites)`` fires on every installed view."""
        self.listeners.append(listener)

    @property
    def in_primary_component(self) -> bool:
        """True when our view can process update transactions."""
        return self.view.has_quorum(self.num_sites) and self.site in self.view

    def i_am_coordinator(self) -> bool:
        # Coordinator = lowest live member: electing one must scan the live
        # set, so the O(n) pass is inherent; it runs per membership event
        # (join request, suspicion change), not per data message.
        # detcheck: ignore[S301]
        live = [m for m in self.view.members if m not in self.detector.suspected]
        return bool(live) and self.site == min(live)

    def announce_join(self) -> None:
        """Called by a recovering or out-of-sync site to request readmission."""
        request = JoinRequest(self.site, self.view.view_id)
        self.router.multicast(self._peers, CHANNEL, request, request.kind)

    # -- internals -----------------------------------------------------------

    def _on_suspicion_change(self, suspected: set[int]) -> None:
        if not self.alive:
            return
        if not self.i_am_coordinator():
            return
        proposed = tuple(
            sorted(m for m in range(self.num_sites) if m not in suspected and self._reachable(m))
        )
        if proposed == self.view.members:
            return
        self._install_and_announce(proposed)

    def _reachable(self, member: int) -> bool:
        # The detector's silence already covers partitions; this hook exists
        # for subclasses that integrate an explicit topology oracle.
        return member == self.site or member not in self.detector.suspected

    def _install_and_announce(self, members: tuple[int, ...], min_id: int = 0) -> None:
        if self.site not in members:
            return
        new_view = View(max(self.view.view_id, min_id) + 1, members)
        self._install(new_view)
        announcement = ViewMessage(new_view)
        self.router.multicast(self._peers, CHANNEL, announcement, announcement.kind)

    def _on_message(self, src: int, payload: object) -> None:
        if isinstance(payload, ViewMessage):
            view = payload.view
            if view.view_id > self.view.view_id and self.site in view:
                self._install(view)
            elif (
                self.site in view
                and view.members != self.view.members
                and view.view_id <= self.view.view_id
            ):
                # View-id collision: both sides of a partition advanced
                # their counters independently and the announcement cannot
                # outrank our (stale) view.  Ask the announcer's side to
                # re-propose past our counter.
                self.announce_join()
        elif isinstance(payload, JoinRequest):
            # The request is proof of life: refresh the detector first, or
            # stale suspicion evicts the joiner from the very next view
            # (see FailureDetector.refresh on why that loses messages).
            self.detector.refresh(payload.site)
            self._on_join_request(payload)

    def _on_join_request(self, request: JoinRequest) -> None:
        if not self.i_am_coordinator():
            return
        if request.site in self.view.members:
            if request.view_id >= self.view.view_id:
                # The requester's counter collided with (or passed) ours:
                # re-issue the same membership under a number that outranks
                # every view either side has seen.
                self._install_and_announce(self.view.members, min_id=request.view_id)
            else:
                # Plain stale joiner: the current view announcement suffices.
                self.router.send(
                    request.site, CHANNEL, ViewMessage(self.view), "membership.view"
                )
            return
        # View-change path: building the next membership tuple is one O(n)
        # pass per join event, not per data message.
        # detcheck: ignore[S301]
        proposed = tuple(sorted(set(self.view.members) | {request.site}))
        self._install_and_announce(proposed, min_id=request.view_id)

    def _install(self, view: View) -> None:
        # View-change path: the old/new membership diff is one O(n) pass
        # per view install, not per data message.
        # detcheck: ignore[S301]
        previous = set(self.view.members)
        self.view = view
        joined = set(view.members) - previous  # detcheck: ignore[S301]
        for listener in self.listeners:
            listener(view, joined)

    def on_recover(self) -> None:
        # Fresh start: we only know ourselves until a view message arrives.
        self.view = View(self.view.view_id, (self.site,))
        self.announce_join()

# Import-time shape check for the size model (detcheck P201/P202).
register_payload(ViewMessage, JoinRequest)
