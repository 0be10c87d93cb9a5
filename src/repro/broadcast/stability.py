"""Message stability tracking via matrix clocks.

A message is *stable* once every group member is known to have delivered
it.  Stability is what real group-communication systems (Trans/Totem
[MMA90, AMMS+95]) use to garbage-collect retransmission buffers, and what
a *uniform* atomic broadcast needs: delivering only stable messages
guarantees that no site delivers (and a database commits) a message that
could be lost with its deliverers in a crash.

Implementation: every causal envelope already carries its sender's vector
clock, which states exactly how many messages of each origin the sender
had delivered.  Collecting the latest such vector per sender yields a
matrix clock; the componentwise **minimum** across the group is the stable
vector — entry ``j`` is the number of ``j``-origin messages everyone has
delivered.
"""

from __future__ import annotations

from typing import Callable

from repro.broadcast.vector_clock import VectorClock


class StabilityTracker:
    """Matrix-clock stability for one site."""

    def __init__(self, num_sites: int, site: int):
        self.num_sites = num_sites
        self.site = site
        self._rows: list[VectorClock] = [
            VectorClock.zero(num_sites) for _ in range(num_sites)
        ]
        #: The rows the minimum is taken over: the current view's members.
        self._members = list(range(num_sites))
        self._listeners: list[Callable[[VectorClock], None]] = []
        self._last_stable = VectorClock.zero(num_sites)

    def observe(self, sender: int, clock: VectorClock) -> None:
        """Record that ``sender`` reported delivered-vector ``clock``.

        Called for every causally delivered message (its envelope's clock),
        and for the local site's own clock after each local delivery.
        """
        self._rows[sender].merge_inplace(clock)
        stable = self.stable_vector()
        if self._last_stable.entries != stable.entries:
            self._last_stable = stable
            for listener in self._listeners:
                listener(stable.copy())

    def on_advance(self, listener: Callable[[VectorClock], None]) -> None:
        """``listener(stable_vector)`` fires whenever stability advances."""
        self._listeners.append(listener)

    def stable_vector(self) -> VectorClock:
        """Componentwise minimum over the members' rows: what everyone
        delivered."""
        rows = [self._rows[site] for site in self._members]
        entries = [min(row[j] for row in rows) for j in range(self.num_sites)]
        return VectorClock(entries)

    def is_stable(self, origin: int, seq: int) -> bool:
        """True when message ``seq`` of ``origin`` is delivered everywhere."""
        return self.stable_vector()[origin] >= seq

    def row(self, sender: int) -> VectorClock:
        """Latest known delivered-vector of ``sender``."""
        return self._rows[sender].copy()

    def restrict_to(self, members: list[int]) -> None:
        """View change: stability is computed over current members only, so
        a departed member's last row no longer holds the minimum down (its
        deliveries are moot) while the members' rows keep advancing."""
        self._members = sorted(members)
