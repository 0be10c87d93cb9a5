"""Heartbeat failure detector.

Implements an eventually-perfect-style detector (class <>P in practice):
every site multicasts heartbeats and suspects peers it has not heard from
within a timeout.  Under the simulation's bounded latencies the detector is
accurate after a crash-free prefix, which is what the membership service
needs; deterministic detectors are impossible in pure asynchrony
[CT96, CHTCB96], which is exactly why the paper's CBP avoids relying on one
for commitment.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.router import ChannelRouter
from repro.net.sizes import register_payload
from repro.sim.engine import SimulationEngine
from repro.sim.process import Process

CHANNEL = "fd"


class Heartbeat:
    """A heartbeat ping (empty payload, identified by channel)."""

    __slots__ = ()
    kind = "fd.heartbeat"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Heartbeat()"


register_payload(Heartbeat)
_HEARTBEAT = Heartbeat()


class FailureDetector(Process):
    """Per-site heartbeat failure detector.

    ``on_change(suspected)`` fires whenever the suspected set changes.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        router: ChannelRouter,
        site: int,
        num_sites: int,
        interval: float = 50.0,
        timeout: float = 200.0,
        enabled: bool = True,
    ):
        super().__init__(engine, f"fd{site}")
        if timeout <= interval:
            raise ValueError("timeout must exceed the heartbeat interval")
        self.router = router
        self.site = site
        self.num_sites = num_sites
        self.interval = interval
        self.timeout = timeout
        self.enabled = enabled
        self.suspected: set[int] = set()
        self.on_change: Optional[Callable[[set[int]], None]] = None
        self._listeners: list[Callable[[set[int]], None]] = []
        self._last_heard = {peer: 0.0 for peer in range(num_sites) if peer != site}
        # The heartbeat fan-out list never changes; building it afresh on
        # every tick cost an O(n) allocation per site per interval.
        self._peers = tuple(peer for peer in range(num_sites) if peer != site)
        router.register(CHANNEL, self._on_heartbeat, during_transfer=True)
        if enabled:
            self.every(self.interval, self._tick)

    def start(self) -> None:
        """Enable a detector constructed with ``enabled=False``."""
        if not self.enabled:
            self.enabled = True
            for peer in self._last_heard:
                self._last_heard[peer] = self.now
            self.every(self.interval, self._tick)

    def _on_heartbeat(self, src: int, payload: object) -> None:
        self._last_heard[src] = self.now
        if src in self.suspected:
            self.suspected.discard(src)
            self._notify()

    def _tick(self) -> bool:
        if not self.enabled:
            return False  # ends the Process.every loop
        self.router.multicast(self._peers, CHANNEL, _HEARTBEAT, "fd.heartbeat")
        newly = {
            peer
            for peer, heard in self._last_heard.items()
            if self.now - heard > self.timeout
        }
        if newly != self.suspected:
            self.suspected = newly
            self._notify()
        return True

    def refresh(self, peer: int) -> None:
        """Direct proof of life for ``peer`` outside the heartbeat channel
        (e.g. a membership join request).  Treat it like a heartbeat:
        without this, a recovering site that just announced itself can be
        re-suspected — and evicted from the view — on the coordinator's
        next tick, before its own heartbeats resume.  Messages multicast
        during that eviction window never reach the joiner, and the state
        transfer's clock cut does not cover them: a permanent causal gap.
        """
        if peer == self.site or peer not in self._last_heard:
            return
        self._last_heard[peer] = self.now
        if peer in self.suspected:
            self.suspected.discard(peer)
            self._notify()

    def add_listener(self, fn: Callable[[set[int]], None]) -> None:
        """Additional suspicion-change subscriber.

        ``on_change`` is a single slot owned by the membership service;
        listeners are for everything else (e.g. the transport's
        retransmission parking) and fire after it, in registration order.
        """
        self._listeners.append(fn)

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change(set(self.suspected))
        for listener in self._listeners:
            listener(set(self.suspected))

    def on_recover(self) -> None:
        for peer in self._last_heard:
            self._last_heard[peer] = self.now
        self.suspected.clear()
