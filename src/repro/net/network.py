"""The datagram fabric: per-link FIFO, latency, loss, partitions, crashes.

:class:`Network` models the physical medium.  Guarantees and non-guarantees:

- **FIFO per link**: two datagrams from site A to site B are delivered in
  send order (the paper assumes FIFO links).  Implemented by clamping each
  link's delivery time to be monotonically non-decreasing.
- **Loss**: each datagram is dropped independently with ``loss_rate``
  probability; recovery from loss is the transport's job.
- **Partitions / crashes**: datagrams to unreachable or crashed sites are
  silently dropped (counted in the stats).

The network also keeps the message accounting used by the paper-style cost
comparisons (experiment E1): physical point-to-point sends per payload kind.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.net.batching import BATCH_KIND, BatchEnvelope
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.sizes import estimate_size, kind_of, wire_size
from repro.net.partition import PartitionManager
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry


@dataclass
class NetworkStats:
    """Message accounting, the raw material of experiment E1."""

    sent: int = 0
    delivered: int = 0
    bytes_sent: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_crashed: int = 0
    #: Data frames re-sent by the ARQ transport.  Counted here (alongside
    #: the ``transport.retransmit`` by_kind label) so experiments can report
    #: repair traffic next to the loss/partition drop counters it answers.
    retransmissions: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)

    def snapshot(self) -> dict[str, Any]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "bytes_sent": self.bytes_sent,
            "dropped_loss": self.dropped_loss,
            "dropped_partition": self.dropped_partition,
            "dropped_crashed": self.dropped_crashed,
            "retransmissions": self.retransmissions,
            "by_kind": dict(self.by_kind),
        }


class Network:
    """Simulated datagram network connecting numbered sites.

    Sites register a receive callback ``handler(src, payload)`` with
    :meth:`attach`; crashed sites are marked with :meth:`set_site_up`.  A
    datagram's accounting label is the ``kind`` the sender passes, else
    :func:`repro.net.sizes.kind_of` its payload.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        num_sites: int,
        latency: Optional[LatencyModel] = None,
        rng: Optional[RngRegistry] = None,
        loss_rate: float = 0.0,
        bandwidth: Optional[float] = None,
    ):
        if num_sites <= 0:
            raise ValueError("num_sites must be positive")
        if not 0 <= loss_rate < 1:
            raise ValueError("loss_rate must be in [0, 1)")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("bandwidth must be positive (bytes per ms)")
        self.engine = engine
        self.num_sites = num_sites
        self.latency = latency if latency is not None else FixedLatency(1.0)
        self.loss_rate = loss_rate
        #: Optional per-link bandwidth in bytes/ms: adds size/bandwidth
        #: transmission delay on top of the propagation latency.
        self.bandwidth = bandwidth
        self.partitions = PartitionManager(num_sites)
        self.stats = NetworkStats()
        #: Observer ``fn(time, src, dst, kind)`` called for every datagram
        #: handed to a site's handler (see ``analysis.sequence``).
        self.on_deliver: Optional[Callable[[float, int, int, str], None]] = None
        self._rng = (rng or RngRegistry(0)).stream("network")
        self._handlers: list[Optional[Callable[[int, Any], None]]] = [None] * num_sites
        self._site_up = [True] * num_sites
        # FIFO clamp: ``_link_floor[src][dst]`` is the latest delivery time
        # scheduled on that link.
        self._link_floor = [[0.0] * num_sites for _ in range(num_sites)]

    def attach(self, site: int, handler: Callable[[int, Any], None]) -> None:
        """Register the receive callback ``handler(src, payload)`` for ``site``."""
        self._check_site(site)
        self._handlers[site] = handler

    def set_site_up(self, site: int, up: bool) -> None:
        """Mark a site crashed (False) or recovered (True)."""
        self._check_site(site)
        self._site_up[site] = up

    def site_is_up(self, site: int) -> bool:
        self._check_site(site)
        return self._site_up[site]

    def send(self, src: int, dst: int, payload: Any, kind: Optional[str] = None) -> None:
        """Send one datagram; it may be lost, partitioned away, or delivered.

        Loopback (``src == dst``) is delivered with zero loss and zero
        latency, but scheduled at ``now`` rather than called, so local
        delivery still goes through the event loop (keeping callback
        ordering uniform).
        """
        self.multicast(src, (dst,), payload, kind, True)

    def multicast(
        self,
        src: int,
        dsts: Iterable[int],
        payload: Any,
        kind: Optional[str] = None,
        include_self: bool = False,
    ) -> None:
        """Unicast ``payload`` to each destination (the LAN broadcast model).

        The paper's cost model treats a broadcast to ``n`` sites as ``n``
        point-to-point messages in the absence of hardware multicast; the
        accounting says exactly that, and every destination gets its own
        loss and latency draw, in destination order.  What differs per
        destination (reachability, loss, latency, FIFO clamp) runs per
        destination; the label, the wire size and the accounting are shared.
        Each delivery is one handle-less engine event: nothing cancels a
        datagram in flight.
        """
        num_sites = self.num_sites
        if not 0 <= src < num_sites:
            raise ValueError(f"unknown site {src} (num_sites={num_sites})")
        size = wire_size(payload)
        stats = self.stats
        src_up = self._site_up[src]
        group = self.partitions._group
        src_group = group[src]
        loss_rate = self.loss_rate
        rng = self._rng
        sample = self.latency.sample
        transmission = 0.0 if self.bandwidth is None else size / self.bandwidth
        now = self.engine.now
        floors = self._link_floor[src]
        schedule_at = self.engine.schedule_at
        deliver = self._deliver
        label = kind if kind is not None else kind_of(payload)
        datagrams = 0
        try:
            for dst in dsts:
                if dst == src:
                    if not include_self:
                        continue
                elif not 0 <= dst < num_sites:
                    raise ValueError(f"unknown site {dst} (num_sites={num_sites})")
                datagrams += 1
                if not src_up:
                    # A crashed site cannot send; callers normally guard
                    # this, but a late timer may race a crash.
                    stats.dropped_crashed += 1
                    continue
                if dst == src:
                    deliver_at = now
                else:
                    if group[dst] != src_group:
                        stats.dropped_partition += 1
                        continue
                    if loss_rate > 0 and rng.random() < loss_rate:
                        stats.dropped_loss += 1
                        continue
                    deliver_at = now + (sample(rng, src, dst) + transmission)
                # FIFO clamp: never deliver before an earlier datagram on
                # this link.
                if deliver_at < floors[dst]:
                    deliver_at = floors[dst]
                floors[dst] = deliver_at
                schedule_at(deliver_at, deliver, src, dst, payload, label)
        finally:
            if datagrams:
                stats.sent += datagrams
                stats.bytes_sent += size * datagrams
                if label == BATCH_KIND:
                    # A flush-window batch is one physical datagram but many
                    # protocol messages: attribute each constituent's count
                    # and bytes to its own kind so the E1/E11 per-kind cost
                    # tables are batching-invariant, and only the shared
                    # framing residual to the batch label.  (Retransmissions
                    # of batch frames keep the opaque ``transport.retransmit``
                    # label, as all repair traffic does.)  ``sent`` keeps
                    # counting physical datagrams, so with batching on
                    # ``sum(by_kind) > sent`` by design.
                    self._account_batch(payload, size, datagrams)
                else:
                    stats.by_kind[label] += datagrams
                    stats.bytes_by_kind[label] += size * datagrams

    def _deliver(self, src: int, dst: int, payload: Any, kind: str) -> None:
        if not self._site_up[dst]:
            self.stats.dropped_crashed += 1
            return
        if src != dst:
            group = self.partitions._group
            if group[src] != group[dst]:
                # Partition struck while in flight.
                self.stats.dropped_partition += 1
                return
        handler = self._handlers[dst]
        if handler is None:
            raise RuntimeError(f"site {dst} has no attached handler")
        self.stats.delivered += 1
        if self.on_deliver is not None:
            self.on_deliver(self.engine.now, src, dst, kind)
        handler(src, payload)

    def _account_batch(self, payload: Any, size: int, datagrams: int) -> None:
        """Split a batch datagram's accounting across its constituents.

        ``payload`` is the BatchEnvelope itself on a passthrough link, or
        the ARQ data frame wrapping one; anything else labeled as a batch
        is accounted opaquely.  The invariant ``sum(bytes_by_kind) ==
        bytes_sent`` is preserved: constituent sizes are the same memoized
        estimates the envelope's own wire size summed over.
        """
        batch = payload if isinstance(payload, BatchEnvelope) else getattr(payload, "payload", None)
        by_kind = self.stats.by_kind
        bytes_by_kind = self.stats.bytes_by_kind
        inner = 0
        if isinstance(batch, BatchEnvelope):
            for item in batch.items:
                item_size = estimate_size(item)
                item_kind = kind_of(item)
                by_kind[item_kind] += datagrams
                bytes_by_kind[item_kind] += item_size * datagrams
                inner += item_size
        by_kind[BATCH_KIND] += datagrams
        bytes_by_kind[BATCH_KIND] += (size - inner) * datagrams

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.num_sites:
            raise ValueError(f"unknown site {site} (num_sites={self.num_sites})")

    def reset_stats(self) -> None:
        self.stats = NetworkStats()
