"""Simulated asynchronous message-passing network.

This package is the substitution for the paper's LAN + group-communication
hardware: point-to-point FIFO links with configurable latency distributions,
optional message loss compensated by an ARQ transport, and partitions.

Layering (bottom to top):

- :class:`repro.net.network.Network` -- unreliable datagram fabric with
  per-link FIFO ordering and loss/partition injection.
- :class:`repro.net.transport.ReliableTransport` -- per-link ARQ giving
  reliable FIFO channels between correct, connected sites (what the paper
  assumes of its links).  On a lossless network it is a binding, not a
  layer: the router's dispatch is attached straight to the network.
- :class:`repro.net.router.ChannelRouter` -- channel tagging and dispatch,
  with the optional flush-window coalescer of :mod:`repro.net.batching`
  between it and the transport.
- :mod:`repro.net.sizes` -- the one size model every envelope layer above
  is priced by.
- The broadcast primitives in :mod:`repro.broadcast` build on the transport.
"""

from repro.net.latency import (
    FixedLatency,
    LatencyModel,
    LognormalLatency,
    UniformLatency,
)
from repro.net.network import Network, NetworkStats
from repro.net.partition import PartitionManager
from repro.net.router import ChannelRouter
from repro.net.sizes import estimate_size, wire_size
from repro.net.transport import ReliableTransport

__all__ = [
    "ChannelRouter",
    "FixedLatency",
    "LatencyModel",
    "LognormalLatency",
    "Network",
    "NetworkStats",
    "PartitionManager",
    "ReliableTransport",
    "UniformLatency",
    "estimate_size",
    "wire_size",
]
