"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.broadcast.causal import CausalBroadcast
from repro.broadcast.reliable import ReliableBroadcast
from repro.broadcast.total import TotalOrderBroadcast
from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.net.router import ChannelRouter
from repro.net.transport import ReliableTransport
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


class BroadcastHarness:
    """A network of N sites with a chosen broadcast stack, for layer tests.

    Collects deliveries per site in ``delivered[site]`` as (payload, extra)
    tuples, where ``extra`` is layer-specific (None, vector clock, or order
    index).
    """

    def __init__(
        self,
        num_sites: int = 3,
        stack: str = "reliable",
        relay: bool = False,
        loss_rate: float = 0.0,
        seed: int = 0,
        mode: str = "sequencer",
        uniform: bool = False,
    ):
        self.engine = SimulationEngine()
        self.network = Network(
            self.engine,
            num_sites,
            latency=UniformLatency(0.5, 1.5),
            rng=RngRegistry(seed),
            loss_rate=loss_rate,
        )
        self.num_sites = num_sites
        self.transports = []
        self.routers = []
        self.layers = []
        self.delivered: list[list[tuple]] = [[] for _ in range(num_sites)]
        for site in range(num_sites):
            transport = ReliableTransport(self.engine, self.network, site)
            router = ChannelRouter(transport)
            reliable = ReliableBroadcast(self.engine, router, site, num_sites, relay=relay)
            self.transports.append(transport)
            self.routers.append(router)
            if stack == "reliable":
                reliable.set_deliver(self._make_sink(site, lambda m: (m.payload, None)))
                self.layers.append(reliable)
            elif stack == "causal":
                causal = CausalBroadcast(reliable)
                causal.set_deliver(
                    self._make_sink(site, lambda m, env: (env.payload, env.vc))
                )
                self.layers.append(causal)
            elif stack == "total":
                causal = CausalBroadcast(reliable)
                total = TotalOrderBroadcast(
                    self.engine, causal, mode=mode, token_hold=0.5, uniform=uniform
                )
                total.set_deliver(
                    self._make_sink(site, lambda p, env, idx: (p, idx))
                )
                self.layers.append(total)
            else:
                raise ValueError(stack)

    def _make_sink(self, site: int, shape):
        def sink(*args):
            self.delivered[site].append(shape(*args))

        return sink

    def run(self, until: float = 1000.0) -> None:
        self.engine.run(until=until)

    def payloads(self, site: int) -> list:
        return [payload for payload, _ in self.delivered[site]]


@pytest.fixture
def harness_factory():
    return BroadcastHarness


def quick_cluster(protocol: str = "rbp", **overrides) -> Cluster:
    """A small deterministic cluster for protocol tests."""
    defaults = dict(protocol=protocol, num_sites=3, num_objects=16, seed=11)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def spec(name: str, home: int = 0, reads=(), writes=None) -> TransactionSpec:
    return TransactionSpec.make(name, home, read_keys=list(reads), writes=writes)


@pytest.fixture
def cluster_factory():
    return quick_cluster


@pytest.fixture
def make_spec():
    return spec
