"""Unit tests for the datagram network: FIFO, loss, partitions, crashes."""

from dataclasses import dataclass

import pytest

from repro.net.batching import BATCH_KIND, BatchEnvelope
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.network import Network, NetworkStats
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry


@dataclass
class Ping:
    n: int
    kind: str = "ping"


@dataclass
class Received:
    src: int
    payload: object
    deliver_time: float


def build(num_sites=3, **kwargs):
    engine = SimulationEngine()
    network = Network(engine, num_sites, rng=RngRegistry(5), **kwargs)
    inboxes = [[] for _ in range(num_sites)]
    for site in range(num_sites):
        network.attach(
            site,
            lambda src, payload, site=site: inboxes[site].append(
                Received(src, payload, engine.now)
            ),
        )
    return engine, network, inboxes


def test_basic_delivery_with_latency():
    engine, network, inboxes = build(latency=FixedLatency(2.0))
    network.send(0, 1, Ping(1))
    engine.run()
    assert [d.payload.n for d in inboxes[1]] == [1]
    assert inboxes[1][0].deliver_time == 2.0


def test_fifo_per_link_despite_latency_jitter():
    engine, network, inboxes = build(latency=UniformLatency(0.1, 5.0))
    for n in range(50):
        network.send(0, 1, Ping(n))
    engine.run()
    assert [d.payload.n for d in inboxes[1]] == list(range(50))


def test_loopback_is_delivered():
    engine, network, inboxes = build()
    network.send(2, 2, Ping(7))
    engine.run()
    assert [d.payload.n for d in inboxes[2]] == [7]


def test_messages_to_crashed_site_dropped():
    engine, network, inboxes = build()
    network.set_site_up(1, False)
    network.send(0, 1, Ping(1))
    engine.run()
    assert inboxes[1] == []
    assert network.stats.dropped_crashed == 1


def test_crashed_sender_cannot_send():
    engine, network, inboxes = build()
    network.set_site_up(0, False)
    network.send(0, 1, Ping(1))
    engine.run()
    assert inboxes[1] == []


def test_crash_while_in_flight_drops():
    engine, network, inboxes = build(latency=FixedLatency(5.0))
    network.send(0, 1, Ping(1))
    engine.schedule(1.0, network.set_site_up, 1, False)
    engine.run()
    assert inboxes[1] == []


def test_partition_blocks_and_heal_restores():
    engine, network, inboxes = build()
    network.partitions.split([[0], [1, 2]])
    network.send(0, 1, Ping(1))
    engine.run()
    assert inboxes[1] == []
    assert network.stats.dropped_partition == 1
    network.partitions.heal()
    network.send(0, 1, Ping(2))
    engine.run()
    assert [d.payload.n for d in inboxes[1]] == [2]


def test_loss_rate_drops_roughly_that_fraction():
    engine, network, inboxes = build(loss_rate=0.3)
    for n in range(1000):
        network.send(0, 1, Ping(n))
    engine.run()
    received = len(inboxes[1])
    assert 600 < received < 800
    assert network.stats.dropped_loss == 1000 - received


def test_message_accounting_by_kind():
    engine, network, inboxes = build()
    network.send(0, 1, Ping(1))
    network.send(0, 2, Ping(2))
    network.multicast(0, [0, 1, 2], Ping(3))
    engine.run()
    assert network.stats.by_kind["ping"] == 4  # multicast skips self
    assert network.stats.sent == 4
    assert network.stats.delivered == 4


def test_multicast_include_self():
    engine, network, inboxes = build()
    network.multicast(0, [0, 1], Ping(1), include_self=True)
    engine.run()
    assert len(inboxes[0]) == 1 and len(inboxes[1]) == 1


def test_unknown_site_rejected():
    engine, network, _ = build()
    with pytest.raises(ValueError):
        network.send(0, 9, Ping(1))


def test_kind_defaults_to_type_name():
    engine, network, inboxes = build()
    network.send(0, 1, {"raw": True})
    engine.run()
    assert network.stats.by_kind["dict"] == 1


def _fan_out_trace(use_multicast, *, include_self=False, bad_destination=False, **kwargs):
    """Two fan-outs from site 0 (one of a batch envelope) on a 6-site network
    with site 5 partitioned away and site 4 crashed; returns deliveries,
    every stats field, and what the RNG yields next."""
    engine, network, inboxes = build(num_sites=6, latency=UniformLatency(0.5, 1.5), **kwargs)
    network.partitions.split([[0, 1, 2, 3, 4], [5]])
    network.set_site_up(4, False)
    dsts = [0, 1, 2, 3, 4, 5, 1, 4] + ([9] if bad_destination else [])
    batch = BatchEnvelope(0, (Ping(1), Ping(2), {"raw": True}))
    for payload, kind in ((Ping(0), None), (Ping(3), "override"), (batch, BATCH_KIND)):
        try:
            if use_multicast:
                network.multicast(0, dsts, payload, kind, include_self=include_self)
            else:
                for dst in dsts:
                    if dst != 0 or include_self:
                        network.send(0, dst, payload, kind)
        except ValueError:
            assert bad_destination
    engine.run()
    deliveries = [
        [(d.src, d.deliver_time, id(d.payload) == id(batch) or d.payload.n) for d in inbox]
        for inbox in inboxes
    ]
    stats = network.stats
    return (
        deliveries,
        stats.snapshot(),
        dict(stats.bytes_by_kind),
        network._rng.random(),
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"loss_rate": 0.3},
        {"include_self": True},
        {"bandwidth": 50.0, "loss_rate": 0.3, "include_self": True},
        {"bad_destination": True, "loss_rate": 0.3},
    ],
    ids=["plain", "lossy", "include-self", "bandwidth-lossy-self", "unknown-site"],
)
def test_multicast_is_exactly_a_loop_of_sends(kwargs):
    """Same delivery times, drops, RNG draws and accounting -- per kind and
    per byte, batch constituents included -- as one send per destination."""
    fanned, looped = _fan_out_trace(True, **kwargs), _fan_out_trace(False, **kwargs)
    assert fanned == looped
    _, stats, bytes_by_kind, _ = fanned
    assert stats["dropped_partition"] and stats["dropped_crashed"] and stats["delivered"]
    assert bool(stats["dropped_loss"]) == ("loss_rate" in kwargs)
    assert sum(bytes_by_kind.values()) == stats["bytes_sent"]
    assert stats["by_kind"]["override"] == stats["by_kind"][BATCH_KIND]


def test_empty_fan_out_accounts_nothing():
    engine, network, _ = build()
    network.multicast(0, [0], Ping(1))
    network.multicast(0, [], Ping(1))
    assert network.stats.snapshot() == NetworkStats().snapshot()
    assert not network.stats.bytes_by_kind


def test_crashed_sender_fan_out_counts_each_destination():
    engine, network, inboxes = build()
    network.set_site_up(0, False)
    network.multicast(0, [0, 1, 2], Ping(1))
    engine.run()
    assert network.stats.sent == 2 and network.stats.dropped_crashed == 2
    assert inboxes == [[], [], []]


def test_reset_stats_mid_run_counts_later_datagrams_in_the_new_object():
    engine, network, inboxes = build(latency=FixedLatency(2.0))
    network.multicast(0, [1, 2], Ping(1))
    before = network.stats
    engine.schedule(1.0, network.reset_stats)
    engine.schedule(1.5, network.multicast, 0, [1, 2], Ping(2))
    engine.run()
    # Sent before the reset, delivered after it: sends stay in the old
    # object, deliveries land in the new one.
    assert (before.sent, before.delivered) == (2, 0)
    assert network.stats is not before
    assert (network.stats.sent, network.stats.delivered) == (2, 4)
    assert network.stats.by_kind == {"ping": 2}
