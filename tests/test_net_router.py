"""Unit tests for the channel router."""

import inspect
from dataclasses import dataclass

import pytest

from repro.net.network import Network
from repro.net.router import ChannelRouter
from repro.net.transport import ReliableTransport
from repro.sim.engine import SimulationEngine


@dataclass
class Note:
    text: str
    kind: str = "note"


def build(num_sites=2):
    engine = SimulationEngine()
    network = Network(engine, num_sites)
    routers = []
    for site in range(num_sites):
        transport = ReliableTransport(engine, network, site)
        routers.append(ChannelRouter(transport))
    return engine, network, routers


def test_dispatch_by_channel():
    engine, network, routers = build()
    got_a, got_b = [], []
    routers[1].register("a", lambda src, p: got_a.append((src, p.text)))
    routers[1].register("b", lambda src, p: got_b.append((src, p.text)))
    routers[0].send(1, "a", Note("to-a"))
    routers[0].send(1, "b", Note("to-b"))
    engine.run()
    assert got_a == [(0, "to-a")]
    assert got_b == [(0, "to-b")]


def test_unregistered_channel_raises():
    engine, network, routers = build()
    routers[0].send(1, "ghost", Note("boo"))
    with pytest.raises(RuntimeError, match="no handler"):
        engine.run()


def test_duplicate_registration_rejected():
    engine, network, routers = build()
    routers[0].register("x", lambda s, p: None)
    with pytest.raises(ValueError):
        routers[0].register("x", lambda s, p: None)


def test_multicast_skips_self_by_default():
    engine, network, routers = build(3)
    boxes = [[] for _ in range(3)]
    for site in range(3):
        routers[site].register("c", lambda src, p, site=site: boxes[site].append(p.text))
    routers[0].multicast([0, 1, 2], "c", Note("hello"))
    engine.run()
    assert boxes[0] == [] and boxes[1] == ["hello"] and boxes[2] == ["hello"]


def test_message_kind_accounting_flows_through():
    engine, network, routers = build()
    routers[1].register("c", lambda src, p: None)
    routers[0].send(1, "c", Note("x"))
    engine.run()
    assert network.stats.by_kind["note"] == 1


def test_passthrough_delivery_chain_is_network_then_router():
    """Passthrough is a binding, not a layer: between the engine loop and a
    channel handler there are exactly two frames.  Pinned so the chain
    cannot quietly re-accrete."""
    engine, network, routers = build(3)
    chains = []

    def handler(src, payload):
        names = [
            f"{type(info.frame.f_locals.get('self')).__name__}.{info.function}"
            for info in inspect.stack()[1:]
        ]
        chains.append(names[: names.index("SimulationEngine.run")])

    for router in routers:
        router.register("c", handler)
    routers[0].multicast([0, 1, 2], "c", Note("fan-out"), include_self=True)
    routers[0].send(1, "c", Note("unicast"))
    engine.run()
    assert chains == [["ChannelRouter._dispatch", "Network._deliver"]] * 4


def test_hold_parks_held_channels_until_release_and_drop_loses_them():
    """A site in state transfer: ``fd`` is served, ``data`` is parked and
    dispatched in arrival order on release; a crash while held drops it."""
    engine, network, routers = build()
    got = []
    routers[1].register("fd", lambda src, p: got.append(("fd", p.text)), during_transfer=True)
    routers[1].register("data", lambda src, p: got.append(("data", p.text)))
    routers[1].hold()
    for text in ("d1", "d2"):
        routers[0].send(1, "data", Note(text))
    routers[0].send(1, "fd", Note("beat"))
    engine.run()
    assert got == [("fd", "beat")]
    assert [(channel, p.text) for channel, _, p in routers[1].parked] == [
        ("data", "d1"), ("data", "d2")
    ]
    routers[1].release()
    assert got == [("fd", "beat"), ("data", "d1"), ("data", "d2")]
    assert routers[1].parked == []

    routers[1].hold()
    routers[0].send(1, "data", Note("lost"))
    engine.run()
    routers[1].drop()
    routers[0].send(1, "data", Note("after"))
    engine.run()
    routers[1].release()
    assert got[3:] == [("data", "after")]


@pytest.mark.parametrize("reliable", [False, True], ids=["passthrough", "arq"])
def test_multicast_reaches_each_destination_once(reliable):
    engine = SimulationEngine()
    network = Network(engine, 3)
    routers = [
        ChannelRouter(ReliableTransport(engine, network, site, reliable=reliable))
        for site in range(3)
    ]
    boxes = [[] for _ in range(3)]
    for site in range(3):
        routers[site].register("c", lambda src, p, site=site: boxes[site].append((src, p.text)))
    routers[0].multicast([0, 1, 2], "c", Note("all"), include_self=True)
    routers[0].multicast([0, 1, 2], "c", Note("others"))
    engine.run(until=1000.0)
    assert boxes[0] == [(0, "all")]
    assert boxes[1] == boxes[2] == [(0, "all"), (0, "others")]
    assert network.stats.by_kind["note"] == 5
