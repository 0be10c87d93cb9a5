"""Unit tests for the flush-window broadcast batcher."""

from dataclasses import dataclass

import pytest

from repro.net.batching import (
    BATCH_KIND,
    BatchEnvelope,
    BroadcastBatcher,
)
from repro.net.network import Network
from repro.net.router import ChannelRouter
from repro.net.sizes import OBJECT_OVERHEAD, estimate_size
from repro.net.transport import ReliableTransport
from repro.sim.engine import SimulationEngine


@dataclass(slots=True)
class Note:
    text: str
    kind: str = "note"


def build(num_sites=3, flush_window=0.0):
    engine = SimulationEngine()
    network = Network(engine, num_sites)
    routers, batchers = [], []
    for site in range(num_sites):
        transport = ReliableTransport(engine, network, site)
        batcher = BroadcastBatcher(engine, transport, flush_window=flush_window)
        routers.append(ChannelRouter(transport, batcher=batcher))
        batchers.append(batcher)
    return engine, network, routers, batchers


def test_rejects_negative_window():
    with pytest.raises(ValueError):
        BroadcastBatcher(SimulationEngine(), None, flush_window=-0.5)


def test_same_window_payloads_share_one_envelope():
    engine, network, routers, batchers = build()
    got = []
    routers[1].register("c", lambda src, p: got.append((src, p.text)))
    routers[0].send(1, "c", Note("first"))
    routers[0].send(1, "c", Note("second"))
    engine.run()
    # One physical datagram carried both payloads, in issue order.
    assert got == [(0, "first"), (0, "second")]
    assert batchers[0].batches_sent == 1
    assert batchers[0].payloads_batched == 2
    assert network.stats.sent == 1
    assert network.stats.by_kind["note"] == 2
    assert network.stats.by_kind[BATCH_KIND] == 1


def test_single_payload_window_is_sent_unwrapped():
    engine, network, routers, batchers = build()
    got = []
    routers[1].register("c", lambda src, p: got.append(p.text))
    routers[0].send(1, "c", Note("solo"))
    engine.run()
    assert got == ["solo"]
    assert batchers[0].singles_sent == 1
    assert batchers[0].batches_sent == 0
    assert BATCH_KIND not in network.stats.by_kind


def test_destinations_get_separate_envelopes():
    engine, network, routers, batchers = build()
    boxes = {1: [], 2: []}
    routers[1].register("c", lambda src, p: boxes[1].append(p.text))
    routers[2].register("c", lambda src, p: boxes[2].append(p.text))
    routers[0].multicast([0, 1, 2], "c", Note("a"))
    routers[0].multicast([0, 1, 2], "c", Note("b"))
    engine.run()
    assert boxes[1] == ["a", "b"] and boxes[2] == ["a", "b"]
    assert batchers[0].batches_sent == 2  # one per destination
    assert network.stats.sent == 2


def test_flush_window_delays_delivery():
    engine, network, routers, batchers = build(flush_window=2.0)
    seen_at = []
    routers[1].register("c", lambda src, p: seen_at.append(engine.now))
    routers[0].send(1, "c", Note("x"))
    assert batchers[0].pending_count() == 1
    engine.run()
    assert batchers[0].pending_count() == 0
    # Window (2.0) + link latency (1.0 fixed default).
    assert seen_at == [3.0]


def test_windows_close_and_reopen():
    engine, network, routers, batchers = build()
    got = []
    routers[1].register("c", lambda src, p: got.append(p.text))
    routers[0].send(1, "c", Note("w1-a"))
    routers[0].send(1, "c", Note("w1-b"))
    engine.run()
    routers[0].send(1, "c", Note("w2-a"))
    routers[0].send(1, "c", Note("w2-b"))
    engine.run()
    assert got == ["w1-a", "w1-b", "w2-a", "w2-b"]
    assert batchers[0].batches_sent == 2
    # Batch sequence numbers advance across windows.
    assert batchers[0]._next_seq == 2


def test_reset_drops_the_open_window():
    engine, network, routers, batchers = build()
    routers[1].register("c", lambda src, p: pytest.fail("window was dropped"))
    routers[0].send(1, "c", Note("doomed"))
    batchers[0].reset()  # fail-stop crash: the open window is lost
    engine.run()  # the armed timer fires as a no-op
    assert network.stats.sent == 0


def test_envelope_wire_size_matches_field_traversal():
    envelope = BatchEnvelope(3, (Note("ab"), Note("cdef")))
    expected = (
        OBJECT_OVERHEAD
        + 8  # seq
        + estimate_size(envelope.items)
        + estimate_size(envelope.kind)
    )
    assert estimate_size(envelope) == expected
    assert len(envelope) == 2


def test_batch_bytes_attributed_to_constituent_kinds():
    engine, network, routers, batchers = build()
    routers[1].register("c", lambda src, p: None)
    routers[0].send(1, "c", Note("aa"))
    routers[0].send(1, "c", Note("bbbb"))
    engine.run()
    stats = network.stats
    # Physical accounting: one datagram; logical accounting: two notes plus
    # the envelope's framing residual.  Byte totals reconcile exactly.
    assert stats.sent == 1
    assert stats.by_kind["note"] == 2
    assert sum(stats.bytes_by_kind.values()) == stats.bytes_sent
    assert stats.bytes_by_kind[BATCH_KIND] > 0
