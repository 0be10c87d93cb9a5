"""Unit tests for the ARQ transport: reliability and FIFO over loss,
crashes (incarnation epochs), windowing, backoff and suspicion parking."""

from dataclasses import dataclass

import pytest

from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.net.transport import ReliableTransport
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


@dataclass
class Msg:
    n: int
    kind: str = "msg"


def build(loss_rate=0.0, num_sites=2, seed=3, **transport_kwargs):
    engine = SimulationEngine()
    network = Network(
        engine,
        num_sites,
        latency=UniformLatency(0.5, 1.5),
        rng=RngRegistry(seed),
        loss_rate=loss_rate,
    )
    transports = []
    inboxes = [[] for _ in range(num_sites)]
    for site in range(num_sites):
        transport = ReliableTransport(engine, network, site, **transport_kwargs)
        transport.set_receiver(lambda src, p, site=site: inboxes[site].append((src, p)))
        transports.append(transport)
    return engine, network, transports, inboxes


def test_passthrough_mode_on_lossless_network():
    engine, network, transports, inboxes = build(loss_rate=0.0)
    assert transports[0].passthrough
    transports[0].send(1, Msg(1))
    engine.run()
    assert [p.n for _, p in inboxes[1]] == [1]
    # No framing overhead: exactly one wire message.
    assert network.stats.sent == 1


def test_arq_mode_on_lossy_network():
    engine, network, transports, inboxes = build(loss_rate=0.25)
    assert not transports[0].passthrough
    for n in range(100):
        transports[0].send(1, Msg(n))
    engine.run(until=100000)
    received = [p.n for _, p in inboxes[1]]
    assert received == list(range(100))  # all delivered, in FIFO order
    assert network.stats.dropped_loss > 0  # losses actually happened


def test_arq_no_duplicates():
    engine, network, transports, inboxes = build(loss_rate=0.4, seed=8)
    for n in range(50):
        transports[0].send(1, Msg(n))
    engine.run(until=100000)
    received = [p.n for _, p in inboxes[1]]
    assert received == sorted(set(received)) == list(range(50))


def test_bidirectional_traffic_under_loss():
    engine, network, transports, inboxes = build(loss_rate=0.2, seed=4)
    for n in range(30):
        transports[0].send(1, Msg(n))
        transports[1].send(0, Msg(100 + n))
    engine.run(until=100000)
    assert [p.n for _, p in inboxes[1]] == list(range(30))
    assert [p.n for _, p in inboxes[0]] == [100 + n for n in range(30)]


def test_loopback_bypasses_arq():
    engine, network, transports, inboxes = build(loss_rate=0.5)
    transports[0].send(0, Msg(1))
    engine.run()
    assert [p.n for _, p in inboxes[0]] == [1]


def test_ack_and_retransmit_traffic_labelled_separately():
    engine, network, transports, inboxes = build(loss_rate=0.1, seed=6)
    for n in range(20):
        transports[0].send(1, Msg(n))
    engine.run(until=100000)
    assert network.stats.by_kind["transport.ack"] > 0
    # First transmissions keep the payload kind; repairs get their own
    # label so protocol message counts stay comparable to the paper's
    # analytical cost model (E1).
    assert network.stats.by_kind["msg"] == 20
    assert network.stats.by_kind["transport.retransmit"] > 0
    assert network.stats.retransmissions == network.stats.by_kind["transport.retransmit"]
    assert "retransmissions" in network.stats.snapshot()


def test_duplicate_suppression_across_retransmits():
    engine, network, transports, inboxes = build(loss_rate=0.3, seed=11)
    for n in range(40):
        transports[0].send(1, Msg(n))
    engine.run(until=100000)
    assert network.stats.retransmissions > 0  # repairs actually happened
    assert [p.n for _, p in inboxes[1]] == list(range(40))  # exactly once, in order


def test_reset_clears_link_state():
    engine, network, transports, inboxes = build(loss_rate=0.2, seed=9)
    for n in range(10):
        transports[0].send(1, Msg(n))
    engine.run(until=100000)
    transports[0].reset()
    transports[1].reset()
    # After reset both sides restart from sequence 0 and still communicate.
    transports[0].send(1, Msg(999))
    engine.run(until=200000)
    assert inboxes[1][-1][1].n == 999


def test_one_sided_reset_resyncs_via_epochs():
    """The crash/recover regression the epochs exist for: only the
    *recovered* side resets, and the link must still come back.

    Previously the peer kept its old sequence state, so every
    post-recovery frame arrived with ``seq > next_expected == 0`` on one
    side and acked sequences meant nothing on the other — a silent FIFO
    stall with both ends buffering forever."""
    engine, network, transports, inboxes = build(loss_rate=0.0, reliable=True)
    transports[0].send(1, Msg(1))
    engine.run(until=100)
    assert [p.n for _, p in inboxes[1]] == [1]

    network.set_site_up(1, False)  # crash site 1
    transports[0].send(1, Msg(2))  # dropped at the crashed destination
    engine.run(until=200)
    network.set_site_up(1, True)  # recover: only site 1 resets
    transports[1].reset()
    assert transports[1].epoch == 1

    transports[0].send(1, Msg(3))
    transports[1].send(0, Msg(4))
    engine.run(until=10000)
    # Site 0 re-framed its outstanding traffic for the new incarnation:
    # the in-flight loss (2) was repaired and FIFO order held.
    assert [p.n for _, p in inboxes[1]] == [1, 2, 3]
    assert [p.n for _, p in inboxes[0]] == [4]
    assert network.stats.retransmissions > 0


def test_stale_incarnation_frames_are_discarded():
    engine, network, transports, inboxes = build(loss_rate=0.0, reliable=True)
    transports[0].send(1, Msg(1))
    engine.run(until=100)
    transports[1].reset()
    transports[1].reset()  # two quick recoveries: epoch 2
    transports[0].send(1, Msg(2))
    engine.run(until=10000)
    assert [p.n for _, p in inboxes[1]] == [1, 2]
    assert transports[0]._peer_epoch[1] == 2


def test_window_bounds_in_flight_frames():
    engine, network, transports, inboxes = build(loss_rate=0.0, reliable=True, window=4)
    for n in range(20):
        transports[0].send(1, Msg(n))
    state = transports[0]._send_state[1]
    assert len(state.unacked) == 4  # window admitted
    assert len(state.pending) == 16  # the rest queue for slots
    engine.run(until=10000)
    assert [p.n for _, p in inboxes[1]] == list(range(20))
    assert not state.unacked and not state.pending


def test_backoff_bounds_retransmissions_to_down_peer():
    engine, network, transports, inboxes = build(loss_rate=0.0, reliable=True)
    network.set_site_up(1, False)
    transports[0].send(1, Msg(1))
    engine.run(until=10000)
    # Base interval 4.0 with cap 64x: a fixed-interval resend loop would
    # fire ~2500 times by t=10000; exponential backoff decays to a trickle.
    assert 1 <= network.stats.retransmissions <= 60
    # The peer still gets the frame once it comes back.
    network.set_site_up(1, True)
    engine.run(until=20000)
    assert [p.n for _, p in inboxes[1]] == [1]


def test_suspicion_parks_and_resumes_retransmission():
    engine, network, transports, inboxes = build(loss_rate=0.0, reliable=True)
    network.set_site_up(1, False)
    transports[0].send(1, Msg(7))
    transports[0].set_suspected({1})  # failure detector says: down
    engine.run(until=5000)
    assert network.stats.retransmissions == 0  # parked, no churn
    network.set_site_up(1, True)
    transports[0].set_suspected(set())  # suspicion cleared: resume
    engine.run(until=10000)
    assert [p.n for _, p in inboxes[1]] == [7]
    assert network.stats.retransmissions >= 1


def test_mixed_passthrough_arq_is_an_error():
    engine = SimulationEngine()
    network = Network(engine, 2, latency=UniformLatency(0.5, 1.5), rng=RngRegistry(3))
    trace = TraceLog()
    sender = ReliableTransport(engine, network, 0, reliable=False)  # passthrough
    receiver = ReliableTransport(engine, network, 1, reliable=True, trace=trace)
    sender.set_receiver(lambda src, p: None)
    receiver.set_receiver(lambda src, p: None)
    sender.send(1, Msg(1))
    with pytest.raises(RuntimeError, match="mixed passthrough/ARQ"):
        engine.run()
    assert trace.counts["transport.unframed"] == 1


def test_forced_arq_on_lossless_network():
    engine, network, transports, inboxes = build(loss_rate=0.0, reliable=True)
    assert not transports[0].passthrough
    transports[0].send(1, Msg(1))
    engine.run()
    assert [p.n for _, p in inboxes[1]] == [1]
    assert network.stats.by_kind["transport.ack"] == 1  # framed + acked


@dataclass
class Numbered:
    """A payload whose ``kind`` is not a label (e.g. an enum-like int)."""

    kind: int = 7


@pytest.mark.parametrize("reliable", [False, True], ids=["passthrough", "arq"])
def test_non_string_kind_is_labelled_by_type_name_in_both_modes(reliable):
    """One ``kind_of`` rule: ARQ used to label such a payload ``7`` while
    passthrough labelled it ``Numbered``."""
    engine, network, transports, inboxes = build(reliable=reliable)
    transports[0].send(1, Numbered())
    transports[0].multicast([0, 1], Numbered())
    engine.run(until=1000.0)
    assert len(inboxes[1]) == 2 and inboxes[0] == []
    labels = {k: v for k, v in network.stats.by_kind.items() if k != "transport.ack"}
    assert labels == {"Numbered": 2}
