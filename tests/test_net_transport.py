"""Unit tests for the ARQ transport: reliability and FIFO over loss,
crashes (incarnation epochs), windowing, backoff and suspicion parking."""

from dataclasses import dataclass

import pytest

from repro.net.latency import FixedLatency, UniformLatency
from repro.net.network import Network
from repro.net.transport import AckFrame, Frame, ReliableTransport
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


@dataclass
class Msg:
    n: int
    kind: str = "msg"


def build(loss_rate=0.0, num_sites=2, seed=3, latency=None, **transport_kwargs):
    engine = SimulationEngine()
    network = Network(
        engine,
        num_sites,
        latency=latency if latency is not None else UniformLatency(0.5, 1.5),
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


def drop_first(network, *matches):
    """Drop, once each, the first datagram each predicate in ``matches``
    accepts (``fn(src, dst, payload)``), as a lost datagram.  Returns the
    send time of every retransmitted frame."""
    pending = list(matches)
    resent_at = []
    send = network.send

    def lossy_send(src, dst, payload, kind=None):
        for match in pending:
            if match(src, dst, payload):
                pending.remove(match)
                network.stats.dropped_loss += 1
                return
        if kind == "transport.retransmit":
            resent_at.append(network.engine.now)
        send(src, dst, payload, kind)

    network.send = lossy_send
    return resent_at


def frame_seq(seq, src=0):
    """Matches site ``src``'s frame ``seq`` (first transmission or resend)."""
    return lambda sender, dst, payload: (
        sender == src and isinstance(payload, Frame) and payload.seq == seq
    )


def a_nack(src, dst, payload):
    return isinstance(payload, AckFrame) and payload.nack


def test_loss_mid_stream_is_resent_on_the_next_frames_ack():
    """FIFO links: the ack of frame 3 names a frame sent after the lost
    frame 2, so the sender resends 2 at once, one round trip after the
    loss, not a retransmit interval later -- and only 2, only once."""
    engine, network, transports, inboxes = build(
        reliable=True, latency=FixedLatency(1.0), retransmit_interval=10.0
    )
    resent_at = drop_first(network, frame_seq(2))
    for n in range(5):
        transports[0].send(1, Msg(n))
    engine.run(until=5.0)
    assert [p.n for _, p in inboxes[1]] == list(range(5))
    assert resent_at == [2.0]  # when the ack of frame 3 arrived
    assert network.stats.dropped_loss == 1


def test_tail_loss_is_nacked_on_the_next_reverse_ack():
    """The lost frame is the link's first and last: no later frame's ack
    can name it.  The receiver's own traffic is acked with the sender's
    high-water mark (1), which tells the receiver it lacks seq 0; its NACK
    brings the resend long before the timer."""
    engine, network, transports, inboxes = build(
        reliable=True, latency=FixedLatency(1.0), retransmit_interval=10.0
    )
    resent_at = drop_first(network, frame_seq(0))
    transports[0].send(1, Msg(1))
    engine.schedule_at(0.5, transports[1].send, 0, Msg(100))
    engine.run(until=6.0)
    assert [p.n for _, p in inboxes[1]] == [1]
    assert [p.n for _, p in inboxes[0]] == [100]
    # Site 1's frame reaches site 0 at 1.5, its ack (high=1) site 1 at 2.5,
    # site 1's NACK site 0 at 3.5.
    assert resent_at == [3.5]


@pytest.mark.parametrize("lost", ["nack", "retransmission"])
def test_loss_of_the_repair_falls_back_to_the_timer(lost):
    """A NACK lost with no later traffic, or a resend lost itself, leaves
    the hole to the retransmit timer: still repaired, one interval on."""
    engine, network, transports, inboxes = build(
        reliable=True, latency=FixedLatency(1.0), retransmit_interval=10.0
    )
    second = a_nack if lost == "nack" else frame_seq(0)
    resent_at = drop_first(network, frame_seq(0), second)
    transports[0].send(1, Msg(1))
    engine.schedule_at(0.5, transports[1].send, 0, Msg(100))
    engine.run(until=9.0)
    assert inboxes[1] == []
    engine.run(until=20.0)
    assert [p.n for _, p in inboxes[1]] == [1]
    assert [p.n for _, p in inboxes[0]] == [100]
    assert resent_at == [10.0]  # the timer, armed at the first send
    assert network.stats.dropped_loss == 2


def test_forced_arq_without_loss_sends_no_retransmissions():
    """Lossless FIFO links never show a hole, so forced ARQ sends acks and
    no repair: a NACK or a gap resend here would be a false inference."""
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.core.transaction import TransactionSpec

    for protocol in ("abp", "rbp", "cbp", "p2p"):
        cluster = Cluster(ClusterConfig(
            protocol=protocol, num_sites=4, num_objects=8, seed=5, reliable_links=True,
        ))
        statuses = [
            cluster.submit(
                TransactionSpec.make(f"t{n}", n % 4, read_keys=[f"x{n % 8}"],
                                     writes={f"x{(n + 1) % 8}": n}),
                at=0.5 * n,
            )
            for n in range(24)
        ]
        result = cluster.run(max_time=10_000.0)
        assert all(status.final for status in statuses), protocol
        assert cluster.network.stats.by_kind["transport.ack"] > 0, protocol
        assert cluster.network.stats.retransmissions == 0, protocol
        assert result.serialization.ok, protocol


def test_loss_repair_ignores_a_high_water_mark_from_a_previous_incarnation():
    """After site 1 recovers, site 0 relinks it; an ack of the old
    incarnation still in flight names a high-water mark of the dead
    stream, which must not be NACKed against the new one."""
    engine, network, transports, inboxes = build(reliable=True, latency=FixedLatency(1.0))
    for n in range(3):
        transports[1].send(0, Msg(n))
    engine.run(until=10.0)
    transports[1].reset()
    transports[1].send(0, Msg(3))
    engine.run(until=20.0)
    assert [p.n for _, p in inboxes[0]] == [0, 1, 2, 3]
    assert transports[0]._peer_epoch[1] == 1  # relinked
    sent = network.stats.sent
    stale = AckFrame(0, seq=-1, high=3, src_epoch=0, dst_epoch=0)
    transports[0]._on_datagram(1, stale)
    assert network.stats.sent == sent  # no NACK
    assert transports[0]._recv_state[1].heard_to == 1
    # The new incarnation's mark is heard: seq 1 of the new stream is
    # unknown here, so site 0 NACKs it.
    transports[0]._on_datagram(1, AckFrame(0, seq=-1, high=2, src_epoch=1, dst_epoch=0))
    assert network.stats.sent == sent + 1
    assert transports[0]._recv_state[1].heard_to == 2
