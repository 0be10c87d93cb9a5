"""Unit tests for causal broadcast: causal delivery order and exposed clocks."""

from dataclasses import dataclass

from hypothesis import given
from hypothesis import strategies as st

from repro.broadcast.causal import CausalEnvelope, DeltaCausalEnvelope
from repro.broadcast.vector_clock import VectorClock
from repro.net.sizes import estimate_size
from tests.conftest import BroadcastHarness


@dataclass
class Event:
    label: str
    kind: str = "event"


def causal_positions(harness, site):
    return {p.label: i for i, (p, _) in enumerate(harness.delivered[site])}


def test_single_sender_fifo_is_causal(harness_factory):
    h = harness_factory(num_sites=3, stack="causal")
    for n in range(10):
        h.layers[0].broadcast(Event(f"m{n}"))
    h.run()
    for site in range(3):
        assert [p.label for p in h.payloads(site)] == [f"m{n}" for n in range(10)]


def test_reply_delivered_after_original_everywhere(harness_factory):
    """The classic causality test: a reply triggered by delivery of the
    original must never be delivered before the original at any site."""
    h = harness_factory(num_sites=4, stack="causal")

    # Site 1 replies as soon as it delivers site 0's question.
    original_sink = h.delivered[1]

    def reply_when_question(message, envelope):
        original_sink.append((envelope.payload, envelope.vc))
        if envelope.payload.label == "question":
            h.layers[1].broadcast(Event("answer"))

    h.layers[1].set_deliver(reply_when_question)
    h.layers[0].broadcast(Event("question"))
    h.run()
    for site in (0, 2, 3):
        positions = causal_positions(h, site)
        assert positions["question"] < positions["answer"]


def test_transitive_causality_chain(harness_factory):
    h = harness_factory(num_sites=3, stack="causal")

    def chain(site, trigger, response):
        inner_sink = h.delivered[site]

        def handler(message, envelope):
            inner_sink.append((envelope.payload, envelope.vc))
            if envelope.payload.label == trigger:
                h.layers[site].broadcast(Event(response))

        h.layers[site].set_deliver(handler)

    chain(1, "a", "b")
    chain(2, "b", "c")
    h.layers[0].broadcast(Event("a"))
    h.run()
    positions = causal_positions(h, 0)
    assert positions["a"] < positions["b"] < positions["c"]


def test_clocks_identify_concurrency(harness_factory):
    h = harness_factory(num_sites=3, stack="causal")
    h.layers[0].broadcast(Event("left"))
    h.layers[1].broadcast(Event("right"))
    h.run()
    clocks = {p.label: vc for p, vc in h.delivered[2]}
    assert clocks["left"].concurrent_with(clocks["right"])


def test_clocks_reflect_causal_order(harness_factory):
    h = harness_factory(num_sites=3, stack="causal")
    sink = h.delivered[1]

    def reply(message, envelope):
        sink.append((envelope.payload, envelope.vc))
        if envelope.payload.label == "cause":
            h.layers[1].broadcast(Event("effect"))

    h.layers[1].set_deliver(reply)
    h.layers[0].broadcast(Event("cause"))
    h.run()
    clocks = {p.label: vc for p, vc in h.delivered[2]}
    assert clocks["cause"] < clocks["effect"]


def test_back_to_back_broadcasts_have_distinct_increasing_stamps(harness_factory):
    h = harness_factory(num_sites=2, stack="causal")
    env1 = h.layers[0].broadcast(Event("one"))
    env2 = h.layers[0].broadcast(Event("two"))
    assert env1.vc[0] == 1 and env2.vc[0] == 2
    h.run()
    assert [p.label for p in h.payloads(1)] == ["one", "two"]


def test_local_clock_advances_on_delivery(harness_factory):
    h = harness_factory(num_sites=2, stack="causal")
    h.layers[0].broadcast(Event("x"))
    h.run()
    assert h.layers[1].clock[0] == 1
    assert h.layers[0].clock[0] == 1


def test_pending_holdback_counts(harness_factory):
    h = harness_factory(num_sites=3, stack="causal")
    assert h.layers[0].pending_count() == 0


def _enable_deltas(h):
    for layer in h.layers:
        layer.enable_delta_clocks()


def test_delta_clocks_deliver_identically(harness_factory):
    """Delta-encoded stamps must reconstruct to the exact clocks the full
    encoding ships: same delivery order, same exposed vector clocks — even
    over a lossy network where retransmission reorders arrivals."""
    plain = harness_factory(num_sites=4, stack="causal", loss_rate=0.15, seed=23)
    delta = harness_factory(num_sites=4, stack="causal", loss_rate=0.15, seed=23)
    _enable_deltas(delta)
    for h in (plain, delta):
        sink = h.delivered[1]

        def reply(message, envelope, h=h, sink=sink):
            sink.append((envelope.payload, envelope.vc))
            if envelope.payload.label == "m0":
                h.layers[1].broadcast(Event("reply"))

        h.layers[1].set_deliver(reply)
        for n in range(8):
            h.layers[0].broadcast(Event(f"m{n}"))
        h.run(until=100000.0)
    for site in range(4):
        assert [
            (p.label, tuple(vc)) for p, vc in delta.delivered[site]
        ] == [(p.label, tuple(vc)) for p, vc in plain.delivered[site]]
    # The cheap encoding was actually used (back-to-back sends from one
    # sender change a single entry).
    assert sum(layer.deltas_sent for layer in delta.layers) > 0


def test_first_broadcast_is_full_then_deltas(harness_factory):
    h = harness_factory(num_sites=6, stack="causal")
    _enable_deltas(h)
    layer = h.layers[0]
    layer.broadcast(Event("a"))
    layer.broadcast(Event("b"))  # one changed entry: delta wins at n=6
    h.run()
    assert layer.fulls_sent == 1
    assert layer.deltas_sent == 1
    for site in range(6):
        assert [p.label for p in h.payloads(site)] == ["a", "b"]


def test_disruption_forces_full_stamp(harness_factory):
    """After a view change the next stamp goes out full,
    resynchronizing every receiver's reconstruction state."""
    h = harness_factory(num_sites=6, stack="causal")
    _enable_deltas(h)
    layer = h.layers[0]
    layer.broadcast(Event("a"))
    layer.set_group(list(range(6)))
    layer.broadcast(Event("b"))
    h.run()
    assert layer.fulls_sent == 2
    assert layer.deltas_sent == 0
    for site in range(6):
        assert [p.label for p in h.payloads(site)] == ["a", "b"]


def test_delta_only_sent_when_smaller(harness_factory):
    """At 2 sites a full clock (2 ints) is cheaper than any delta pair, so
    the encoder must keep shipping full stamps."""
    h = harness_factory(num_sites=2, stack="causal")
    _enable_deltas(h)
    for n in range(4):
        h.layers[0].broadcast(Event(f"m{n}"))
    h.run()
    assert h.layers[0].deltas_sent == 0
    assert h.layers[0].fulls_sent == 4
    assert [p.label for p in h.payloads(1)] == [f"m{n}" for n in range(4)]


@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 50), min_size=n, max_size=n),
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
        )
    ),
    st.one_of(st.none(), st.text(max_size=20), st.tuples(st.integers(), st.text(max_size=5))),
)
def test_encoder_picks_the_smaller_whole_envelope(clocks, payload):
    """``_encode`` compares the two clock encodings only (payload and kind
    are common to both wire forms); that must choose what sizing the two
    whole envelopes chooses."""
    previous, bumps = clocks
    stamp = VectorClock([a + b for a, b in zip(previous, bumps)])
    layer = BroadcastHarness(num_sites=len(previous), stack="causal").layers[0]
    layer._full_due = False
    layer._last_stamp = VectorClock(previous)
    full = CausalEnvelope(stamp, payload, "")
    delta = DeltaCausalEnvelope(stamp.delta_since(layer._last_stamp), payload, "")
    smaller = delta if estimate_size(delta) < estimate_size(full) else full
    assert type(layer._encode(full)) is type(smaller)


def test_causal_order_over_lossy_network(harness_factory):
    h = harness_factory(num_sites=3, stack="causal", loss_rate=0.2, seed=17)
    sink = h.delivered[1]

    def reply(message, envelope):
        sink.append((envelope.payload, envelope.vc))
        if envelope.payload.label == "q0":
            h.layers[1].broadcast(Event("a0"))

    h.layers[1].set_deliver(reply)
    for n in range(5):
        h.layers[0].broadcast(Event(f"q{n}"))
    h.run(until=100000.0)
    positions = causal_positions(h, 2)
    assert len(positions) == 6
    assert positions["q0"] < positions["a0"]
