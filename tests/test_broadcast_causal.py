"""Unit tests for causal broadcast: causal delivery order and exposed clocks."""

from dataclasses import dataclass


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
