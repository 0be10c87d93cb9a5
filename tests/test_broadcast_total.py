"""Unit tests for atomic (total-order) broadcast, both orderers."""

from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.broadcast.causal import CausalEnvelope
from repro.broadcast.message import BroadcastMessage, MessageId
from repro.broadcast.total import OrderForward, SequencedEnvelope, TotalOrderBroadcast
from repro.broadcast.vector_clock import VectorClock
from repro.core.cluster import Cluster, ClusterConfig
from repro.sim.engine import SimulationEngine
from repro.workload.generator import WorkloadConfig
from repro.workload.runner import ClosedLoopRunner


@dataclass
class Op:
    label: str
    kind: str = "op"


@pytest.mark.parametrize("mode", ["sequencer", "token"])
def test_all_sites_deliver_same_total_order(harness_factory, mode):
    h = harness_factory(num_sites=4, stack="total", mode=mode)
    for n in range(5):
        for site in range(4):
            h.layers[site].broadcast(Op(f"s{site}n{n}"))
    h.run(until=5000.0)
    orders = [[p.label for p, idx in h.delivered[site] if idx is not None] for site in range(4)]
    assert len(orders[0]) == 20
    assert all(order == orders[0] for order in orders)


@pytest.mark.parametrize("mode", ["sequencer", "token"])
def test_order_indexes_are_contiguous(harness_factory, mode):
    h = harness_factory(num_sites=3, stack="total", mode=mode)
    for n in range(7):
        h.layers[n % 3].broadcast(Op(f"m{n}"))
    h.run(until=5000.0)
    for site in range(3):
        indexes = [idx for _, idx in h.delivered[site] if idx is not None]
        assert indexes == list(range(7))


def test_total_order_respects_causality(harness_factory):
    """If m1 causally precedes m2 the total order must place m1 first."""
    h = harness_factory(num_sites=3, stack="total")
    sink = h.delivered[1]

    def reply(payload, envelope, idx):
        sink.append((payload, idx))
        if payload.label == "first":
            h.layers[1].broadcast(Op("second"))

    h.layers[1].set_deliver(reply)
    h.layers[0].broadcast(Op("first"))
    h.run(until=5000.0)
    for site in (0, 2):
        labels = [p.label for p, idx in h.delivered[site] if idx is not None]
        assert labels.index("first") < labels.index("second")


def test_causal_only_messages_bypass_ordering(harness_factory):
    h = harness_factory(num_sites=3, stack="total")
    h.layers[0].broadcast_causal(Op("causal"))
    h.layers[0].broadcast(Op("ordered"))
    h.run(until=5000.0)
    for site in range(3):
        by_label = {p.label: idx for p, idx in h.delivered[site]}
        assert by_label["causal"] is None
        assert by_label["ordered"] == 0


def test_causal_writes_precede_their_ordered_commit(harness_factory):
    """The ABP-B requirement: a site always has a transaction's causally
    broadcast writes before its atomically broadcast commit request."""
    h = harness_factory(num_sites=4, stack="total")
    for t in range(5):
        h.layers[t % 4].broadcast_causal(Op(f"w{t}"))
        h.layers[t % 4].broadcast(Op(f"c{t}"))
    h.run(until=5000.0)
    for site in range(4):
        labels = [p.label for p, _ in h.delivered[site]]
        for t in range(5):
            assert labels.index(f"w{t}") < labels.index(f"c{t}")


def test_sequencer_is_lowest_site(harness_factory):
    h = harness_factory(num_sites=3, stack="total")
    assert h.layers[0].is_sequencer
    assert not h.layers[1].is_sequencer


def test_sequencer_reelection_on_group_change(harness_factory):
    h = harness_factory(num_sites=3, stack="total")
    h.layers[1].set_group([1, 2])
    assert h.layers[1].is_sequencer


def test_token_mode_uses_token_messages(harness_factory):
    h = harness_factory(num_sites=3, stack="total", mode="token")
    h.layers[1].broadcast(Op("x"))
    h.run(until=100.0)
    assert h.network.stats.by_kind["abcast.token"] > 0


def test_sequencer_relays_what_it_is_forwarded(harness_factory):
    """A non-sequencer forwards its ordered payload to the sequencer, which
    broadcasts it once, numbered: one forward and n-1 relays, no separate
    ordering message."""
    h = harness_factory(num_sites=3, stack="total", mode="sequencer")
    h.layers[1].broadcast(Op("x"))
    h.run(until=100.0)
    assert h.network.stats.by_kind == {"abcast.forward": 1, "op": 2}
    assert all(h.delivered[site] == [(Op("x"), 0)] for site in range(3))


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        TotalOrderBroadcast(None, _StubCausal(0, 1), mode="quantum")


def test_takeover_relays_what_the_crashed_sequencer_left_unrelayed_once_each(harness_factory):
    """The sequencer crashes with forwards unrelayed: site 2's second and
    site 3's first reach it only after the crash.  Site 2 installs the new
    view before the old sequencer's relay of its first forward reaches it,
    so it re-forwards that one too; the new sequencer has delivered the
    relay and drops the re-forward.  Every survivor delivers each payload
    once, in one order."""
    h = harness_factory(num_sites=4, stack="total", mode="sequencer")
    h.layers[2].broadcast(Op("a"))
    h.engine.run(until=50.0, stop_when=lambda: h.layers[0]._relayed[2] == 1)
    h.network.set_site_up(0, False)
    h.layers[0].crash()
    h.layers[2].broadcast(Op("b"))
    h.layers[3].broadcast(Op("c"))
    survivors = [1, 2, 3]
    h.layers[2].set_group(survivors)
    assert not h.delivered[2]  # the old relay of "a" is still in flight
    h.run(until=h.engine.now + 10.0)
    for site in (1, 3):
        h.layers[site].set_group(survivors)
    h.run(until=h.engine.now + 100.0)
    orders = [[(p.label, idx) for p, idx in h.delivered[site]] for site in survivors]
    assert orders[0] == [("a", 0), ("b", 1), ("c", 2)] or orders[0] == [("a", 0), ("c", 1), ("b", 2)]
    assert all(order == orders[0] for order in orders)
    assert all(not h.layers[site]._forwarded and not h.layers[site]._parked for site in survivors)


# -- the delivery queue against a sorted-list reference -----------------------------

NUM_SITES = 4
#: The site under test: neither the first sequencer nor its successor.
SITE = 2


class _StubRouter:
    def __init__(self):
        self.sent = []

    def register(self, channel, handler, during_transfer=False):
        pass

    def send(self, dst, channel, payload, kind=None):
        self.sent.append((dst, payload))


class _StubCausal:
    """The causal layer's surface the total order uses: deliveries are
    handed in by the test, broadcasts and forwards are captured, and the
    frontier is the test's ``clock``."""

    def __init__(self, site, num_sites):
        self.site = site
        self.num_sites = num_sites
        self.sent = []
        self.clock = [0] * num_sites
        self.reliable = SimpleNamespace(router=_StubRouter())

    def set_deliver(self, fn):
        pass

    def broadcast(self, payload, kind=None):
        self.sent.append(payload)

    def frontier(self):
        return VectorClock(list(self.clock))

    def set_group(self, members):
        pass

    def adopt_state(self, state):
        pass


class _SortedListQueue:
    """The reference: every numbered message in a list re-sorted on each
    insert, delivered from its front while the front key is the next; the
    first number a message gets wins, and the counter a takeover would
    continue from is one past the highest winning number."""

    def __init__(self):
        self.keys = []
        self.labels = {}
        self.order_of = {}
        self.next_seq = 0
        self.last = None
        self.delivered = []

    def assign(self, msg_id, key):
        if msg_id not in self.order_of:
            self.order_of[msg_id] = key
            self.next_seq = max(self.next_seq, key[1] + 1)
            self.record(key, str(msg_id))

    def record(self, key, label):
        self.labels[key] = label
        self.keys.append(key)
        self.keys.sort()
        self.drain()

    def drain(self):
        while self.keys and self._is_next(self.keys[0]):
            key = self.keys.pop(0)
            self.last = key
            self.delivered.append(self.labels.pop(key))

    def _is_next(self, key):
        if self.last is None:
            return key[1] == 0
        return key[0] >= self.last[0] and key[1] == self.last[1] + 1


def _layer():
    layer = TotalOrderBroadcast(SimulationEngine(), _StubCausal(SITE, NUM_SITES))
    delivered = []
    layer.set_deliver(lambda payload, envelope, index: delivered.append((payload.label, index)))
    return layer, delivered


def _relay(layer, key, forward, payload=None, sender=None):
    """Hand ``layer`` the relay of ``forward`` (``(origin, n)``) numbered
    ``key``, broadcast by ``sender`` (the epoch's sequencer: site 0 for
    epoch 0, site 1 for epoch 1)."""
    inner = SequencedEnvelope(payload or Op(str(forward)), True, preassigned=key, forward=forward)
    envelope = CausalEnvelope(VectorClock.zero(NUM_SITES), inner)
    sender = key[0] if sender is None else sender
    layer._on_causal_deliver(BroadcastMessage(MessageId(sender, key[1]), envelope), envelope)


def _fifo_interleaving(draw, forwards):
    """``forwards`` in a drawn order that keeps each origin's in order."""
    queues = {}
    for forward in forwards:
        queues.setdefault(forward[0], []).append(forward)
    origins = draw(st.permutations([origin for origin, _ in forwards]))
    return [queues[origin].pop(0) for origin in origins]


@st.composite
def _relay_histories(draw):
    """Forwards relayed by site 0 under epoch 0, then by site 1 under epoch
    1 after a takeover, as a non-sequencer delivers them: each sequencer's
    relays in its own order, site 1's after those of site 0's it had
    delivered, the two streams interleaved, and this site's view change
    anywhere.

    Site 0 relayed the first ``assigned + late`` forwards, each origin's in
    order.  Site 1 delivered only the first ``assigned`` of those relays;
    the rest are re-forwarded to it, and it relays them from the counter it
    saw.  Each of the ``late`` forwards is therefore relayed twice, once
    per epoch; the first relay to arrive wins.
    """
    counts = draw(st.lists(st.integers(0, 4), min_size=3, max_size=3))
    forwards = [(origin, n) for origin, count in zip((0, 1, 3), counts) for n in range(count)]
    numbering = _fifo_interleaving(draw, forwards)
    assigned = draw(st.integers(0, len(numbering)))
    late = draw(st.integers(0, len(numbering) - assigned))
    old = [(0, seq) for seq in range(assigned + late)]
    new = [(1, assigned + i) for i in range(len(numbering) - assigned)]
    renumbered = _fifo_interleaving(draw, numbering[assigned:])
    events, took_over = [], False
    while old or new or not took_over:
        heads = ["old"] if old else []
        if new and (not old or old[0][1] >= assigned):
            heads.append("new")
        if not took_over:
            heads.append("takeover")
        head = draw(st.sampled_from(heads))
        if head == "takeover":
            took_over = True
            events.append(("takeover",))
        elif head == "old":
            key = old.pop(0)
            events.append(("relay", key, numbering[key[1]]))
        else:
            key = new.pop(0)
            events.append(("relay", key, renumbered[key[1] - assigned]))
    return events


# Site 0 relayed a = (0, 0) and b = (1, 0); site 1 saw only a's relay and
# relays b again: its relay arrives after the old one, or before.
_A, _B = (0, 0), (1, 0)


@settings(max_examples=150, deadline=None)
@given(_relay_histories())
@example([
    ("relay", (0, 0), _A), ("relay", (0, 1), _B), ("takeover",), ("relay", (1, 1), _B),
])
@example([
    ("relay", (0, 0), _A), ("takeover",), ("relay", (1, 1), _B), ("relay", (0, 1), _B),
])
def test_heap_queue_delivers_what_a_sorted_list_delivers(events):
    layer, delivered = _layer()
    reference = _SortedListQueue()
    for event in events:
        if event[0] == "takeover":
            # Site 0 departs: site 1 takes over, not us.
            layer.set_group([1, 2, 3])
            assert not layer.is_sequencer and layer.epoch == 1
            continue
        _, key, forward = event
        _relay(layer, key, forward)
        reference.assign(forward, key)
        assert [label for label, _ in delivered] == reference.delivered
        assert [index for _, index in delivered] == list(range(len(delivered)))
        assert layer._next_seq == reference.next_seq
    # The numbered ones not delivered wait where the reference's do.
    assert sorted(layer._ready) == sorted(layer._delivery_order) == reference.keys


def test_is_sequencer_follows_set_group():
    layer, _ = _layer()
    assert not layer.is_sequencer
    for members, expected in (([1, 2, 3], False), ([3, 2], True), ([0, 2], False), ([2], True)):
        layer.set_group(members)
        assert layer.is_sequencer is expected
        assert layer.group == sorted(members)


def _sent_relays(layer):
    return [(relay.preassigned, relay.forward, relay.payload.label) for relay in layer.causal.sent]


def test_takeover_numbers_the_backlog_from_the_counter():
    """A site that becomes sequencer relays the forwards still waiting —
    those parked here and its own not yet delivered back — continuing the
    old sequencer's counter under a new epoch, and drops a forward whose
    relay it has delivered; later forwards it relays as they arrive."""
    layer, delivered = _layer()
    for label in ("own0", "own1", "own2"):
        layer.broadcast(Op(label))
    router = layer.causal.reliable.router
    assert [(dst, forward.n) for dst, forward in router.sent] == [(0, 0), (0, 1), (0, 2)]
    _relay(layer, (0, 0), (SITE, 0), router.sent[0][1].payload)
    _relay(layer, (0, 1), (3, 0))
    assert delivered == [("own0", 0), ("(3, 0)", 1)]
    # Site 3 installed the view first: its re-forward of (3, 0), relayed
    # already, and its next forward arrive before this site orders.
    zero = VectorClock.zero(NUM_SITES)
    layer._on_forward(3, OrderForward(0, zero, Op("(3, 0)")))
    layer._on_forward(3, OrderForward(1, zero, Op("three1")))
    assert not layer.causal.sent
    layer.set_group([2, 3])
    assert layer.is_sequencer
    assert _sent_relays(layer) == [
        ((1, 2), (3, 1), "three1"), ((1, 3), (SITE, 1), "own1"), ((1, 4), (SITE, 2), "own2"),
    ]
    for relay in list(layer.causal.sent):  # their local delivery
        envelope = CausalEnvelope(zero, relay)
        message = BroadcastMessage(MessageId(SITE, relay.preassigned[1]), envelope)
        layer._on_causal_deliver(message, envelope)
    assert not layer._forwarded and not layer._parked
    layer._on_forward(3, OrderForward(2, zero, Op("three2")))
    assert _sent_relays(layer)[-1] == ((1, 5), (3, 2), "three2")
    assert [label for label, _ in delivered] == ["own0", "(3, 0)", "three1", "own1", "own2"]


def test_sequencer_relays_a_forward_once_its_frontier_covers_the_forwards():
    """A forward whose origin had delivered what the sequencer has not
    waits, and so does that origin's next one; another origin's passes;
    the delivery that covers it releases both, in order."""
    layer, _ = _layer()
    layer.set_group([2, 3])
    ahead = VectorClock([0, 0, 0, 1])
    layer._on_forward(3, OrderForward(0, ahead, Op("w")))
    layer._on_forward(3, OrderForward(1, ahead, Op("w2")))
    layer._on_forward(1, OrderForward(0, VectorClock.zero(NUM_SITES), Op("x")))
    assert [label for _, _, label in _sent_relays(layer)] == ["x"]
    layer.causal.clock[3] = 1
    envelope = CausalEnvelope(ahead, SequencedEnvelope(Op("write set"), False))
    layer.set_deliver(lambda payload, envelope, index: None)
    layer._on_causal_deliver(BroadcastMessage(MessageId(3, 0), envelope), envelope)
    assert [label for _, _, label in _sent_relays(layer)] == ["x", "w", "w2"]
    assert not layer._parked


def test_adopt_state_drops_the_covered_prefix_and_resumes_after_it():
    """Numbered messages at or below the adopted last key are dropped, the
    ones beyond it deliver from the adopted position, and this site's own
    forwards the donor had delivered back are dropped with them; a relay
    the adopted counters cover is a duplicate."""
    layer, delivered = _layer()
    for label in ("own0", "own1", "own2"):
        layer.broadcast(Op(label))
    _relay(layer, (0, 0), (0, 0))
    _relay(layer, (0, 2), (1, 0))  # the relay numbered 1 never reaches this site
    assert delivered == [("(0, 0)", 0)]
    covered = SimpleNamespace(
        total_order_state={
            "next_delivery_index": 4,
            "last_delivered_key": (0, 3),
            "next_seq": 4,
            "relayed": [1, 1, 2, 0],
            "epoch": 0,
        },
    )
    layer.adopt_state(covered)
    assert not layer._ready and not layer._delivery_order
    assert [forward.n for forward in layer._forwarded] == [2]
    _relay(layer, (0, 4), (3, 0))
    _relay(layer, (0, 4), (SITE, 1), sender=1)  # covered: a second relay of own1
    _relay(layer, (0, 5), (SITE, 2))
    assert delivered == [("(0, 0)", 0), ("(3, 0)", 4), ("(2, 2)", 5)]
    assert not layer._forwarded


def test_recovered_abp_site_keeps_no_covered_unnumbered_message():
    """ABP, 4 sites, site 3 down from 50 to 300 under a closed loop: no site
    keeps a forward waiting for its relay at the end (the rejoiner's covered
    ones included: their relay is covered too, so it never comes)."""
    cluster = Cluster(ClusterConfig(protocol="abp", num_sites=4, num_objects=32, seed=12))
    cluster.crash_site(3, at=50)
    cluster.recover_site(3, at=300)
    ClosedLoopRunner(
        cluster, WorkloadConfig(num_objects=32, num_sites=4), mpl=4, transactions=400
    ).start()
    result = cluster.run(max_time=100_000)
    assert result.ok, result.serialization.explain()
    assert cluster.recovery_agents[3].transfers_completed == 1
    assert [len(total._forwarded) + len(total._parked) for total in cluster.totals] == [0] * 4
