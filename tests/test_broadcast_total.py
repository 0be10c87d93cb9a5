"""Unit tests for atomic (total-order) broadcast, both orderers."""

from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.broadcast.causal import CausalEnvelope
from repro.broadcast.message import BroadcastMessage, MessageId
from repro.broadcast.total import OrderAssignment, SequencedEnvelope, TotalOrderBroadcast
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


def test_sequencer_emits_order_assignments(harness_factory):
    h = harness_factory(num_sites=3, stack="total", mode="sequencer")
    h.layers[1].broadcast(Op("x"))
    h.run(until=100.0)
    assert h.network.stats.by_kind["abcast.order"] > 0


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        TotalOrderBroadcast(None, _StubCausal(0, 1), mode="quantum")


# -- the delivery queue against a sorted-list reference -----------------------------

NUM_SITES = 4
#: The site under test: neither the first sequencer nor its successor.
SITE = 2


class _StubCausal:
    """The causal layer's surface the total order uses: deliveries are
    handed in by the test, broadcasts are captured."""

    def __init__(self, site, num_sites):
        self.site = site
        self.num_sites = num_sites
        self.sent = []

    def set_deliver(self, fn):
        pass

    def broadcast(self, payload, kind=None):
        self.sent.append(payload)

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

    def adopt(self, last):
        self.last = last
        self.keys = [key for key in self.keys if key > last]


def _layer():
    layer = TotalOrderBroadcast(SimulationEngine(), _StubCausal(SITE, NUM_SITES))
    delivered = []
    layer.set_deliver(lambda payload, envelope, index: delivered.append((payload.label, index)))
    return layer, delivered


def _deliver_data(layer, msg_id, clock=None):
    vc = VectorClock(clock or [0] * NUM_SITES)
    envelope = CausalEnvelope(vc, SequencedEnvelope(Op(str(msg_id)), True))
    layer._on_causal_deliver(BroadcastMessage(msg_id, envelope), envelope)


@st.composite
def _ordering_histories(draw):
    """Ordered messages numbered by site 0 in its own delivery order, then
    by site 1 under epoch 1 after a takeover, as a non-sequencer receives
    them: each number after its data message, site 1's after the takeover,
    everything else in any order.

    Site 1 saw site 0's first ``assigned`` numbers and numbers the rest,
    in id order, from there.  Site 0 also numbered the next ``late``
    messages, but those frames missed site 1, so each of those messages
    gets two numbers: one from each epoch, reaching this site in either
    order, before or after the message is delivered.  The first wins.
    """
    ids = draw(st.lists(
        st.tuples(st.sampled_from([0, 1, 3]), st.integers(0, 6)),
        min_size=1, max_size=10, unique=True,
    ))
    ids = [MessageId(sender, seq) for sender, seq in ids]
    numbering = draw(st.permutations(ids))
    assigned = draw(st.integers(0, len(ids)))
    late = draw(st.integers(0, len(ids) - assigned))
    old = {msg_id: seq for seq, msg_id in enumerate(numbering[: assigned + late])}
    new = {msg_id: assigned + i for i, msg_id in enumerate(sorted(numbering[assigned:]))}
    pool = [("data", msg_id) for msg_id in ids] + [("takeover",)]
    events, arrived, took_over = [], [], False
    while pool:
        event = pool.pop(draw(st.integers(0, len(pool) - 1)))
        events.append(event)
        if event[0] == "takeover":
            took_over, numbered = True, arrived
        elif event[0] == "data":
            arrived.append(event[1])
            numbered = [event[1]] if took_over else []
            if event[1] in old:
                pool.append(("assign", 0, event[1], old[event[1]]))
        else:
            numbered = []
        pool.extend(("assign", 1, msg_id, new[msg_id]) for msg_id in numbered if msg_id in new)
    return events


# The four duplicate orders, before and after delivery, for a = (0, 0) and
# b = (1, 0): site 0 numbered both, site 1 saw only a's number and numbers b.
_A, _B = MessageId(0, 0), MessageId(1, 0)


@settings(max_examples=150, deadline=None)
@given(_ordering_histories())
@example([  # takeover's number first, old one after b is delivered
    ("data", _A), ("data", _B), ("assign", 0, _A, 0), ("takeover",),
    ("assign", 1, _B, 1), ("assign", 0, _B, 1),
])
@example([  # takeover's number first, old one while b still waits for a
    ("data", _A), ("data", _B), ("takeover",), ("assign", 1, _B, 1),
    ("assign", 0, _B, 1), ("assign", 0, _A, 0),
])
@example([  # old number first, takeover's after b is delivered
    ("data", _A), ("data", _B), ("assign", 0, _A, 0), ("assign", 0, _B, 1),
    ("takeover",), ("assign", 1, _B, 1),
])
@example([  # old number first, takeover's while b still waits for a
    ("data", _A), ("data", _B), ("takeover",), ("assign", 0, _B, 1),
    ("assign", 1, _B, 1), ("assign", 0, _A, 0),
])
def test_heap_queue_delivers_what_a_sorted_list_delivers(events):
    layer, delivered = _layer()
    reference = _SortedListQueue()
    for event in events:
        if event[0] == "data":
            _deliver_data(layer, event[1])
            continue
        if event[0] == "takeover":
            # Site 0 departs: site 1 takes over, not us.
            layer.set_group([1, 2, 3])
            assert not layer.is_sequencer and layer.epoch == 1
            continue
        _, epoch, msg_id, seq = event
        layer._on_order_assignment(OrderAssignment(epoch, [(msg_id, seq)]))
        reference.assign(msg_id, (epoch, seq))
        assert [label for label, _ in delivered] == reference.delivered
        assert [index for _, index in delivered] == list(range(len(delivered)))
        assert layer._next_seq == reference.next_seq
    # Every message got a number, so none waits for one; the numbered ones
    # not delivered wait where the reference's do.
    assert not layer._unordered
    assert sorted(layer._ready) == sorted(layer._delivery_order) == reference.keys


def test_is_sequencer_follows_set_group():
    layer, _ = _layer()
    assert not layer.is_sequencer
    for members, expected in (([1, 2, 3], False), ([3, 2], True), ([0, 2], False), ([2], True)):
        layer.set_group(members)
        assert layer.is_sequencer is expected
        assert layer.group == sorted(members)


def test_takeover_numbers_the_backlog_from_the_counter():
    """A site that becomes sequencer numbers the messages still waiting,
    in id order, continuing the old sequencer's counter under a new epoch;
    later ordered messages it numbers as they arrive."""
    layer, delivered = _layer()
    first, late, early = MessageId(0, 0), MessageId(3, 1), MessageId(1, 4)
    for msg_id in (first, late, early):
        _deliver_data(layer, msg_id)
    layer._on_order_assignment(OrderAssignment(0, [(first, 0)]))
    assert delivered == [(str(first), 0)]
    layer.set_group([2, 3])
    assert layer.is_sequencer
    (takeover,) = layer.causal.sent
    assert (takeover.epoch, takeover.assignments) == (1, [(early, 1), (late, 2)])
    layer._on_order_assignment(takeover)
    fresh = MessageId(3, 2)
    _deliver_data(layer, fresh)
    assert layer.causal.sent[-1].assignments == [(fresh, 3)]
    assert [label for label, _ in delivered] == [str(m) for m in (first, early, late, fresh)]


def test_adopt_state_drops_the_covered_prefix_and_resumes_after_it():
    """Numbered messages at or below the adopted last key are dropped, the
    ones beyond it deliver from the adopted position, and unnumbered ones
    the adopted causal clock covers are dropped with them."""
    layer, delivered = _layer()
    reference = _SortedListQueue()
    ids = [MessageId(0, seq) for seq in range(6)]
    for seq, msg_id in enumerate(ids):
        _deliver_data(layer, msg_id, [seq + 1, 0, 0, 0])
        if seq not in (1, 5):  # number 1 is lost; message 5 is never numbered
            layer._on_order_assignment(OrderAssignment(0, [(msg_id, seq)]))
            reference.record((0, seq), str(msg_id))
    assert [label for label, _ in delivered] == reference.delivered == [str(ids[0])]
    covered = SimpleNamespace(
        causal_clock=[6, 0, 0, 0],
        total_order_state={
            "next_delivery_index": 3, "last_delivered_key": (0, 2), "next_seq": 6, "epoch": 0,
        },
    )
    layer.adopt_state(covered)
    reference.adopt((0, 2))
    assert sorted(layer._ready) == sorted(layer._delivery_order) == reference.keys
    assert not layer._unordered  # message 5: covered, its number never coming
    layer._on_order_assignment(OrderAssignment(0, []))  # any delivery drains
    reference.drain()
    assert [label for label, _ in delivered] == reference.delivered
    assert [index for _, index in delivered] == [0, 3, 4]


def test_recovered_abp_site_keeps_no_covered_unnumbered_message():
    """ABP, 4 sites, site 3 down from 50 to 300 under a closed loop: the
    rejoiner keeps no pre-crash commit request the snapshot covered in its
    unnumbered queue (its number is covered too, so it would wait for good)."""
    cluster = Cluster(ClusterConfig(protocol="abp", num_sites=4, num_objects=32, seed=12))
    cluster.crash_site(3, at=50)
    cluster.recover_site(3, at=300)
    ClosedLoopRunner(
        cluster, WorkloadConfig(num_objects=32, num_sites=4), mpl=4, transactions=400
    ).start()
    result = cluster.run(max_time=100_000)
    assert result.ok, result.serialization.explain()
    assert cluster.recovery_agents[3].transfers_completed == 1
    assert [len(total._unordered) for total in cluster.totals] == [0, 0, 0, 0]
