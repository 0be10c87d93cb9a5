"""Tests for wire-size estimation and byte accounting."""

import pytest

from repro.net.sizes import (
    HEADER_BYTES,
    OBJECT_OVERHEAD,
    estimate_size,
    registered_payloads,
    wire_size,
)


def naive_size(payload, seen, depth=0):
    """The reference: the plain recursive traversal, knowing nothing of the
    dispatch table, ``__wire_size__`` shortcuts or ``_size`` memos.  Notes
    every class it meets in ``seen``."""
    if depth > 12:
        return OBJECT_OVERHEAD
    cls = type(payload)
    seen.add(cls)
    if payload is None:
        return 0
    if cls is bool:
        return 1
    if cls in (int, float):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8", errors="replace"))
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        children = [part for item in payload.items() for part in item]
    elif isinstance(payload, (list, tuple, set, frozenset)):
        children = list(payload)
    elif hasattr(payload, "__dict__"):
        children = list(vars(payload).values())
    else:
        children = [
            getattr(payload, name, None)
            for name in getattr(cls, "__slots__", ())
            if name != "_size"
        ]
    return OBJECT_OVERHEAD + sum(naive_size(child, seen, depth + 1) for child in children)


def test_primitive_sizes():
    assert estimate_size(True) == 1
    assert estimate_size(42) == 8
    assert estimate_size(3.14) == 8
    assert estimate_size(None) == 0


def test_string_and_bytes_by_length():
    assert estimate_size("abcd") == 4
    assert estimate_size(b"abcd") == 4
    assert estimate_size("") == 0


def test_containers_sum_recursively():
    flat = estimate_size((1, 2, 3))
    assert flat == 8 + 3 * 8  # overhead + three ints
    nested = estimate_size(((1,), (2,)))
    assert nested > flat - 8


def test_a_registered_named_tuple_is_sized_as_its_tuple():
    """A NamedTuple's ``__slots__`` is empty: a sizer derived from it would
    charge a ``MessageId`` 8 bytes, not the 24 its two ints cost."""
    from repro.broadcast.message import MessageId

    assert estimate_size(MessageId(1, 2)) == estimate_size((1, 2)) == 24


def test_dict_counts_keys_and_values():
    assert estimate_size({"k": 1}) == 8 + 1 + 8


def test_dataclass_payloads():
    from repro.core.events import CbpWriteSet, RbpVote

    vote = RbpVote("T1#1", 2, True)
    write = CbpWriteSet("T1#1", 0, (("x0", "v" * 100),), (1.0, 0, "T1"), True)
    assert estimate_size(write) > estimate_size(vote) + 90


def test_wire_size_adds_header():
    assert wire_size(1) == HEADER_BYTES + 8


def test_deterministic():
    payload = {"a": (1, "two", [3.0]), "b": None}
    assert estimate_size(payload) == estimate_size(payload)


def test_depth_bound_terminates():
    """Cyclic payloads stop at the depth guard: 13 nested frames of
    OBJECT_OVERHEAD, then the guard's own 8."""
    from repro.broadcast.message import BroadcastMessage, MessageId

    loop: list = []
    loop.append(loop)
    assert estimate_size(loop) == 112

    class Node:
        __slots__ = ("next",)

    node = Node()
    node.next = node
    assert estimate_size(node) == 112

    message = BroadcastMessage(MessageId(0, 0), None, "k")  # a derived sizer
    message.payload = message
    assert estimate_size(message) == naive_size(message, set())


#: One short run per way a datagram can be wrapped: config overrides.
HARVEST_SHAPES = {
    "rbp": dict(protocol="rbp"),
    "cbp": dict(protocol="cbp"),
    "abp": dict(protocol="abp"),
    "p2p": dict(protocol="p2p"),
    "abp over ARQ": dict(protocol="abp", loss_rate=0.05),
    "abp batched": dict(protocol="abp", batching=1.0),
    "cbp batched": dict(protocol="cbp", batching=1.0),
    "rbp relay": dict(protocol="rbp", relay=True),
    "abp token+uniform": dict(protocol="abp", abp_order_mode="token", abp_uniform=True),
    "rbp crash/recover": dict(
        protocol="rbp", relay=True, enable_failure_detector=True, fd_interval=20.0, fd_timeout=80.0
    ),
}


def test_every_datagram_is_sized_as_the_plain_traversal_sizes_it(monkeypatch):
    """The derived sizers, the memos and VectorClock's shortcut change how a
    size is computed, never the size: every datagram of every transport /
    batching / relay mode equals the reference, and so does every
    registered wire class the runs did not happen to send."""
    import repro.net.network as network_module
    from repro import Cluster, ClusterConfig, TransactionSpec
    from repro.core import events

    seen: set[type] = set()
    shape = ""

    def checked_wire_size(payload):
        size = wire_size(payload)
        assert size == HEADER_BYTES + naive_size(payload, seen), (shape, payload)
        return size

    monkeypatch.setattr(network_module, "wire_size", checked_wire_size)
    for shape, overrides in HARVEST_SHAPES.items():
        cluster = Cluster(ClusterConfig(num_sites=4, num_objects=8, seed=5, **overrides))
        for n in range(6):
            keys = [f"x{n % 3}", f"x{(n + 1) % 3}"]
            cluster.submit(
                TransactionSpec.make(f"t{n}", n % 4, read_keys=keys[:1], writes={k: n for k in keys}),
                at=5.0 * n,
            )
        if "crash" in shape:
            cluster.crash_site(3, at=12.0)
            cluster.run(max_time=3000)
            cluster.recover_site(3)
        assert cluster.run(max_time=60000).ok, shape
        assert cluster.network.stats.sent > 0

    by_hand = [
        events.RbpVoteBatch((events.RbpVote("t", 1, True),)),
        events.RbpWriteAckBatch((events.RbpWriteAck("t", "x0", 1, False),)),
        events.RbpDecisionQuery("t", 1, 2),
        events.RbpDecisionAnswer("t", 1, "presumed", True),
        events.AbpWriteSet("t", 0, (("x0", "v"),)),
    ]
    shape = "by hand"
    for payload in by_hand:
        checked_wire_size(payload)
    wire_classes = {cls for cls in registered_payloads() if cls.__module__.startswith("repro.")}
    assert not wire_classes - seen, sorted(cls.__name__ for cls in wire_classes - seen)


def test_network_byte_accounting():
    from repro import Cluster, ClusterConfig, TransactionSpec

    cluster = Cluster(ClusterConfig(protocol="rbp", num_sites=3, seed=1))
    cluster.submit(TransactionSpec.make("t", 0, writes={"x0": "payload-value"}))
    result = cluster.run()
    assert result.ok
    stats = cluster.network.stats
    assert stats.bytes_sent > 0
    # Per message, a value-carrying write is bigger than a boolean vote.
    write_avg = stats.bytes_by_kind["rbp.write"] / stats.by_kind["rbp.write"]
    vote_avg = stats.bytes_by_kind["rbp.vote"] / stats.by_kind["rbp.vote"]
    assert write_avg > vote_avg
    assert sum(stats.bytes_by_kind.values()) == stats.bytes_sent


def test_bandwidth_adds_transmission_delay():
    from repro import Cluster, ClusterConfig, TransactionSpec

    fast = Cluster(ClusterConfig(protocol="rbp", num_sites=3, seed=1))
    slow = Cluster(
        ClusterConfig(protocol="rbp", num_sites=3, seed=1, bandwidth=50.0)
    )
    for cluster in (fast, slow):
        cluster.submit(
            TransactionSpec.make("t", 0, writes={"x0": "v" * 400})
        )
    fast_latency = fast.run().metrics.commit_latency().mean
    slow_latency = slow.run().metrics.commit_latency().mean
    assert slow_latency > fast_latency + 5.0  # ~500B / 50B-per-ms ~ 10ms/hop


def test_bandwidth_validation():
    from repro.net.network import Network
    from repro.sim.engine import SimulationEngine

    with pytest.raises(ValueError):
        Network(SimulationEngine(), 2, bandwidth=0.0)


def test_kind_of_is_the_string_kind_else_the_type_name():
    from repro.net.sizes import kind_of

    class Labelled:
        kind = "x.label"

    class Numbered:
        kind = 7

    assert kind_of(Labelled()) == "x.label"
    assert kind_of(Numbered()) == "Numbered"
    assert kind_of({"raw": True}) == "dict"
