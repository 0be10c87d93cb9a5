"""Tests for wire-size estimation and byte accounting."""

import pytest

from repro.net.sizes import HEADER_BYTES, estimate_size, wire_size


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
    deep: list = []
    cursor = deep
    for _ in range(50):
        inner: list = []
        cursor.append(inner)
        cursor = inner
    assert estimate_size(deep) > 0  # no recursion blowup


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
