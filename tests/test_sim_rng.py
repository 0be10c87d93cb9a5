"""Unit tests for the deterministic RNG registry."""

from repro.sim.rng import RngRegistry, derive_seed


def test_same_name_same_stream_object():
    registry = RngRegistry(1)
    assert registry.stream("net") is registry.stream("net")


def test_streams_reproducible_across_registries():
    a = RngRegistry(42).stream("workload")
    b = RngRegistry(42).stream("workload")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    registry = RngRegistry(42)
    a = [registry.stream("a").random() for _ in range(5)]
    b = [registry.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_master_seeds_differ():
    a = RngRegistry(1).stream("x").random()
    b = RngRegistry(2).stream("x").random()
    assert a != b


def test_consuming_one_stream_does_not_perturb_another():
    registry1 = RngRegistry(7)
    registry1.stream("noise").random()  # consume from an unrelated stream
    value1 = registry1.stream("target").random()

    registry2 = RngRegistry(7)
    value2 = registry2.stream("target").random()
    assert value1 == value2


def test_derive_seed_stable():
    # Regression pin: the derivation must never change, or every recorded
    # experiment's numbers shift.
    assert derive_seed(0, "network") == derive_seed(0, "network")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert 0 <= derive_seed(123, "stream") < 2**64
