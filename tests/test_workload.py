"""Tests for workload generation and the load drivers."""

import random

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.runner import ClosedLoopRunner, OpenLoopRunner


def make_generator(**overrides):
    config = WorkloadConfig(
        **{**dict(num_objects=32, num_sites=4, read_ops=2, write_ops=2), **overrides}
    )
    return WorkloadGenerator(config, random.Random(5))


def test_specs_have_unique_names():
    gen = make_generator()
    names = [spec.name for spec in gen.stream(50)]
    assert len(set(names)) == 50


def test_reads_before_writes_model():
    """Update transactions read their write set (rmw) and possibly more."""
    gen = make_generator(rmw=True, read_ops=3, write_ops=2)
    for spec in gen.stream(30):
        if not spec.read_only:
            assert set(spec.write_keys) <= set(spec.read_keys)


def test_non_rmw_disjoint_footprints():
    gen = make_generator(rmw=False, read_ops=2, write_ops=2)
    for spec in gen.stream(30):
        if not spec.read_only:
            assert not set(spec.write_keys) & set(spec.read_keys)


def test_readonly_fraction_respected():
    gen = make_generator(readonly_fraction=0.5)
    specs = list(gen.stream(400))
    readonly = sum(1 for s in specs if s.read_only)
    assert 140 < readonly < 260


def test_round_robin_homes():
    gen = make_generator(home_policy="round_robin")
    homes = [spec.home for spec in gen.stream(8)]
    assert homes == [0, 1, 2, 3, 0, 1, 2, 3]


def test_explicit_home_override():
    gen = make_generator()
    assert gen.next_spec(home=2).home == 2


def test_keys_within_database():
    gen = make_generator(num_objects=10)
    for spec in gen.stream(50):
        for key in list(spec.read_keys) + list(spec.write_keys):
            assert key.startswith("x")
            assert 0 <= int(key[1:]) < 10


def test_zipf_skew_concentrates_access():
    gen = make_generator(zipf_theta=1.2, num_objects=64)
    counts = {}
    for spec in gen.stream(300):
        for key in spec.write_keys:
            counts[key] = counts.get(key, 0) + 1
    hottest = max(counts.values())
    assert hottest > 300 * 2 * 0.1  # top key gets a big share


def test_footprint_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(num_objects=3, read_ops=2, write_ops=2)
    with pytest.raises(ValueError):
        WorkloadConfig(readonly_fraction=1.5)
    with pytest.raises(ValueError):
        WorkloadConfig(home_policy="nearest")


def test_open_loop_schedules_poisson_arrivals():
    cluster = Cluster(ClusterConfig(protocol="abp", num_sites=3, num_objects=16, seed=9))
    runner = OpenLoopRunner(
        cluster, WorkloadConfig(num_objects=16, num_sites=3), rate=0.05, count=20
    )
    runner.start()
    result = cluster.run(max_time=500000)
    assert result.ok
    assert result.committed_specs + result.failed_specs == 20


def test_open_loop_validates_params():
    cluster = Cluster(ClusterConfig(num_sites=2, seed=1))
    with pytest.raises(ValueError):
        OpenLoopRunner(cluster, WorkloadConfig(num_sites=2), rate=0.0, count=5)
    with pytest.raises(ValueError):
        OpenLoopRunner(cluster, WorkloadConfig(num_sites=2), rate=1.0, count=0)


def test_closed_loop_keeps_mpl_bounded():
    cluster = Cluster(ClusterConfig(protocol="abp", num_sites=3, num_objects=16, seed=9))
    runner = ClosedLoopRunner(
        cluster, WorkloadConfig(num_objects=16, num_sites=3), mpl=3, transactions=15
    )
    in_flight_high_water = 0
    original_submit = cluster.submit

    def counting_submit(spec, at=0.0):
        nonlocal in_flight_high_water
        in_flight_high_water = max(in_flight_high_water, len(runner._outstanding))
        original_submit(spec, at)

    cluster.submit = counting_submit
    runner.start()
    result = cluster.run(max_time=500000)
    assert result.ok
    assert in_flight_high_water <= 3
    assert result.committed_specs == 15


def test_closed_loop_validates_params():
    cluster = Cluster(ClusterConfig(num_sites=2, seed=1))
    with pytest.raises(ValueError):
        ClosedLoopRunner(cluster, WorkloadConfig(num_sites=2), mpl=0, transactions=5)
    with pytest.raises(ValueError):
        ClosedLoopRunner(cluster, WorkloadConfig(num_sites=2), mpl=5, transactions=3)
