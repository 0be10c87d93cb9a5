"""Property-based tests for workload generation invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.workload.generator import WorkloadConfig, WorkloadGenerator

configs = st.builds(
    WorkloadConfig,
    num_objects=st.integers(min_value=8, max_value=128),
    num_sites=st.integers(min_value=1, max_value=8),
    read_ops=st.integers(min_value=0, max_value=4),
    write_ops=st.integers(min_value=1, max_value=4),
    readonly_fraction=st.floats(min_value=0.0, max_value=1.0),
    zipf_theta=st.floats(min_value=0.0, max_value=1.5),
    rmw=st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(configs, st.integers(0, 2**32))
def test_specs_always_well_formed(config, seed):
    generator = WorkloadGenerator(config, random.Random(seed))
    for spec in generator.stream(20):
        # Keys exist in the database.
        for key in list(spec.read_keys) + list(spec.write_keys):
            assert 0 <= int(key[1:]) < config.num_objects
        # Homes are valid sites.
        assert 0 <= spec.home < config.num_sites
        # No duplicate keys within a set.
        assert len(set(spec.read_keys)) == len(spec.read_keys)
        assert len(set(spec.write_keys)) == len(spec.write_keys)
        if not spec.read_only:
            assert len(spec.write_keys) == config.write_ops
            if config.rmw:
                assert set(spec.write_keys) <= set(spec.read_keys)


@settings(max_examples=50, deadline=None)
@given(configs, st.integers(0, 2**32))
def test_generation_deterministic_per_seed(config, seed):
    a = WorkloadGenerator(config, random.Random(seed))
    b = WorkloadGenerator(config, random.Random(seed))
    assert list(a.stream(15)) == list(b.stream(15))


@settings(max_examples=50, deadline=None)
@given(configs, st.integers(0, 2**32))
def test_names_unique_and_sequential(config, seed):
    generator = WorkloadGenerator(config, random.Random(seed))
    names = [spec.name for spec in generator.stream(25)]
    assert names == [f"T{i}" for i in range(1, 26)]


@settings(max_examples=50, deadline=None)
@given(configs, st.integers(0, 2**32))
def test_write_values_globally_unique(config, seed):
    """Distinct write values make lost updates detectable by value."""
    generator = WorkloadGenerator(config, random.Random(seed))
    values = [
        value
        for spec in generator.stream(25)
        for value in dict(spec.writes).values()
    ]
    assert len(values) == len(set(values))
