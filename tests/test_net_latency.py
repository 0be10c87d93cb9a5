"""Unit tests for the latency models."""

import random

import pytest

from repro.net.latency import (
    FixedLatency,
    LognormalLatency,
    UniformLatency,
)


@pytest.fixture
def rng():
    return random.Random(99)


def test_fixed_latency_constant(rng):
    model = FixedLatency(2.5)
    assert all(model.sample(rng, 0, 1) == 2.5 for _ in range(10))
    assert model.mean() == 2.5


def test_fixed_latency_rejects_negative():
    with pytest.raises(ValueError):
        FixedLatency(-1.0)


def test_uniform_latency_within_bounds(rng):
    model = UniformLatency(1.0, 3.0)
    samples = [model.sample(rng, 0, 1) for _ in range(200)]
    assert all(1.0 <= s <= 3.0 for s in samples)
    assert model.mean() == 2.0


def test_uniform_latency_validates_bounds():
    with pytest.raises(ValueError):
        UniformLatency(3.0, 1.0)
    with pytest.raises(ValueError):
        UniformLatency(-1.0, 2.0)


def test_lognormal_respects_cap(rng):
    model = LognormalLatency(median=1.0, sigma=2.0, cap=5.0)
    samples = [model.sample(rng, 0, 1) for _ in range(500)]
    assert max(samples) <= 5.0
    assert min(samples) > 0


def test_lognormal_median_roughly_centred(rng):
    model = LognormalLatency(median=2.0, sigma=0.3)
    samples = sorted(model.sample(rng, 0, 1) for _ in range(2000))
    median = samples[len(samples) // 2]
    assert 1.7 < median < 2.3
