"""Unit tests for vector clocks."""

import itertools

import pytest

from repro.broadcast.vector_clock import (
    AFTER,
    BEFORE,
    CONCURRENT,
    EQUAL,
    VectorClock,
)


def test_zero_clock():
    vc = VectorClock.zero(3)
    assert list(vc) == [0, 0, 0]
    assert len(vc) == 3


def test_zero_rejects_nonpositive():
    with pytest.raises(ValueError):
        VectorClock.zero(0)


def test_increment_returns_new_clock():
    a = VectorClock.zero(3)
    b = a.increment(1)
    assert list(a) == [0, 0, 0]
    assert list(b) == [0, 1, 0]


def test_increment_inplace():
    a = VectorClock.zero(2)
    a.increment_inplace(0)
    assert list(a) == [1, 0]


def test_merge_componentwise_max():
    a = VectorClock([3, 0, 2])
    b = VectorClock([1, 4, 2])
    assert list(a.merge(b)) == [3, 4, 2]
    a.merge_inplace(b)
    assert list(a) == [3, 4, 2]


def test_happens_before_strict():
    a = VectorClock([1, 0])
    b = VectorClock([1, 1])
    assert a < b
    assert a.happens_before(b)
    assert not b < a
    assert not a < a  # irreflexive


def test_le_is_reflexive():
    a = VectorClock([2, 3])
    assert a <= a


def test_concurrency():
    a = VectorClock([1, 0])
    b = VectorClock([0, 1])
    assert a.concurrent_with(b)
    assert b.concurrent_with(a)
    assert not a.concurrent_with(a)


def test_equality_and_hash():
    a = VectorClock([1, 2])
    b = VectorClock([1, 2])
    assert a == b
    assert hash(a) == hash(b)
    assert a != VectorClock([2, 1])


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        VectorClock([1]).merge(VectorClock([1, 2]))
    with pytest.raises(ValueError):
        bool(VectorClock([1]) <= VectorClock([1, 2]))


def test_dominates_entry():
    vc = VectorClock([0, 5, 2])
    assert vc.dominates_entry(1, 5)
    assert vc.dominates_entry(1, 3)
    assert not vc.dominates_entry(1, 6)
    assert vc.dominates_entry(0, 0)


def test_compare_four_outcomes():
    a = VectorClock([1, 0])
    b = VectorClock([1, 1])
    assert a.compare(b) == BEFORE
    assert b.compare(a) == AFTER
    assert a.compare(VectorClock([1, 0])) == EQUAL
    assert a.compare(VectorClock([0, 1])) == CONCURRENT


def test_compare_agrees_with_operators():
    """The fused compare() must classify every pair exactly as the rich
    comparisons do (exhaustive over all 3-site clocks with entries < 3)."""
    clocks = [VectorClock(list(v)) for v in itertools.product(range(3), repeat=3)]
    for a in clocks:
        for b in clocks:
            verdict = a.compare(b)
            assert (verdict == BEFORE) == (a < b)
            assert (verdict == AFTER) == (b < a)
            assert (verdict == EQUAL) == (a == b)
            assert (verdict == CONCURRENT) == a.concurrent_with(b)
            assert (verdict in (BEFORE, EQUAL)) == (a <= b)


def test_compare_size_mismatch_rejected():
    with pytest.raises(ValueError):
        VectorClock([1]).compare(VectorClock([1, 2]))


def test_copy_is_independent():
    a = VectorClock([1, 2])
    b = a.copy()
    b.increment_inplace(0)
    assert list(a) == [1, 2]
    assert list(b) == [2, 2]
