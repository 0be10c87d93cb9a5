"""Tests for the statistics helpers."""

import pytest

from repro.analysis.stats import (
    Summary,
    mean,
    percentile,
    summarize,
)


def test_percentile_endpoints():
    data = [1.0, 2.0, 3.0, 4.0]
    assert percentile(data, 0.0) == 1.0
    assert percentile(data, 1.0) == 4.0


def test_percentile_interpolates():
    assert percentile([0.0, 10.0], 0.5) == 5.0
    assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0


def test_percentile_unsorted_input():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_percentile_single_value():
    assert percentile([7.0], 0.99) == 7.0


def test_mean():
    assert mean([2.0, 4.0]) == 3.0
    with pytest.raises(ValueError):
        mean([])


def test_summarize():
    summary = summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert summary.count == 5
    assert summary.mean == 3.0
    assert summary.p50 == 3.0
    assert summary.minimum == 1.0
    assert summary.maximum == 5.0


def test_summarize_empty():
    summary = summarize([])
    assert summary == Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
