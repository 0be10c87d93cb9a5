"""Latency models for simulated links.

A latency model maps (source, destination) to a one-way delay sample.  All
models draw from a ``random.Random`` supplied by the network so streams stay
deterministic.  Units are abstract milliseconds.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod


class LatencyModel(ABC):
    """Samples one-way link delays."""

    @abstractmethod
    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """One delay sample for a message from ``src`` to ``dst``."""

    @abstractmethod
    def mean(self) -> float:
        """Approximate mean delay (used by default timeout heuristics)."""


class FixedLatency(LatencyModel):
    """Constant delay; useful for analytical-style message-count tests."""

    def __init__(self, delay: float = 1.0):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.delay

    def mean(self) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Uniformly distributed delay in ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5):
        if not 0 <= low <= high:
            raise ValueError("require 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        # ``random.uniform``'s own arithmetic, one frame and one draw.
        low = self.low
        return low + (self.high - low) * rng.random()

    def mean(self) -> float:
        return (self.low + self.high) / 2.0


class LognormalLatency(LatencyModel):
    """Heavy-tailed delay typical of shared-medium networks.

    Parameterised by the median and a shape ``sigma``; delays are clamped at
    ``cap`` to keep simulations bounded.
    """

    def __init__(self, median: float = 1.0, sigma: float = 0.4, cap: float = 100.0):
        if median <= 0 or sigma < 0:
            raise ValueError("median must be positive and sigma non-negative")
        self.median = median
        self.sigma = sigma
        self.cap = cap

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        value = rng.lognormvariate(math.log(self.median), self.sigma)
        return min(value, self.cap)

    def mean(self) -> float:
        return min(self.median * math.exp(self.sigma**2 / 2.0), self.cap)
