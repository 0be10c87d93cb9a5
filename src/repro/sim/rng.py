"""Deterministic named random streams.

Every source of randomness in a simulation (network latency, workload
arrivals, key selection, fault injection) draws from its own named stream, so
that changing how one component consumes randomness does not perturb the
others.  Streams are derived from a single master seed with a stable hash,
making whole experiments reproducible from one integer.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit stream seed from ``master_seed`` and a stream name.

    Uses SHA-256 rather than ``hash()`` so the derivation is stable across
    Python processes (``PYTHONHASHSEED`` does not affect it).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Registry of named, independently seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng