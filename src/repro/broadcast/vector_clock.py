"""Vector clocks.

The causal broadcast layer stamps every message with a vector clock and, as
the paper requires, *exposes* the clocks to the application layer: the causal
protocol (CBP) uses them both to detect concurrent conflicting operations and
to recognise implicit acknowledgments ("this message causally follows the
delivery of my commit request").

Comparisons are the CBP delivery hot path, so they are all single-pass:
:meth:`VectorClock.compare` classifies a pair of clocks as BEFORE / AFTER /
EQUAL / CONCURRENT in one scan with early exit, and the rich comparisons are
thin single-scan loops rather than two chained ``<=`` passes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.net.sizes import OBJECT_OVERHEAD, register_payload

#: Outcomes of :meth:`VectorClock.compare` (a partial order, hence four).
BEFORE = -1  #: self happened strictly before other
AFTER = 1  #: other happened strictly before self
EQUAL = 0  #: identical clocks
CONCURRENT = 2  #: incomparable (neither dominates)


class VectorClock:
    """An immutable-by-convention vector of per-site event counts.

    Stored densely as a list indexed by site id.  Mutating helpers return
    new clocks; in-place variants are available for the hot paths inside the
    broadcast layer (suffixed ``_inplace``).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int]):
        self.entries = list(entries)

    @classmethod
    def zero(cls, num_sites: int) -> "VectorClock":
        if num_sites <= 0:
            raise ValueError("num_sites must be positive")
        return cls([0] * num_sites)

    def copy(self) -> "VectorClock":
        return VectorClock(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, site: int) -> int:
        return self.entries[site]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def increment(self, site: int) -> "VectorClock":
        """New clock with ``site``'s entry incremented."""
        clock = self.copy()
        clock.entries[site] += 1
        return clock

    def increment_inplace(self, site: int) -> None:
        self.entries[site] += 1

    def merge(self, other: "VectorClock") -> "VectorClock":
        """New clock: componentwise maximum."""
        self._check_compatible(other)
        return VectorClock(max(a, b) for a, b in zip(self.entries, other.entries))

    def merge_inplace(self, other: "VectorClock") -> None:
        self._check_compatible(other)
        for i, value in enumerate(other.entries):
            if value > self.entries[i]:
                self.entries[i] = value

    def compare(self, other: "VectorClock") -> int:
        """Fused single-pass comparison: BEFORE, AFTER, EQUAL or CONCURRENT.

        One scan with early exit on the first proof of concurrency — the
        primitive the CBP holdback queue and conflict detection build on,
        replacing pairs of ``<=`` scans.
        """
        self._check_compatible(other)
        less = greater = False
        for a, b in zip(self.entries, other.entries):
            if a < b:
                if greater:
                    return CONCURRENT
                less = True
            elif a > b:
                if less:
                    return CONCURRENT
                greater = True
        if less:
            return BEFORE
        if greater:
            return AFTER
        return EQUAL

    def __le__(self, other: "VectorClock") -> bool:
        """Componentwise <= ("happened before or equal")."""
        self._check_compatible(other)
        for a, b in zip(self.entries, other.entries):
            if a > b:
                return False
        return True

    def __lt__(self, other: "VectorClock") -> bool:
        """Strictly happened-before: <= and not equal (single scan)."""
        self._check_compatible(other)
        strict = False
        for a, b in zip(self.entries, other.entries):
            if a > b:
                return False
            if a < b:
                strict = True
        return strict

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(tuple(self.entries))

    def happens_before(self, other: "VectorClock") -> bool:
        """Alias for ``self < other``."""
        return self < other

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Neither clock happened before the other."""
        return self.compare(other) == CONCURRENT

    def dominates_entry(self, site: int, value: int) -> bool:
        """True when this clock has seen at least ``value`` events of ``site``.

        This is the implicit-acknowledgment test of the CBP protocol: a
        message ``m`` from any site causally follows event number ``value``
        of ``site`` exactly when ``m``'s clock dominates that entry.
        """
        return self.entries[site] >= value

    def __wire_size__(self) -> int:
        """Shortcut for the wire-size estimator: one object overhead for the
        clock, one for its entries list, 8 bytes per counter — byte-identical
        to the estimator's generic ``__slots__`` traversal, without walking
        ``num_sites`` ints on every message send."""
        return 2 * OBJECT_OVERHEAD + 8 * len(self.entries)

    def _check_compatible(self, other: "VectorClock") -> None:
        if len(self.entries) != len(other.entries):
            raise ValueError(
                f"vector clock size mismatch: {len(self.entries)} vs {len(other.entries)}"
            )

    def __repr__(self) -> str:
        return f"VC{self.entries}"


# The one wire class that brings its own sizer (see ``register_payload``).
register_payload(VectorClock)
