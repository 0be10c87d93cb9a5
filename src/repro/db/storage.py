"""Multiversioned per-site object store.

Objects are identified by string keys.  Each committed write installs a new
version; version numbers are per-object and dense (0 is the initial
version).  Old versions are retained (bounded by ``history_limit``) so that
read-only transactions can be served a consistent snapshot and so the 1SR
checker can resolve exactly which version every read observed.

A key's history is a tuple until this store first writes it: every key
:meth:`VersionedStore.initialize` creates shares one immutable
``(VersionedValue(0, value, None),)``, and a snapshot load gives each key a
one-version tuple.  :meth:`VersionedStore.install` turns the history into a
list on the key's first write.  The readers only index and iterate, so they
answer alike for both, and a key this store never writes costs it no
history of its own after ``initialize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional


@dataclass(frozen=True, slots=True)
class VersionedValue:
    """One committed version of one object."""

    version: int
    value: Any
    writer: Optional[str]  # transaction id, None for the initial version


class StorageError(KeyError):
    """Raised when accessing an unknown object or version."""


class VersionedStore:
    """The committed state of one replica."""

    def __init__(self, history_limit: int = 16):
        if history_limit < 1:
            raise ValueError("history_limit must be at least 1")
        self.history_limit = history_limit
        self._objects: dict[str, list[VersionedValue] | tuple[VersionedValue, ...]] = {}
        self.install_count = 0

    def initialize(self, keys: Iterable[str], value: Any = 0) -> None:
        """Create objects at version 0 (the database's initial state), all
        sharing one initial history."""
        initial = (VersionedValue(0, value, None),)
        for key in keys:
            if key not in self._objects:
                self._objects[key] = initial

    def contains(self, key: str) -> bool:
        return key in self._objects

    def keys(self) -> list[str]:
        return sorted(self._objects)

    def read(self, key: str) -> VersionedValue:
        """Latest committed version of ``key``."""
        versions = self._objects.get(key)
        if not versions:
            raise StorageError(f"unknown object {key!r}")
        return versions[-1]

    def read_version(self, key: str, version: int) -> VersionedValue:
        """A specific retained version (snapshot reads)."""
        versions = self._objects.get(key)
        if not versions:
            raise StorageError(f"unknown object {key!r}")
        for candidate in reversed(versions):
            if candidate.version == version:
                return candidate
        raise StorageError(f"version {version} of {key!r} not retained")

    def version(self, key: str) -> int:
        return self.read(key).version

    def install(self, key: str, value: Any, writer: str) -> int:
        """Install a new committed version; returns its version number."""
        versions = self._objects.get(key)
        if versions is None:
            raise StorageError(f"unknown object {key!r}")
        if isinstance(versions, tuple):  # first write here: own the history
            versions = self._objects[key] = list(versions)
        new_version = versions[-1].version + 1
        versions.append(VersionedValue(new_version, value, writer))
        if len(versions) > self.history_limit:
            del versions[: len(versions) - self.history_limit]
        self.install_count += 1
        return new_version

    def digest(self) -> tuple:
        """Hashable summary of the latest committed state of every object."""
        return tuple(
            (key, versions[-1].version, versions[-1].value)
            for key, versions in sorted(self._objects.items())
        )

    def same_state(self, other: "VersionedStore") -> bool:
        """``self.digest() == other.digest()`` without building or sorting
        either: latest ``(version, value)`` compared key by key, stopping at
        the first difference."""
        theirs = other._objects
        return len(self._objects) == len(theirs) and all(
            (others := theirs.get(key)) is not None
            and versions[-1].version == others[-1].version
            # Identity first, as tuple comparison does (a shared NaN is equal).
            and (versions[-1].value is others[-1].value or versions[-1].value == others[-1].value)
            for key, versions in self._objects.items()
        )

    def export_snapshot(self) -> tuple[tuple[str, int, Any], ...]:
        """Latest version of every object as wire-friendly tuples
        (key, version, value) — the payload of a state transfer."""
        return tuple(
            (key, versions[-1].version, versions[-1].value)
            for key, versions in sorted(self._objects.items())
        )

    def load_snapshot(
        self, snapshot: Iterable[tuple[str, int, Any]], writer: str = "state-transfer"
    ) -> None:
        """Replace our state with a received snapshot (state transfer)."""
        self._objects = {
            key: (VersionedValue(version, value, writer if version > 0 else None),)
            for key, version, value in snapshot
        }

    def __len__(self) -> int:
        return len(self._objects)
