"""Per-site object store: the latest committed version of every object.

Objects are identified by string keys.  Each committed write installs a new
version; version numbers are per-object and dense (0 is the initial
version).  Only the latest is kept: sites run strict 2PL on the latest copy,
and the 1SR checker resolves each read by the version its reader recorded.

Every key :meth:`VersionedStore.initialize` creates shares one immutable
``VersionedValue(0, value, None)`` until its first write, so a key this
store never writes costs it nothing of its own.
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
    """Raised when accessing an unknown object."""


class VersionedStore:
    """The committed state of one replica."""

    def __init__(self) -> None:
        self._objects: dict[str, VersionedValue] = {}
        self.install_count = 0

    def initialize(self, keys: Iterable[str], value: Any = 0) -> None:
        """Create objects at version 0 (the database's initial state), all
        sharing one initial version."""
        initial = VersionedValue(0, value, None)
        for key in keys:
            if key not in self._objects:
                self._objects[key] = initial

    def contains(self, key: str) -> bool:
        return key in self._objects

    def keys(self) -> list[str]:
        return sorted(self._objects)

    def read(self, key: str) -> VersionedValue:
        """Latest committed version of ``key``."""
        latest = self._objects.get(key)
        if latest is None:
            raise StorageError(f"unknown object {key!r}")
        return latest

    def version(self, key: str) -> int:
        return self.read(key).version

    def _latest_versions(self, keys: Iterable[str]) -> list[int]:
        """The latest version of each of ``keys``, 0 for a key not here.
        Private: the 1SR recorder's horizon reads it, not a protocol."""
        objects = self._objects
        return [objects[key].version if key in objects else 0 for key in keys]

    def install(self, key: str, value: Any, writer: str) -> int:
        """Install a new committed version; returns its version number."""
        latest = self._objects.get(key)
        if latest is None:
            raise StorageError(f"unknown object {key!r}")
        new_version = latest.version + 1
        self._objects[key] = VersionedValue(new_version, value, writer)
        self.install_count += 1
        return new_version

    def digest(self) -> tuple[tuple[str, int, Any], ...]:
        """Every object as (key, version, value), sorted: a hashable summary
        of the committed state, and (as :meth:`export_snapshot`) the
        wire-friendly payload of a state transfer."""
        return tuple(
            (key, latest.version, latest.value) for key, latest in sorted(self._objects.items())
        )

    export_snapshot = digest

    def same_state(self, other: "VersionedStore") -> bool:
        """``self.digest() == other.digest()`` without building or sorting
        either: ``(version, value)`` compared key by key, stopping at the
        first difference."""
        theirs = other._objects
        return len(self._objects) == len(theirs) and all(
            (others := theirs.get(key)) is not None
            and latest.version == others.version
            # Identity first, as tuple comparison does (a shared NaN is equal).
            and (latest.value is others.value or latest.value == others.value)
            for key, latest in self._objects.items()
        )

    def load_snapshot(
        self, snapshot: Iterable[tuple[str, int, Any]], writer: str = "state-transfer"
    ) -> None:
        """Replace our state with a received snapshot (state transfer)."""
        self._objects = {
            key: VersionedValue(version, value, writer if version > 0 else None)
            for key, version, value in snapshot
        }

    def __len__(self) -> int:
        return len(self._objects)
