"""Per-site object store: the latest committed version of every object.

Objects are identified by string keys.  Each committed write installs a new
version; version numbers are per-object and dense (0 is the initial
version).  Only the latest is kept: sites run strict 2PL on the latest copy,
and the 1SR checker resolves each read by the version its reader recorded.

A store holds of its own only the keys it has written: its map has a key
iff the key's version is above 0.  Every other key reads through the
*initial mapping* (key -> its version 0), which the stores of one cluster
share, so a key no site writes costs no site anything.  The stores of a
cluster also share one table of the latest version any of them installed
per key: a replica installing the commit another replica already installed
(same version, same value object, same writer) keeps that replica's
``VersionedValue`` rather than building its own copy.
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
    """The committed state of one replica.

    ``initial`` (key -> version 0) and ``versions`` (key -> the latest
    version installed through this table) may be shared with other stores;
    a store left to its own gets fresh ones.
    """

    def __init__(
        self,
        initial: Optional[dict[str, VersionedValue]] = None,
        versions: Optional[dict[str, VersionedValue]] = None,
    ) -> None:
        self._initial: dict[str, VersionedValue] = {} if initial is None else initial
        self._versions: dict[str, VersionedValue] = {} if versions is None else versions
        #: key -> latest version, for the keys written here (version > 0).
        self._objects: dict[str, VersionedValue] = {}
        self.install_count = 0

    def initialize(self, keys: Iterable[str], value: Any = 0) -> None:
        """Create objects at version 0 (the database's initial state), all
        sharing one initial version.  A key already here is left as it is,
        so every store over one shared initial mapping may call this."""
        initial = VersionedValue(0, value, None)
        base, objects = self._initial, self._objects
        for key in keys:
            if key not in base and key not in objects:
                base[key] = initial

    def contains(self, key: str) -> bool:
        return key in self._objects or key in self._initial

    def keys(self) -> list[str]:
        return sorted(self._initial.keys() | self._objects.keys())

    def read(self, key: str) -> VersionedValue:
        """Latest committed version of ``key``."""
        latest = self._objects.get(key)
        if latest is None:
            latest = self._initial.get(key)
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
        if latest is not None:
            new_version = latest.version + 1
        elif key in self._initial:
            new_version = 1
        else:
            raise StorageError(f"unknown object {key!r}")
        made = self._versions.get(key)
        if (
            made is None
            or made.version != new_version
            or made.value is not value
            or made.writer != writer
        ):
            made = self._versions[key] = VersionedValue(new_version, value, writer)
        self._objects[key] = made
        self.install_count += 1
        return new_version

    def digest(self) -> tuple[tuple[str, int, Any], ...]:
        """Every object as (key, version, value), sorted: a hashable summary
        of the committed state, and (as :meth:`export_snapshot`) the
        wire-friendly payload of a state transfer."""
        objects, initial = self._objects, self._initial
        rows = []
        for key in sorted(initial.keys() | objects.keys()):
            latest = objects[key] if key in objects else initial[key]
            rows.append((key, latest.version, latest.value))
        return tuple(rows)

    export_snapshot = digest

    def same_state(self, other: "VersionedStore") -> bool:
        """``self.digest() == other.digest()`` without building or sorting
        either.  Over one shared initial mapping two stores can differ only
        in the keys written, so only those are compared: ``(version,
        value)`` key by key, stopping at the first difference."""
        if self._initial is not other._initial:
            return self.digest() == other.digest()
        mine, theirs = self._objects, other._objects
        return len(mine) == len(theirs) and all(
            (others := theirs.get(key)) is not None
            and latest.version == others.version
            # Identity first, as tuple comparison does (a shared NaN is equal).
            and (latest.value is others.value or latest.value == others.value)
            for key, latest in mine.items()
        )

    def load_snapshot(
        self, snapshot: Iterable[tuple[str, int, Any]], writer: str = "state-transfer"
    ) -> None:
        """Replace our state with a received snapshot (state transfer).

        The written keys become this store's own; the keys at version 0 keep
        reading through the initial mapping when the snapshot agrees with it
        (every key of it present, each version-0 value the very object it
        holds), as a snapshot between stores of one cluster does.  Otherwise
        the store takes a mapping of its own, built from the snapshot.
        """
        objects: dict[str, VersionedValue] = {}
        unwritten: dict[str, Any] = {}
        for key, version, value in snapshot:
            if version > 0:
                objects[key] = VersionedValue(version, value, writer)
            else:
                unwritten[key] = value
        initial = self._initial
        agrees = all(
            (base := initial.get(key)) is not None and base.value is value
            for key, value in unwritten.items()
        ) and all(key in objects or key in unwritten for key in initial)
        if not agrees:
            self._initial = {
                key: VersionedValue(0, value, None) for key, value in unwritten.items()
            }
        self._objects = objects

    def __len__(self) -> int:
        initial = self._initial
        return len(initial) + sum(key not in initial for key in self._objects)
