"""Write-ahead log for one replica.

Every replica appends redo records for the transactions it processes and
replays committed writes after a crash.  In a simulated environment the
store survives crashes anyway, so the WAL's role here is (a) fidelity — the
protocols log exactly where a real implementation would have to — and (b)
supporting local crash-recovery tests that wipe the store and rebuild it
from the log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.db.storage import VersionedStore


class LogRecordType(enum.Enum):
    """WAL record types (begin / write / commit / abort)."""

    BEGIN = "begin"
    WRITE = "write"
    COMMIT = "commit"
    ABORT = "abort"


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One WAL entry."""

    lsn: int
    type: LogRecordType
    tx: str
    key: Optional[str] = None
    value: Any = None

    def __str__(self) -> str:
        extra = f" {self.key}={self.value!r}" if self.type is LogRecordType.WRITE else ""
        return f"lsn={self.lsn} {self.type.value} {self.tx}{extra}"


class WriteAheadLog:
    """Append-only redo log."""

    def __init__(self) -> None:
        self._records: list[LogRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    @property
    def last_lsn(self) -> int:
        return len(self._records) - 1

    def log_begin(self, tx: str) -> int:
        return self._append(LogRecordType.BEGIN, tx)

    def log_write(self, tx: str, key: str, value: Any) -> int:
        return self._append(LogRecordType.WRITE, tx, key, value)

    def log_commit(self, tx: str) -> int:
        return self._append(LogRecordType.COMMIT, tx)

    def log_abort(self, tx: str) -> int:
        return self._append(LogRecordType.ABORT, tx)

    def _append(
        self, type_: LogRecordType, tx: str, key: Optional[str] = None, value: Any = None
    ) -> int:
        lsn = len(self._records)
        self._records.append(LogRecord(lsn, type_, tx, key, value))
        return lsn

    def committed_transactions(self) -> list[str]:
        """Transaction ids with a COMMIT record, in commit order."""
        return [r.tx for r in self._records if r.type is LogRecordType.COMMIT]

    def replay(self, store: VersionedStore) -> int:
        """Redo committed writes, in commit order, into a fresh store.

        Returns the number of writes applied.  Writes of each committed
        transaction are applied at the point of its COMMIT record, matching
        the install order the replica used online.
        """
        pending: dict[str, list[tuple[str, Any]]] = {}
        applied = 0
        for record in self._records:
            if record.type is LogRecordType.BEGIN:
                pending.setdefault(record.tx, [])
            elif record.type is LogRecordType.WRITE:
                assert record.key is not None
                pending.setdefault(record.tx, []).append((record.key, record.value))
            elif record.type is LogRecordType.ABORT:
                pending.pop(record.tx, None)
            elif record.type is LogRecordType.COMMIT:
                for key, value in pending.pop(record.tx, []):
                    store.install(key, value, record.tx)
                    applied += 1
        return applied

    def truncate(self) -> None:
        """Drop all records (after a checkpoint/state transfer)."""
        self._records.clear()
