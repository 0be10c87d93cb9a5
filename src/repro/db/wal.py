"""Write-ahead log for one replica.

Every replica appends redo records for the transactions it processes and
replays committed writes after a crash.  In a simulated environment the
store survives crashes anyway, so the WAL's role here is (a) fidelity — the
protocols log exactly where a real implementation would have to — and (b)
supporting local crash-recovery tests that wipe the store and rebuild it
from the log.

The log checkpoints itself: once it holds :data:`CHUNK` rows, the next
BEGIN, COMMIT or ABORT folds its rows into a recovery *image* (per key:
the committed writes folded since the last state transfer and the last
value written) and drops them.  So a site keeps one chunk of rows plus one
image entry per key written since its last state-transfer snapshot, not
one row per operation of the run; the recovery point is that snapshot (or
the initial state), the image on top, then the rows.  LSNs keep counting
across folds; only :meth:`truncate` restarts them.  A fold needs the rows
as :meth:`Replica.install_writes` logs them, each transaction's writes
straight before its commit; a log written otherwise is kept whole.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_
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


#: Rows the log holds before it folds itself into its image.
CHUNK = 1024

_WRITE, _COMMIT, _ABORT = LogRecordType.WRITE, LogRecordType.COMMIT, LogRecordType.ABORT


class WriteAheadLog:
    """Append-only redo log.

    Entries are stored flat, four slots per row (``type, tx, key, value``)
    in one list, a row's LSN being its index plus the LSN of the first row
    still held; iteration yields a :class:`LogRecord` per row, built on
    read.  Appends happen on every commit at every site, reads only in
    recovery and tests, so the log pays for records only there, and a fold
    reads each column as one slice.

    Rows already folded live on in :attr:`image`.
    """

    def __init__(self) -> None:
        self._slots: list[Any] = []
        #: LSN of the first row held: the rows folds dropped since truncation.
        self._first_lsn = 0
        #: The image, as two maps a fold updates without a Python-level loop.
        self._folded_writes: Counter[str] = Counter()
        self._folded_values: dict[str, Any] = {}
        #: Slots held from which a BEGIN, COMMIT or ABORT tries a fold.
        self._fold_at = 4 * CHUNK

    def __len__(self) -> int:
        return len(self._slots) // 4

    def __iter__(self) -> Iterator[LogRecord]:
        slots = self._slots
        rows = zip(slots[0::4], slots[1::4], slots[2::4], slots[3::4])
        for lsn, row in enumerate(rows, self._first_lsn):
            yield LogRecord(lsn, *row)

    @property
    def last_lsn(self) -> int:
        return self._first_lsn + len(self._slots) // 4 - 1

    @property
    def image(self) -> dict[str, tuple[int, Any]]:
        """``key -> (writes, value)``: how many committed writes to ``key``
        the folds replayed since the log was last truncated, and the last
        one's value.  Applied on top of the state the log started from, it
        gives each such key the version and value replaying the folded rows
        would."""
        values = self._folded_values
        return {key: (writes, values[key]) for key, writes in self._folded_writes.items()}

    def log_begin(self, tx: str) -> int:
        return self._append(LogRecordType.BEGIN, tx)

    def log_write(self, tx: str, key: str, value: Any) -> int:
        # A WRITE leaves its transaction open, so only the other rows try a
        # fold: the log then holds at most a chunk plus one commit's rows.
        slots = self._slots
        slots += (_WRITE, tx, key, value)
        return self._first_lsn + len(slots) // 4 - 1

    def log_commit(self, tx: str) -> int:
        return self._append(_COMMIT, tx)

    def log_abort(self, tx: str) -> int:
        return self._append(_ABORT, tx)

    def _append(self, type_: LogRecordType, tx: str) -> int:
        slots = self._slots
        slots += (type_, tx, None, None)
        lsn = self._first_lsn + len(slots) // 4 - 1
        if len(slots) >= self._fold_at:
            self._fold()
        return lsn

    def checkpoint(self) -> None:
        """Fold now (if the log can fold): the cost is the rows logged since
        the last fold."""
        self._fold()

    def _fold(self) -> None:
        """Replay every row into the image and drop them all, if every
        logged write is closed by its own transaction's next row.

        That is how :meth:`Replica.install_writes` logs -- each
        transaction's writes straight before its commit, the replicas' only
        shape -- so the writes stand in commit order and fold as columns,
        with no Python-level loop.  Any other log (a write left open, or
        followed by another transaction's row) stays unfolded, as it would
        without folds, and the next try waits until it has doubled, so a
        log that cannot fold is not rescanned on every append.

        Calls no public method of this class or of the store: folds happen
        inside appends, and a fold is bookkeeping, not an operation.
        """
        slots = self._slots
        types, txs = slots[0::4], slots[1::4]
        if not types:
            return
        writes = list(map(is_, types, repeat(_WRITE)))
        after = types[1:]
        if (
            types[-1] is _WRITE
            or not all(compress(map(is_, txs[1:], txs), writes))
            or any(compress(map(is_, after, repeat(LogRecordType.BEGIN)), writes))
            or any(compress(map(is_, after, repeat(_ABORT)), writes))
        ):
            self._fold_at = max(4 * CHUNK, 2 * len(slots))
            return
        keys = list(compress(slots[2::4], writes))
        self._folded_writes.update(keys)
        self._folded_values.update(zip(keys, compress(slots[3::4], writes)))
        self._first_lsn += len(types)
        slots.clear()
        self._fold_at = 4 * CHUNK

    def committed_transactions(self) -> list[str]:
        """Transaction ids with a COMMIT row still held, in commit order."""
        return [r.tx for r in self if r.type is LogRecordType.COMMIT]

    def replay(self, store: VersionedStore) -> int:
        """Redo the committed writes the log still holds as rows, in commit
        order, into a store at the recovery point (:attr:`image` applied).

        Returns the number of writes applied.  Writes of each committed
        transaction are applied at the point of its COMMIT record, matching
        the install order the replica used online.
        """
        pending: dict[str, list[tuple[str, Any]]] = {}
        applied = 0
        for record in self:
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
        """Drop every record, rows and image (after a state transfer: the
        snapshot is the new recovery point); LSNs restart at 0."""
        self._slots.clear()
        self._folded_writes.clear()
        self._folded_values.clear()
        self._first_lsn = 0
        self._fold_at = 4 * CHUNK
