"""The write-ahead log's fold against the store it logs.

A replica's log folds itself every ``CHUNK`` rows (shrunk here, so a short
stream crosses it many times).  Random begin/write/commit/abort streams,
with explicit checkpoints and state-transfer snapshots interleaved, are
played into a replica; after every step the recovery point (snapshot,
image, row tail) must rebuild the live store, LSNs must stay dense across
folds, and the log must stay within its chunk.

Slots 0 and 1 run as the protocols do: writes buffer with the transaction
and :meth:`Replica.install_writes` logs them with the commit, the shape a
fold takes whole.  Slots 2 and 3 log each write as it is made, so a fold
meets transactions whose writes are logged but not yet committed or
aborted, or interleaved with other rows; such a log must stay unfolded
(and still rebuild the store) until a snapshot truncates it.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.metrics import MetricsCollector
from repro.core.replica import Replica
from repro.db import wal as wal_module
from repro.db.serialization import HistoryRecorder
from repro.sim.engine import SimulationEngine
from repro.sim.trace import TraceLog

KEYS = ("a", "b", "c", "d")
CHUNK = 6
#: Slots whose writes are logged when made, not with the commit.
EAGER = (2, 3)
#: Step kinds, weighted so transactions overlap and a snapshot (which ends
#: them all) is rare.
KINDS = ["begin"] * 3 + ["write"] * 4 + ["commit"] * 2 + ["abort", "checkpoint", "snapshot"]

steps = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 3), st.sampled_from(KEYS), st.integers(0, 9)),
    min_size=40,
    max_size=120,
)


def _replica():
    replica = Replica(SimulationEngine(), 0, 1, HistoryRecorder(), MetricsCollector(), TraceLog())
    replica.store.initialize(KEYS)
    return replica


@settings(max_examples=200, deadline=None)
@given(steps)
# A fold meets slot 2's logged write before a later row: nothing folds.
@example([("begin", 2, "a", 5), ("write", 2, "a", 5), ("begin", 0, "a", 0),
          ("checkpoint", 0, "a", 0), ("commit", 2, "a", 0)])
# Logged writes that end open, aborted, or committed out of write order
# must not fold.
@example([("begin", 2, "a", 0), ("write", 2, "a", 1), ("checkpoint", 0, "a", 0)])
@example([("begin", 2, "a", 0), ("write", 2, "a", 1), ("abort", 2, "a", 0),
          ("checkpoint", 0, "a", 0)])
@example([("begin", 2, "a", 0), ("begin", 3, "a", 0), ("write", 2, "a", 1),
          ("write", 3, "a", 2), ("commit", 3, "a", 0), ("commit", 2, "a", 0),
          ("checkpoint", 0, "a", 0)])
# A snapshot after a fold: the image must go with the rows.
@example([("begin", 0, "a", 0), ("write", 0, "a", 1), ("commit", 0, "a", 0),
          ("checkpoint", 0, "a", 0), ("snapshot", 0, "a", 0)])
def test_folded_log_rebuilds_the_store_after_every_step(stream):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wal_module, "CHUNK", CHUNK)
        _play(stream)


def _play(stream):
    replica = _replica()
    wal, store = replica.wal, replica.store
    open_txs = {}  # slot -> (tx id, [(key, value), ...])
    appends = 0  # since the last truncation
    eager = False  # a write was logged as made since the last truncation
    last_lsn = -1
    for number, (kind, slot, key, value) in enumerate(stream):
        if kind == "begin" and slot not in open_txs:
            open_txs[slot] = (f"T{number}", [])
            wal.log_begin(open_txs[slot][0])
            appends += 1
        elif kind == "write" and slot in open_txs:
            tx, writes = open_txs[slot]
            writes.append((key, value))
            if slot in EAGER:
                wal.log_write(tx, key, value)
                appends += 1
                eager = True
        elif kind == "commit" and slot in open_txs:
            tx, writes = open_txs.pop(slot)
            if slot in EAGER:
                for written, new in writes:
                    store.install(written, new, tx)
                wal.log_commit(tx)
                appends += 1
            else:
                replica.install_writes(tx, dict(writes))
                appends += len(dict(writes)) + 1
        elif kind == "abort" and slot in open_txs:
            wal.log_abort(open_txs.pop(slot)[0])
            appends += 1
        elif kind == "checkpoint":
            replica.checkpoint()
        elif kind == "snapshot":
            # A state transfer follows a crash: no transaction survives it.
            open_txs.clear()
            replica.install_snapshot(
                tuple((name, (value + i) % 4, f"s{number}") for i, name in enumerate(KEYS))
            )
            appends = 0
            eager = False
            last_lsn = -1

        assert replica.rebuild_from_local_log().digest() == store.digest()
        # LSNs count every append since the last truncation, folds or not,
        # and the rows still held are the densely numbered tail.
        assert wal.last_lsn == appends - 1 >= last_lsn
        last_lsn = wal.last_lsn
        assert [record.lsn for record in wal] == list(
            range(wal.last_lsn - len(wal) + 1, wal.last_lsn + 1)
        )
        if not eager:
            # Logged as the replicas log, every fold cut everything: the log
            # holds less than a chunk between steps (so at most a chunk plus
            # one commit's rows within one).
            assert len(wal) < CHUNK
        assert len(wal.image) <= len(KEYS)


def test_a_log_that_cannot_fold_is_retried_only_once_it_has_doubled(monkeypatch):
    """A write left open keeps the whole log unfolded; the fold is retried
    at 2x, 4x, ... the rows held, not on every append after the chunk."""
    monkeypatch.setattr(wal_module, "CHUNK", 4)
    tries = []
    fold = wal_module.WriteAheadLog._fold

    def counted(wal):
        tries.append(len(wal))
        fold(wal)

    monkeypatch.setattr(wal_module.WriteAheadLog, "_fold", counted)
    wal = wal_module.WriteAheadLog()
    wal.log_begin("T0")
    wal.log_write("T0", "a", 1)
    for number in range(1, 64):
        wal.log_begin(f"T{number}")
        wal.log_commit(f"T{number}")
    assert len(wal) == 128 and not wal.image
    assert tries == [4, 8, 16, 32, 64, 128]
