"""Unit tests for the write-ahead log."""

from repro.db.storage import VersionedStore
from repro.db.wal import LogRecord, LogRecordType, WriteAheadLog


def test_append_assigns_dense_lsns():
    wal = WriteAheadLog()
    assert wal.log_begin("T1") == 0
    assert wal.log_write("T1", "x", 1) == 1
    assert wal.log_commit("T1") == 2
    assert wal.last_lsn == 2
    assert len(wal) == 3


def test_replay_applies_only_committed():
    wal = WriteAheadLog()
    wal.log_begin("T1")
    wal.log_write("T1", "x", 10)
    wal.log_commit("T1")
    wal.log_begin("T2")
    wal.log_write("T2", "x", 99)
    wal.log_abort("T2")
    wal.log_begin("T3")
    wal.log_write("T3", "y", 7)
    # T3 never commits: in-flight at crash.

    store = VersionedStore()
    store.initialize(["x", "y"])
    applied = wal.replay(store)
    assert applied == 1
    assert store.read("x").value == 10
    assert store.read("y").value == 0


def test_replay_preserves_commit_order():
    wal = WriteAheadLog()
    for tx, value in (("T1", 1), ("T2", 2)):
        wal.log_begin(tx)
        wal.log_write(tx, "x", value)
    # T2 commits before T1.
    wal.log_commit("T2")
    wal.log_commit("T1")
    store = VersionedStore()
    store.initialize(["x"])
    wal.replay(store)
    assert store.read("x").value == 1  # T1 is the later commit
    assert store.read("x").version == 2


def test_replay_reproduces_online_state():
    """Replaying a replica's log into a fresh store reproduces its state —
    the crash-recovery property."""
    wal = WriteAheadLog()
    online = VersionedStore()
    online.initialize(["x", "y"])
    for n, tx in enumerate(["A", "B", "C"]):
        wal.log_begin(tx)
        wal.log_write(tx, "x", n)
        wal.log_write(tx, "y", n * 10)
        online.install("x", n, tx)
        online.install("y", n * 10, tx)
        wal.log_commit(tx)
    recovered = VersionedStore()
    recovered.initialize(["x", "y"])
    wal.replay(recovered)
    assert recovered.digest() == online.digest()


def test_committed_transactions_in_order():
    wal = WriteAheadLog()
    wal.log_begin("T1")
    wal.log_commit("T1")
    wal.log_begin("T2")
    wal.log_abort("T2")
    wal.log_begin("T3")
    wal.log_commit("T3")
    assert wal.committed_transactions() == ["T1", "T3"]


def test_truncate():
    wal = WriteAheadLog()
    wal.log_begin("T1")
    wal.truncate()
    assert len(wal) == 0
    assert wal.last_lsn == -1


def test_record_rendering():
    wal = WriteAheadLog()
    wal.log_write("T1", "x", 5)
    record = next(iter(wal))
    assert record.type is LogRecordType.WRITE
    assert "x" in str(record) and "T1" in str(record)


def test_rows_read_back_as_the_records_they_were_logged_as():
    """The log keeps plain rows; iteration rebuilds each ``LogRecord`` with
    its row index as the LSN, the one each append returned."""
    wal = WriteAheadLog()
    lsns = [
        wal.log_begin("T1"),
        wal.log_write("T1", "x", 5),
        wal.log_write("T1", "y", ("tuple", 1)),
        wal.log_abort("T2"),
        wal.log_commit("T1"),
    ]
    expected = [
        LogRecord(0, LogRecordType.BEGIN, "T1"),
        LogRecord(1, LogRecordType.WRITE, "T1", "x", 5),
        LogRecord(2, LogRecordType.WRITE, "T1", "y", ("tuple", 1)),
        LogRecord(3, LogRecordType.ABORT, "T2"),
        LogRecord(4, LogRecordType.COMMIT, "T1"),
    ]
    assert lsns == [0, 1, 2, 3, 4]
    assert list(wal) == list(wal) == expected
    assert [str(record) for record in wal] == [
        "lsn=0 begin T1",
        "lsn=1 write T1 x=5",
        "lsn=2 write T1 y=('tuple', 1)",
        "lsn=3 abort T2",
        "lsn=4 commit T1",
    ]
    assert wal.committed_transactions() == ["T1"]
    store = VersionedStore()
    store.initialize(["x", "y"])
    assert wal.replay(store) == 2
    assert store.read("y").value == ("tuple", 1)
    wal.truncate()
    assert wal.last_lsn == -1 and list(wal) == []
    assert wal.log_commit("T3") == 0
    assert list(wal) == [LogRecord(0, LogRecordType.COMMIT, "T3")]
