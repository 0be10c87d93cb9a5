"""Per-site database substrate.

Each replica owns a :class:`repro.db.storage.VersionedStore`, a strict
two-phase-locking :class:`repro.db.locks.LockManager`, and a
:class:`repro.db.wal.WriteAheadLog`.  A single global
:class:`repro.db.serialization.HistoryRecorder` turns the paper's 1SR proof
obligation into an executable check (one-copy serialization graph
acyclicity) asserted by every test and benchmark run.
"""
