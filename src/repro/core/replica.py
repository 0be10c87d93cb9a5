"""Base replica: one database site.

A replica owns the site's store, lock manager and WAL, and implements the
phases every protocol shares:

- transaction submission and the read phase (read locks are acquired
  **all-or-nothing** so a transaction never waits while holding a partial
  read set — this keeps read-only transactions out of every deadlock cycle,
  see DESIGN.md);
- the read-only fast path: read-only transactions commit locally, broadcast
  nothing, and are never aborted (paper, sections 3-5);
- commit/abort bookkeeping against the global history recorder and metrics;
- the per-transaction lifecycle: one record per live transaction in
  ``_live`` (the protocol defines the record class and opens it on first
  touch), one exit (:meth:`_discharge`), one commit tail
  (:meth:`_install_commit`) and :meth:`in_flight`, derived from ``_live``
  through the protocol's ``residue`` table;
- one view-change walk (:meth:`on_view_change`) over three protocol hooks.

Protocol subclasses implement :meth:`start_update` (what happens once an
update transaction has its reads) and the message handlers.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.analysis.metrics import MetricsCollector
from repro.core.transaction import AbortReason, Transaction, TxPhase
from repro.db.locks import LockManager, LockMode
from repro.db.serialization import HistoryRecorder
from repro.db.storage import VersionedStore
from repro.db.wal import WriteAheadLog
from repro.sim.engine import SimulationEngine
from repro.sim.process import Process
from repro.sim.trace import TraceLog

CompletionFn = Callable[[Transaction, bool], None]


class Replica(Process):
    """One site of the replicated database."""

    #: Subclasses set False to release read locks right after reading
    #: (optimistic certification protocols).
    hold_read_locks = True

    #: Residue label -> test over a ``_live`` record: what :meth:`in_flight`
    #: reports, one table per protocol.
    residue: dict[str, Callable[[Any], Any]] = {}

    def __init__(
        self,
        engine: SimulationEngine,
        site: int,
        num_sites: int,
        recorder: HistoryRecorder,
        metrics: MetricsCollector,
        trace: TraceLog,
    ):
        super().__init__(engine, f"site{site}")
        self.site = site
        self.num_sites = num_sites
        self.store = VersionedStore()
        self.locks = LockManager()
        self.wal = WriteAheadLog()
        self.recorder = recorder
        self.metrics = metrics
        self.trace = trace
        self.on_complete: Optional[CompletionFn] = None
        #: Transactions homed at this site, by tx_id, until terminal.
        self.local: dict[str, Transaction] = {}
        #: Local update transactions that have broadcast anything ("public").
        self.public: set[str] = set()
        #: tx -> the protocol's record, for every transaction with volatile
        #: protocol state here, in first-touch order.  A transaction with a
        #: record has no tombstone: every terminal path leaves through
        #: ``_discharge``.
        self._live: dict[str, Any] = {}
        #: tx -> tombstone: it ended here, and a message naming it may still
        #: arrive.  Each protocol fills and retires it (DESIGN.md, "Tombstones").
        self._tombstones: dict[str, Any] = {}
        #: View membership hook; protocols read this for "all sites".
        self.view_members: list[int] = list(range(num_sites))
        #: Same membership as a frozenset, maintained by on_view_change so
        #: per-message paths test/filter against it without rebuilding a
        #: set per event (detcheck S301 audit).
        self.view_member_set: frozenset[int] = frozenset(self.view_members)
        self.has_quorum = True
        #: True while a post-crash state transfer is in flight.
        self.recovering = False
        #: Last state-transfer snapshot (None: the initial state), the base
        #: the WAL's image and rows apply to.
        self._snapshot: Optional[tuple] = None
        self.checkpoints_taken = 0

    # -- submission and the read phase -------------------------------------------

    def submit(self, tx: Transaction) -> None:
        """Begin executing ``tx`` at this (its home) site."""
        if not self.alive or self.recovering:
            self._complete_abort(tx, AbortReason.SITE_FAILURE)
            return
        if not tx.read_only and not self.has_quorum:
            # Minority view: update transactions are refused (one-copy
            # serializability across a partition would be violated).
            self._complete_abort(tx, AbortReason.NO_QUORUM)
            return
        self.local[tx.tx_id] = tx
        tx.phase = TxPhase.PENDING
        # Read locks for the read set; keys the transaction will also write
        # take their exclusive lock right away (the write set is known at
        # submission in the paper's model).  This upgrade avoidance removes
        # the classic S->X upgrade deadlock between two local
        # read-modify-write transactions on the same key.
        write_keys = set(tx.spec.write_keys)
        needs = {
            key: LockMode.EXCLUSIVE if key in write_keys else LockMode.SHARED
            for key in tx.spec.read_keys
        }
        self.trace.emit(self.now, self.name, "tx.submit", tx=tx.tx_id)
        if self.locks.acquire_group(tx.tx_id, needs, self._reads_granted_cb):
            self._reads_granted(tx)

    def _reads_granted_cb(self, tx_id: str) -> None:
        tx = self.local.get(tx_id)
        if tx is not None and tx.phase is TxPhase.PENDING:
            self._reads_granted(tx)

    def _reads_granted(self, tx: Transaction) -> None:
        tx.phase = TxPhase.READING
        for key in tx.spec.read_keys:
            versioned = self.store.read(key)
            tx.reads_observed[key] = (versioned.value, versioned.version)
        self.trace.emit(self.now, self.name, "tx.reads_done", tx=tx.tx_id)
        if tx.read_only:
            self._commit_readonly(tx)
            return
        if not self.hold_read_locks:
            self.locks.release_all(tx.tx_id)
        self.wal.log_begin(tx.tx_id)
        tx.phase = TxPhase.EXECUTING
        self.start_update(tx)

    # -- read-only fast path -------------------------------------------------------

    def _commit_readonly(self, tx: Transaction) -> None:
        """Read-only transactions commit locally and never abort (paper)."""
        self._discharge(tx.tx_id)
        tx.phase = TxPhase.COMMITTED
        tx.commit_time = self.now
        self.recorder.record_commit(
            tx.tx_id, self.site, tx.observed_versions(), {}, self.now
        )
        self.metrics.tx_committed(tx, self.now)
        self.local.pop(tx.tx_id, None)
        self.trace.emit(self.now, self.name, "tx.commit_readonly", tx=tx.tx_id)
        if self.on_complete is not None:
            self.on_complete(tx, True)

    # -- shared commit/abort plumbing -----------------------------------------------

    def install_writes(self, tx_id: str, writes: dict[str, Any]) -> dict[str, int]:
        """Apply committed writes to this replica, logging redo records.

        Keys are installed in sorted order so replicas that commit the same
        transactions in the same per-key order converge bit-for-bit.
        Returns the installed version numbers.
        """
        versions: dict[str, int] = {}
        for key in sorted(writes):
            self.wal.log_write(tx_id, key, writes[key])
            versions[key] = self.store.install(key, writes[key], tx_id)
        self.wal.log_commit(tx_id)
        return versions

    def _discharge(self, tx_id: str) -> None:
        """Drop the record and the locks of ``tx_id``: the one exit every
        terminal path takes (commit, purge, read-only commit; a crash drops
        them all at once).  A record's watchdog ends with it: the record's
        ``timer`` slot, where its protocol keeps one (ABP's, a plain write
        dict, keeps none), is cancelled here."""
        rec = self._live.pop(tx_id, None)
        timer = getattr(rec, "timer", None)
        if timer is not None:
            timer.cancel()
        self.locks.release_all(tx_id)

    def _install_commit(self, tx_id: str, writes: dict[str, Any], adopted: bool = False) -> None:
        """The commit tail at any site: install, discharge, tell the recorder.

        ``local`` only ever holds transactions homed here and drops them
        when terminal, so finding ``tx_id`` there means the client context
        is live.  Otherwise this is a cohort, or a home whose client context
        died with a crash: the group commits without the initiator, so
        record a provisional writer and the 1SR version order stays dense
        even if nobody ever records the full commit (the home's record,
        with the read set, upgrades it).  ``adopted``: the outcome was
        learned from the survivors and our store may be behind theirs —
        pass the recorder no versions and let it keep the cohorts'.
        """
        installed = self.install_writes(tx_id, writes)
        self._discharge(tx_id)
        tx = self.local.get(tx_id)
        if tx is not None:
            self.commit_home(tx, {} if adopted else installed)
        else:
            self.recorder.record_commit_provisional(tx_id, self.site, installed, self.now)

    def commit_home(self, tx: Transaction, installed: dict[str, int]) -> None:
        """Finish a committed update transaction at its home site."""
        tx.phase = TxPhase.COMMITTED
        tx.commit_time = self.now
        tx.writes_installed = dict(installed)
        self.recorder.record_commit(
            tx.tx_id, self.site, tx.observed_versions(), installed, self.now
        )
        self.metrics.tx_committed(tx, self.now)
        self.local.pop(tx.tx_id, None)
        self.public.discard(tx.tx_id)
        self.trace.emit(self.now, self.name, "tx.commit", tx=tx.tx_id)
        if self.on_complete is not None:
            self.on_complete(tx, True)

    def abort_home(self, tx: Transaction, reason: AbortReason) -> None:
        """Finish an aborted transaction at its home site."""
        if tx.terminal:
            return
        self.locks.release_all(tx.tx_id)
        self.wal.log_abort(tx.tx_id)
        self._complete_abort(tx, reason)

    def _complete_abort(self, tx: Transaction, reason: AbortReason) -> None:
        tx.phase = TxPhase.ABORTED
        tx.abort_reason = reason
        self.metrics.tx_aborted(tx, reason, self.now)
        self.local.pop(tx.tx_id, None)
        self.public.discard(tx.tx_id)
        self.trace.emit(
            self.now, self.name, "tx.abort", tx=tx.tx_id, reason=reason.value
        )
        if self.on_complete is not None:
            self.on_complete(tx, False)

    # -- local reader preemption (CBP rule c, DESIGN.md) ------------------------------

    def preempt_local_readers(self, key: str, exempt: str) -> list[str]:
        """Abort-and-restart local update transactions that only hold a read
        lock on ``key`` and have not broadcast anything yet.

        Such transactions are invisible to other sites, so aborting them is
        purely local.  Returns the preempted tx ids.  Read-only transactions
        are never preempted (the paper's guarantee); "public" update
        transactions are left to the protocol's conflict rules.
        """
        preempted: list[str] = []
        # detcheck: ignore[D104] — dict order here is lock-grant order, which
        # is deterministic in-run and is the order preemption must follow
        # (sorting by tx id would preempt in an arbitrary textual order).
        for holder, mode in list(self.locks.holders_of(key).items()):
            if holder == exempt or mode is not LockMode.SHARED:
                continue
            tx = self.local.get(holder)
            if tx is None or tx.read_only or holder in self.public:
                continue
            if tx.phase in (TxPhase.PENDING, TxPhase.READING, TxPhase.EXECUTING):
                self.metrics.local_reader_preemptions += 1
                self.abort_home(tx, AbortReason.READER_PREEMPTED)
                preempted.append(holder)
        return preempted

    # -- checkpointing ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Fold the redo log now (:meth:`WriteAheadLog.checkpoint`).

        The log folds itself every :data:`~repro.db.wal.CHUNK` rows, so it
        stays bounded without this; an explicit checkpoint only empties it
        sooner, at a cost of the rows logged since the last fold.  Local
        crash recovery is "load the last snapshot, apply the log's image,
        replay the (short) row tail" — verified by
        :meth:`rebuild_from_local_log`.
        """
        self.wal.checkpoint()
        self.checkpoints_taken += 1

    def install_snapshot(self, objects) -> None:
        """Adopt a received state-transfer snapshot as committed state and
        as the new local recovery point (snapshot + empty log and image)."""
        self.store.load_snapshot(objects)
        self._snapshot = tuple(objects)
        self.wal.truncate()
        self.checkpoints_taken += 1

    def rebuild_from_local_log(self) -> VersionedStore:
        """Reconstruct committed state from the recovery point — the last
        snapshot or the initial state, the WAL's image applied on top — and
        the WAL's rows (recovery fidelity check: the result must equal the
        live store)."""
        rebuilt = VersionedStore()
        if self._snapshot is not None:
            rebuilt.load_snapshot(self._snapshot)
        else:
            rebuilt.initialize(self.store.keys())
        image = self.wal.image
        rebuilt.load_snapshot(
            (key, version + image[key][0], image[key][1]) if key in image else (key, version, value)
            for key, version, value in rebuilt.export_snapshot()
        )
        self.wal.replay(rebuilt)
        return rebuilt

    # -- crash / recovery ------------------------------------------------------------

    def on_crash(self) -> None:
        """Fail-stop: volatile state (lock table, in-flight transactions)
        is lost.  The store and WAL survive, as on a real disk; recovery
        replaces the store with a snapshot anyway."""
        self.locks = LockManager()
        self.local.clear()
        self.public.clear()
        self._live.clear()

    def on_recovery_complete(self) -> None:
        """Hook invoked by the recovery agent right after the state-transfer
        snapshot is installed and ``recovering`` is cleared, *before* the
        router replays the traffic it held during the transfer: whatever a
        replayed delivery must find in place (ABP's total-order index) is
        set here.  The base replica has nothing to set."""

    def on_heal(self, donor: Replica) -> None:
        """Hook invoked when this site rejoins the primary component after a
        healed partition, once its store has caught up with ``donor``'s
        (``Cluster._state_transfer_into``).  The base replica has nothing
        more to adopt."""

    def export_protocol_state(self) -> Optional[dict]:
        """Protocol-private state a state-transfer donor ships alongside
        the committed-store snapshot (e.g. CBP's in-flight transaction
        books, ABP's causally pre-shipped write sets).  ``None`` means the
        committed snapshot plus broadcast-layer fast-forward is complete —
        true for the base replica.  A protocol that ships state defines
        ``adopt_protocol_state(state)``, which installs it on the rejoiner
        between the snapshot install and :meth:`on_recovery_complete`."""
        return None

    # -- introspection --------------------------------------------------------------

    def _ended(self, tx_id: str) -> bool:
        """True while ``tx_id`` has a tombstone: a late message naming it must
        find it ended.  Private: the benchmark tracer counts no lookup."""
        return tx_id in self._tombstones

    def in_flight(self) -> dict[str, list[str]]:
        """Per-transaction protocol state that must drain by quiescence, as
        residue label -> transaction ids (the post-run auditor reports any
        non-empty entry as a leak)."""
        live = self._live.items()
        return {
            label: [tx for tx, rec in live if held(rec)]
            for label, held in self.residue.items()
        }

    def in_doubt_transactions(self) -> tuple[str, ...]:
        """Transactions blocked on an outcome this site cannot compute
        (RBP's in-doubt query protocol), sorted.  The churn oracles sample
        this to bound in-doubt residency: a transaction stuck here longer
        than the configured limit means the query/park/restart machinery is
        wedged, not merely waiting."""
        return ()

    # -- view changes: one walk, three answers per protocol -------------------------

    def on_view_change(self, members: list[int], has_quorum: bool) -> None:
        """Adopt a new view (from the cluster's membership wiring), then ask
        the protocol's three hooks: :meth:`_quorum_lost` for each open update
        transaction homed here if the view is quorumless, then, per live
        record in first-touch order, :meth:`_rejudge` and, if the record is
        still live, :meth:`_home_left` (a tally the view completes decides
        first)."""
        self.view_members = sorted(members)
        self.view_member_set = frozenset(self.view_members)
        self.has_quorum = has_quorum
        if not has_quorum:
            # detcheck: ignore[D104] — self.local is insertion-ordered by tx
            # begin time (deterministic); a textual tx-id sort would change
            # the abort/in-doubt processing order the tests pin down.
            for tx in [t for t in self.local.values() if not (t.read_only or t.terminal)]:
                self._quorum_lost(tx)
        self._walk()

    def _walk(self) -> None:
        """Per live record in first-touch order: :meth:`_rejudge`, then, if
        the record is still live, :meth:`_home_left`."""
        for tx_id, rec in self._records():
            self._rejudge(tx_id, rec)
            if self._live.get(tx_id) is rec:
                self._home_left(tx_id, rec)

    def _records(self) -> Iterator[tuple[str, Any]]:
        """The live records in first-touch order, skipping discharged ones."""
        for tx_id, rec in list(self._live.items()):
            if self._live.get(tx_id) is rec:
                yield tx_id, rec

    def _quorum_lost(self, tx: Transaction) -> None:
        """``tx``, homed here and open, in a quorumless view.  Base: waits."""

    def _rejudge(self, tx_id: str, rec: Any) -> None:
        """Re-check ``rec``'s rounds and tallies against whom they hear from."""

    def _home_left(self, tx_id: str, rec: Any) -> None:
        """End ``rec`` if its home left the view.  Base: P2P and ABP records
        name no home (the home's own view change ends them)."""
