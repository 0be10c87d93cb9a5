"""Point-to-point ROWA with centralized two-phase commit (the baseline).

The classical replicated-database design the paper starts from: reads
acquire local locks incrementally, each write is sent point-to-point to
every site and waits (WAIT discipline) for the exclusive lock, and
commitment is a coordinator-driven two-phase commit (prepare -> votes ->
decision).

Because transactions wait while holding locks, deadlocks happen:

- **local** waits-for cycles are found by periodic cycle detection and
  resolved by aborting the youngest *update* transaction in the cycle;
- **distributed** cycles (invisible to any single site) are resolved by a
  write-acknowledgment timeout at the initiator (presumed deadlock).

Experiment E6 measures both against RBP's structural deadlock-freedom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.metrics import MetricsCollector
from repro.core.events import (
    P2pDecision,
    P2pPrepare,
    P2pVote,
    P2pWrite,
    P2pWriteAck,
)
from repro.core.replica import Replica
from repro.core.tally import Tally
from repro.core.transaction import AbortReason, Transaction, TxPhase
from repro.db.locks import LockMode
from repro.db.serialization import HistoryRecorder
from repro.net.router import ChannelRouter
from repro.sim.engine import EventHandle, SimulationEngine
from repro.sim.trace import TraceLog

CHANNEL = "p2p"


@dataclass
class _WriteRound:
    key: str
    acks: Tally = field(default_factory=Tally)
    timeout: Optional[EventHandle] = None


class PointToPointReplica(Replica):
    """One site running the point-to-point ROWA + centralized 2PC baseline."""

    def __init__(
        self,
        engine: SimulationEngine,
        site: int,
        num_sites: int,
        recorder: HistoryRecorder,
        metrics: MetricsCollector,
        trace: TraceLog,
        router: ChannelRouter,
        write_timeout: float = 200.0,
        deadlock_check_interval: float = 10.0,
    ):
        super().__init__(engine, site, num_sites, recorder, metrics, trace)
        self.router = router
        self.write_timeout = write_timeout
        self.deadlock_check_interval = deadlock_check_interval
        router.register(CHANNEL, self._on_message)
        self._handlers = {
            P2pWrite: self._on_write,
            P2pWriteAck: self._on_ack,
            P2pPrepare: self._on_prepare,
            P2pVote: self._on_vote,
            P2pDecision: self._on_decision,
        }
        self._buffered: dict[str, dict[str, Any]] = {}
        self._priority: dict[str, tuple] = {}
        self._finished: set[str] = set()
        # Home-side state.
        self._write_round: dict[str, _WriteRound] = {}
        self._write_queue: dict[str, list[tuple[str, Any]]] = {}
        self._votes: dict[str, Tally] = {}
        self.timeouts_fired = 0
        # detcheck: ignore[P203] — periodic deadlock sweep; reads only the
        # current waits-for graph, so a stale firing is a harmless no-op.
        self.schedule(deadlock_check_interval, self._deadlock_check)

    # -- submission: incremental (hold-and-wait) read locking ----------------------

    def submit(self, tx: Transaction) -> None:
        if not self.alive or self.recovering:
            self._complete_abort(tx, AbortReason.SITE_FAILURE)
            return
        if not tx.read_only and not self.has_quorum:
            self._complete_abort(tx, AbortReason.NO_QUORUM)
            return
        self.local[tx.tx_id] = tx
        self._priority[tx.tx_id] = tx.priority
        tx.phase = TxPhase.PENDING
        self.trace.emit(self.now, self.name, "tx.submit", tx=tx.tx_id)
        self._acquire_next_read(tx, 0)

    def _acquire_next_read(self, tx: Transaction, index: int) -> None:
        if tx.terminal:
            return
        keys = tx.spec.read_keys
        while index < len(keys):
            granted = self.locks.acquire(
                tx.tx_id,
                keys[index],
                LockMode.SHARED,
                lambda tx_id, key, tx=tx, nxt=index + 1: self._acquire_next_read(tx, nxt),
            )
            if not granted:
                return  # resume from the grant callback
            index += 1
        self._reads_granted(tx)

    # -- write dissemination ----------------------------------------------------------

    def start_update(self, tx: Transaction) -> None:
        self.public.add(tx.tx_id)
        self._write_queue[tx.tx_id] = list(tx.spec.writes)
        self._send_next_write(tx)

    def _send_next_write(self, tx: Transaction) -> None:
        if tx.terminal:
            return
        queue = self._write_queue.get(tx.tx_id, [])
        if not queue:
            self._start_2pc(tx)
            return
        key, value = queue.pop(0)
        round_ = _WriteRound(key)
        round_.timeout = self.schedule(
            self.write_timeout, self._write_timed_out, tx.tx_id, key
        )
        self._write_round[tx.tx_id] = round_
        write = P2pWrite(tx.tx_id, key, value, tx.priority)
        self._to_others(write)
        # Our own copy takes the local path: it draws nothing from the
        # network and, while the transaction is live, sends nothing.
        self._on_write(self.site, write)

    def _to_others(self, payload: Any) -> None:
        """One payload, sent once, to every other member of the view."""
        self.router.multicast(self.view_members, CHANNEL, payload, payload.kind)

    def _on_write(self, src: int, write: P2pWrite) -> None:
        if write.tx in self._finished:
            self._send_ack(src, write, ok=False)
            return
        self._priority[write.tx] = write.priority
        self._buffered.setdefault(write.tx, {})[write.key] = write.value
        granted = self.locks.acquire(
            write.tx,
            write.key,
            LockMode.EXCLUSIVE,
            lambda tx_id, key, src=src, write=write: self._send_ack(src, write, ok=True),
        )
        if granted:
            self._send_ack(src, write, ok=True)

    def _send_ack(self, home: int, write: P2pWrite, ok: bool) -> None:
        ack = P2pWriteAck(write.tx, write.key, self.site, ok)
        if home == self.site:
            self._on_ack(home, ack)
        else:
            self.router.send(home, CHANNEL, ack, ack.kind)

    def _on_ack(self, src: int, ack: P2pWriteAck) -> None:
        tx = self.local.get(ack.tx)
        round_ = self._write_round.get(ack.tx)
        if tx is None or round_ is None or round_.key != ack.key or tx.terminal:
            return
        if not ack.ok:
            self._abort_everywhere(tx, AbortReason.DEADLOCK)
            return
        round_.acks[ack.site] = True
        self._check_round(tx, round_)

    def _check_round(self, tx: Transaction, round_: _WriteRound) -> None:
        if round_.acks.complete(self.view_member_set):
            if round_.timeout is not None:
                round_.timeout.cancel()
            del self._write_round[tx.tx_id]
            self._send_next_write(tx)

    def _write_timed_out(self, tx_id: str, key: str) -> None:
        tx = self.local.get(tx_id)
        round_ = self._write_round.get(tx_id)
        if tx is None or round_ is None or round_.key != key or tx.terminal:
            return
        self.timeouts_fired += 1
        self.trace.emit(self.now, self.name, "p2p.timeout", tx=tx_id, key=key)
        self._abort_everywhere(tx, AbortReason.TIMEOUT)

    # -- centralized two-phase commit ----------------------------------------------------

    def _start_2pc(self, tx: Transaction) -> None:
        tx.phase = TxPhase.COMMITTING
        self._votes[tx.tx_id] = Tally({self.site: True})
        self._to_others(P2pPrepare(tx.tx_id))
        self._check_votes(tx)

    def _on_prepare(self, src: int, prepare: P2pPrepare) -> None:
        yes = prepare.tx in self._buffered and prepare.tx not in self._finished
        self.router.send(src, CHANNEL, P2pVote(prepare.tx, self.site, yes), "p2p.vote")

    def _on_vote(self, src: int, vote: P2pVote) -> None:
        tx = self.local.get(vote.tx)
        tally = self._votes.get(vote.tx)
        if tx is None or tally is None or tx.terminal:
            return
        tally[vote.site] = vote.yes
        self._check_votes(tx)

    def _check_votes(self, tx: Transaction) -> None:
        tally = self._votes.get(tx.tx_id)
        if tally is None or not tally.complete(self.view_member_set):
            return
        commit = tally.unanimous(self.view_member_set)
        del self._votes[tx.tx_id]
        self._to_others(P2pDecision(tx.tx_id, commit))
        if commit:
            self._apply_commit(tx.tx_id)
        else:
            self._purge(tx.tx_id)

    def _on_decision(self, src: int, decision: P2pDecision) -> None:
        if decision.commit:
            self._apply_commit(decision.tx)
        else:
            self._purge(decision.tx)

    def _apply_commit(self, tx_id: str) -> None:
        if tx_id in self._finished:
            return
        self._finished.add(tx_id)
        writes = self._buffered.pop(tx_id, {})
        installed = self.install_writes(tx_id, writes)
        self.locks.release_all(tx_id)
        self._priority.pop(tx_id, None)
        tx = self.local.get(tx_id)
        if tx is not None:
            self._write_queue.pop(tx_id, None)
            self.commit_home(tx, installed)
        else:
            # Cohort side (or a home whose client context died with a
            # crash): record a provisional writer so the 1SR version order
            # stays dense even if the initiator never records the commit.
            self.recorder.record_commit_provisional(tx_id, self.site, installed, self.now)

    def _abort_everywhere(self, tx: Transaction, reason: AbortReason) -> None:
        round_ = self._write_round.pop(tx.tx_id, None)
        if round_ is not None and round_.timeout is not None:
            round_.timeout.cancel()
        self._write_queue.pop(tx.tx_id, None)
        self._votes.pop(tx.tx_id, None)
        self._to_others(P2pDecision(tx.tx_id, False))
        self._purge(tx.tx_id, local_reason=reason)

    def _purge(self, tx_id: str, local_reason: AbortReason = AbortReason.DEADLOCK) -> None:
        if tx_id in self._finished:
            return
        self._finished.add(tx_id)
        self._buffered.pop(tx_id, None)
        self._priority.pop(tx_id, None)
        self.locks.release_all(tx_id)
        tx = self.local.get(tx_id)
        if tx is not None and not tx.terminal:
            self._write_queue.pop(tx_id, None)
            self.abort_home(tx, local_reason)

    def in_flight(self) -> dict[str, list[str]]:
        return {
            "buffered writes": list(self._buffered),
            "open write rounds": list(self._write_round),
            # An emptied queue stays until the transaction ends: not residue.
            "unsent writes": sorted(tx for tx, q in self._write_queue.items() if q),
            "open vote tallies": list(self._votes),
        }

    # -- view changes ---------------------------------------------------------------------

    def on_view_change(self, members: list[int], has_quorum: bool) -> None:
        """Re-evaluate rounds that wait on *all* view members.

        Write rounds and 2PC tallies complete only when every view member
        has answered.  A member that crashed out of the view will never
        answer, so without this hook a round started before the crash waits
        forever (its locks wedging every later writer of the same keys).  A
        member that *joined* mid-2PC never saw the prepare; re-send it —
        the joiner votes from its current (post-recovery) state, which is a
        NO for any transaction it does not hold buffered writes for.
        """
        super().on_view_change(members, has_quorum)
        for tx_id in sorted(self._write_round):
            tx = self.local.get(tx_id)
            if tx is None or tx.terminal:
                continue
            self._check_round(tx, self._write_round[tx_id])
            # A joined member missing this round's write never acks; the
            # write timeout aborts and the client retry re-disseminates.
        for tx_id in sorted(self._votes):
            tx = self.local.get(tx_id)
            if tx is None or tx.terminal:
                continue
            missing = self._votes[tx_id].missing(self.view_member_set)
            self.router.multicast(missing, CHANNEL, P2pPrepare(tx_id), "p2p.prepare")
            self._check_votes(tx)

    # -- deadlock detection ---------------------------------------------------------------

    def _deadlock_check(self) -> None:
        cycle = self.locks.find_cycle()
        if cycle:
            victim = self._pick_victim(cycle)
            if victim is not None:
                self.metrics.deadlocks_detected += 1
                self.trace.emit(
                    self.now, self.name, "p2p.deadlock", victim=victim, cycle=len(cycle)
                )
                self._resolve_victim(victim)
        # detcheck: ignore[P203] — periodic sweep reschedule (see __init__).
        self.schedule(self.deadlock_check_interval, self._deadlock_check)

    def _pick_victim(self, cycle: list) -> Optional[str]:
        """Youngest update transaction in the cycle (read-only spared)."""
        candidates = []
        for tx_id in cycle:
            local_tx = self.local.get(tx_id)
            if local_tx is not None and local_tx.read_only:
                continue
            priority = self._priority.get(tx_id)
            if priority is not None:
                candidates.append((priority, tx_id))
        if not candidates:
            return None
        return max(candidates)[1]

    def _resolve_victim(self, victim: str) -> None:
        tx = self.local.get(victim)
        if tx is not None:
            # Local transaction: we are its home; abort it globally.
            self._abort_everywhere(tx, AbortReason.DEADLOCK)
            return
        # Remote transaction: the home site is not encoded in the tx id,
        # so broadcast-decline -- withdraw its lock state here and send the
        # abort decision to every other member, its home among them.
        self.locks.release_all(victim)
        self._to_others(P2pDecision(victim, False))
        self._purge(victim)

    # -- message dispatch ---------------------------------------------------------------------

    # 2PC installs on decision messages; a rejoiner's buffered/voted state
    # is dropped on crash and the recovery agent's settle window (serve
    # delay) separates the snapshot install from resumed traffic.  E13
    # churn-soak oracles (1SR + convergence) cover this baseline too.
    # detcheck: ignore[H403]
    def _on_message(self, src: int, payload: Any) -> None:
        handler = self._handlers.get(type(payload))
        if handler is None:
            raise RuntimeError(f"site {self.site}: unexpected p2p payload {payload!r}")
        handler(src, payload)
