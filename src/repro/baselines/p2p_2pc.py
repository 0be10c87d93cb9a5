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


@dataclass(slots=True)
class _TxRecord:
    """Everything one site holds for one live transaction."""

    #: Deadlock-victim rank: the home's at submit, a cohort's from the write.
    priority: tuple
    #: Cohort side (every site, the home included): the buffered writes,
    #: each holding or queued for its exclusive lock.
    writes: dict[str, Any] = field(default_factory=dict)
    #: Home side: the writes not yet sent, the one open acknowledgment round
    #: (its key, acks and timeout, all ``None`` between rounds) and, once
    #: 2PC starts, the vote tally.
    unsent: list[tuple[str, Any]] = field(default_factory=list)
    round_key: Optional[str] = None
    acks: Optional[Tally] = None
    timeout: Optional[EventHandle] = None
    votes: Optional[Tally] = None


class PointToPointReplica(Replica):
    """One site running the point-to-point ROWA + centralized 2PC baseline."""

    residue = {
        "buffered writes": lambda rec: rec.writes,
        "open write rounds": lambda rec: rec.round_key is not None,
        "unsent writes": lambda rec: rec.unsent,
        "open vote tallies": lambda rec: rec.votes is not None,
    }

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
        router.register(CHANNEL, self._on_message)
        self._handlers = {
            P2pWrite: self._on_write,
            P2pWriteAck: self._on_ack,
            P2pPrepare: self._on_prepare,
            P2pVote: self._on_vote,
            P2pDecision: self._on_decision,
        }
        self.timeouts_fired = 0
        self.every(deadlock_check_interval, self._deadlock_check)

    # -- submission: incremental (hold-and-wait) read locking ----------------------

    def submit(self, tx: Transaction) -> None:
        if not self.alive or self.recovering:
            self._complete_abort(tx, AbortReason.SITE_FAILURE)
            return
        if not tx.read_only and not self.has_quorum:
            self._complete_abort(tx, AbortReason.NO_QUORUM)
            return
        self.local[tx.tx_id] = tx
        self._live[tx.tx_id] = _TxRecord(tx.priority)
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
        rec = self._live[tx.tx_id]
        rec.unsent = list(tx.spec.writes)
        self._send_next_write(tx, rec)

    def _send_next_write(self, tx: Transaction, rec: _TxRecord) -> None:
        if tx.terminal:
            return
        if not rec.unsent:
            self._start_2pc(tx, rec)
            return
        key, value = rec.unsent.pop(0)
        rec.round_key, rec.acks = key, Tally()
        rec.timeout = self.schedule(self.write_timeout, self._write_timed_out, tx.tx_id, key)
        write = P2pWrite(tx.tx_id, key, value, tx.priority)
        self._to_others(write)
        # Our own copy takes the local path: it draws nothing from the
        # network and, while the transaction is live, sends nothing.
        self._on_write(self.site, write)

    def _to_others(self, payload: Any) -> None:
        """One payload, sent once, to every other member of the view."""
        self.router.multicast(self.view_members, CHANNEL, payload, payload.kind)

    def _on_write(self, src: int, write: P2pWrite) -> None:
        if self._ended(write.tx):
            self._tombstones[write.tx] = src  # the coordinator, now known
            self._send_ack(src, write, ok=False)
            return
        rec = self._live.get(write.tx)
        if rec is None:
            rec = self._live[write.tx] = _TxRecord(write.priority)
        rec.writes[write.key] = write.value
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
        rec = self._live.get(ack.tx)
        if tx is None or rec is None or rec.round_key != ack.key or tx.terminal:
            return
        if not ack.ok:
            self._abort_everywhere(tx, AbortReason.DEADLOCK)
            return
        rec.acks[ack.site] = True
        self._check_round(tx, rec)

    def _check_round(self, tx: Transaction, rec: _TxRecord) -> None:
        if rec.acks.complete(self.view_member_set):
            rec.timeout.cancel()
            rec.round_key = rec.acks = rec.timeout = None
            self._send_next_write(tx, rec)

    def _write_timed_out(self, tx_id: str, key: str) -> None:
        tx = self.local.get(tx_id)
        rec = self._live.get(tx_id)
        if tx is None or rec is None or rec.round_key != key or tx.terminal:
            return
        self.timeouts_fired += 1
        self.trace.emit(self.now, self.name, "p2p.timeout", tx=tx_id, key=key)
        self._abort_everywhere(tx, AbortReason.TIMEOUT)

    # -- centralized two-phase commit ----------------------------------------------------

    def _start_2pc(self, tx: Transaction, rec: _TxRecord) -> None:
        tx.phase = TxPhase.COMMITTING
        rec.votes = Tally({self.site: True})
        self._to_others(P2pPrepare(tx.tx_id))
        self._check_votes(tx, rec)

    def _on_prepare(self, src: int, prepare: P2pPrepare) -> None:
        # Yes iff we still buffer its writes: a site that finished it, or
        # lost the record in a crash, holds none.
        rec = self._live.get(prepare.tx)
        yes = rec is not None and bool(rec.writes)
        self.router.send(src, CHANNEL, P2pVote(prepare.tx, self.site, yes), "p2p.vote")

    def _on_vote(self, src: int, vote: P2pVote) -> None:
        tx = self.local.get(vote.tx)
        rec = self._live.get(vote.tx)
        if tx is None or rec is None or rec.votes is None or tx.terminal:
            return
        rec.votes[vote.site] = vote.yes
        self._check_votes(tx, rec)

    def _check_votes(self, tx: Transaction, rec: _TxRecord) -> None:
        if not rec.votes.complete(self.view_member_set):
            return
        decision = P2pDecision(tx.tx_id, rec.votes.unanimous(self.view_member_set))
        self._to_others(decision)
        self._on_decision(self.site, decision)  # our own copy: the local path

    def _on_decision(self, src: int, decision: P2pDecision) -> None:
        if decision.commit and not self._ended(decision.tx):
            rec = self._live.get(decision.tx)
            self._install_commit(decision.tx, rec.writes if rec is not None else {})
        else:  # an abort, or the commit of one purged here first: it stays aborted
            self._purge(decision.tx, src)

    # -- the terminal paths -----------------------------------------------------------------

    def _discharge(self, tx_id: str) -> None:
        """Also disarms the write timeout of a round still open."""
        rec = self._live.get(tx_id)
        if rec is not None and rec.timeout is not None:
            rec.timeout.cancel()
        super()._discharge(tx_id)

    def _abort_everywhere(self, tx: Transaction, reason: AbortReason) -> None:
        self._to_others(P2pDecision(tx.tx_id, False))
        self._purge(tx.tx_id, self.site, local_reason=reason)

    def _purge(
        self, tx_id: str, decider: int, local_reason: AbortReason = AbortReason.DEADLOCK
    ) -> None:
        """Abort cleanup on ``decider``'s decision.  The tombstone holds the
        coordinator (``None`` until known), whose decision retires it; the
        coordinator needs none (DESIGN.md, "Tombstones")."""
        rec = self._live.get(tx_id)
        # A priority is (first submit time, home, name).
        home = rec.priority[1] if rec is not None else self._tombstones.get(tx_id)
        if home == decider or home == self.site:
            self._tombstones.pop(tx_id, None)
        else:
            self._tombstones[tx_id] = home
        self._discharge(tx_id)
        tx = self.local.get(tx_id)
        if tx is not None and not tx.terminal:
            self.abort_home(tx, local_reason)

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
        # An earlier step of a pass can end a later transaction: look up anew.
        for tx_id in sorted(self._live):
            tx, rec = self.local.get(tx_id), self._live.get(tx_id)
            if tx is not None and rec is not None and rec.round_key is not None:
                self._check_round(tx, rec)
            # A joined member missing this round's write never acks; the
            # write timeout aborts and the client retry re-disseminates.
        for tx_id in sorted(self._live):
            tx, rec = self.local.get(tx_id), self._live.get(tx_id)
            if tx is not None and rec is not None and rec.votes is not None:
                missing = rec.votes.missing(self.view_member_set)
                self.router.multicast(missing, CHANNEL, P2pPrepare(tx_id), "p2p.prepare")
                self._check_votes(tx, rec)

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

    def _pick_victim(self, cycle: list) -> Optional[str]:
        """Youngest update transaction in the cycle (read-only spared)."""
        candidates = []
        for tx_id in cycle:
            local_tx = self.local.get(tx_id)
            if local_tx is not None and local_tx.read_only:
                continue
            rec = self._live.get(tx_id)
            if rec is not None:
                candidates.append((rec.priority, tx_id))
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
        # so broadcast-decline -- withdraw its state here (first: the
        # release can grant a queued writer, whose ack goes out ahead of
        # the decline) and send the abort decision to every other member,
        # its home among them.
        self._purge(victim, self.site)
        self._to_others(P2pDecision(victim, False))

    # -- message dispatch ---------------------------------------------------------------------

    def _on_message(self, src: int, payload: Any) -> None:
        handler = self._handlers.get(type(payload))
        if handler is None:
            raise RuntimeError(f"site {self.site}: unexpected p2p payload {payload!r}")
        handler(src, payload)
