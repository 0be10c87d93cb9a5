"""RBP: the Reliable Broadcast-based Protocol (paper, section 3).

Execution of an update transaction T homed at site *h*:

1. Read locks are acquired locally at *h* (all-or-nothing) and the reads
   execute.
2. Each write operation is **reliably broadcast**, one at a time; every
   site attempts the exclusive lock with a **no-wait** discipline and sends
   an explicit point-to-point acknowledgment back to *h*.  T "remains
   blocked until acknowledgments have been received from all sites"; a
   negative acknowledgment aborts T (the initiator broadcasts an abort).
3. After all writes are acknowledged everywhere, T commits with a
   **decentralized two-phase commit** [Ske82]: *h* broadcasts a commit
   request; every site broadcasts its vote to every site; each site decides
   locally (commit iff every view member voted yes) — so all sites reach
   the decision without a coordinator round-trip.

Deadlock freedom: remote writes never wait (conflict => negative ack), and
read acquisition is all-or-nothing, so no transaction ever waits while
holding a lock another waiter needs — there are no waits-for cycles.  The
``wound_local_readers`` option (ablation E10) lets a broadcast write displace
local update transactions that have not yet broadcast anything, instead of
aborting the (much more expensive to restart) remote writer.

Read-only transactions commit locally, broadcast nothing, and are never
aborted.

A site keeps one :class:`_TxRecord` per live transaction on the base
replica's lifecycle (``_live``, ``_discharge``, ``_install_commit``; see
PROTOCOLS.md, "Shared mechanics").  What a YES-voting cohort does once it
can no longer compute the outcome — decision log, decision queries — is
:mod:`repro.core.rbp_termination`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.analysis.metrics import MetricsCollector
from repro.broadcast.message import BroadcastMessage
from repro.broadcast.reliable import ReliableBroadcast
from repro.core.events import (
    RbpAbort,
    RbpCommitRequest,
    RbpDecisionAnswer,
    RbpDecisionQuery,
    RbpVote,
    RbpVoteBatch,
    RbpWrite,
    RbpWriteAck,
    RbpWriteAckBatch,
)
from repro.core.rbp_termination import InDoubtTermination
from repro.core.replica import Replica
from repro.core.tally import Tally
from repro.core.transaction import AbortReason, Transaction, TxPhase
from repro.db.locks import LockMode
from repro.db.serialization import HistoryRecorder
from repro.net.router import ChannelRouter
from repro.sim.engine import SimulationEngine
from repro.sim.outbox import Outbox, by_destination
from repro.sim.trace import TraceLog

DIRECT_CHANNEL = "rbp.direct"


@dataclass(slots=True)
class _TxRecord:
    """Everything one site holds for one live transaction, opened on first
    touch: the home's ``start_update``, else the first granted write, vote
    or commit request delivered."""

    #: The initiating site; -1 while only other sites' votes were seen.
    home: int = -1
    #: Cohort side (every site, the home included): the granted,
    #: lock-holding writes awaiting the outcome, and the 2PC vote tally,
    #: opened by the first vote or commit request delivered.
    writes: dict[str, Any] = field(default_factory=dict)
    votes: Optional[Tally] = None
    request_seen: bool = False
    voted_yes: bool = False
    #: Consecutive orphan-grace periods the tally spent stalled with the
    #: home still a view member (see :meth:`_check_orphan`'s escalation).
    stalled_waits: int = 0
    #: When a remote home's write was last heard (drives the presumed-abort
    #: watchdog); ``None`` once the query path owns termination.
    heard: Optional[float] = None
    #: Handed over to in-doubt termination: the vote path is renounced.
    in_doubt: bool = False
    #: Home side: in-flight acknowledgment rounds (key -> acks), the writes
    #: not yet broadcast (sequential mode), and the last write-phase
    #: progress (round opened or positive ack), which re-arms the watchdog.
    rounds: dict[str, Tally] = field(default_factory=dict)
    unsent: list[tuple[str, Any]] = field(default_factory=list)
    progress: float = 0.0


class ReliableBroadcastReplica(Replica):
    """One site running RBP."""

    #: Presumed abort [Ske82]: a buffered remote write whose home has sent
    #: neither further writes nor a commit request for this long is dropped
    #: and its locks freed (see :meth:`_check_orphan`).  Far above any
    #: healthy write-round latency, even with ARQ retransmissions.
    orphan_grace = 1000.0

    #: Home-side mirror of the orphan watchdog: a write phase still waiting
    #: for acknowledgments after this long has lost a datagram for good (a
    #: transient partition shorter than the detector timeout drops messages
    #: without ever changing the view, and the *passthrough* transport never
    #: retransmits).  Abort retryably instead of blocking the client
    #: forever (see :meth:`_check_write_progress`).  With ARQ links
    #: (``reliable_links=True`` or ``loss_rate > 0``) the transport repairs
    #: such losses well inside this grace period, so the watchdog is a
    #: last-resort backstop there and ``rbp_write_timeouts`` stays ~0 — the
    #: E12 loss sweep asserts exactly that.
    write_grace = 1000.0

    #: In-doubt termination: the base wait for answers to a decision query
    #: (ms; grows linearly up to 4x), the rounds before the query parks
    #: until the next view change, and the bound on the decision log.
    decision_query_timeout = 60.0
    decision_query_attempts = 8
    decision_log_capacity = 1024

    residue = {
        "buffered writes": lambda rec: rec.writes,
        "open write rounds": lambda rec: rec.rounds,
        "unsent writes": lambda rec: rec.unsent,
        "open vote tallies": lambda rec: rec.votes is not None,
        "live orphan watchdogs": lambda rec: rec.heard is not None,
    }

    def __init__(
        self,
        engine: SimulationEngine,
        site: int,
        num_sites: int,
        recorder: HistoryRecorder,
        metrics: MetricsCollector,
        trace: TraceLog,
        rbcast: ReliableBroadcast,
        router: ChannelRouter,
        wound_local_readers: bool = False,
        pipeline_writes: bool = False,
        group_commit: bool = False,
    ):
        super().__init__(engine, site, num_sites, recorder, metrics, trace)
        self.rbcast = rbcast
        self.router = router
        self.wound_local_readers = wound_local_readers
        #: Group commit: votes cast (and write acks owed per home) at one
        #: simulation instant ride one frame instead of one each.
        self.group_commit = group_commit
        self._vote_outbox = Outbox(engine, self._flush_votes)
        self._ack_outbox = Outbox(engine, self._flush_acks)
        #: Ablation (E10): broadcast every write at once instead of the
        #: paper's one-blocked-round-per-write; latency stops growing
        #: linearly in the write count at unchanged message cost.
        self.pipeline_writes = pipeline_writes
        rbcast.set_deliver(self._on_broadcast)
        # Served during a state transfer: decision queries read only the
        # durable decision log (which survived the crash and the install
        # never clobbers), and parked in-doubt survivors may be waiting on
        # precisely this rejoiner's log — holding them would stall their
        # adoption past the donor's export, recreating the stale-snapshot
        # race for them.
        router.register(DIRECT_CHANNEL, self._on_direct, during_transfer=True)
        #: In-doubt termination (decision queries, see PROTOCOLS.md), owner
        #: of the durable decision log and prepare records.
        self.termination = InDoubtTermination(
            site,
            num_sites,
            multicast=lambda query: router.multicast(
                self.view_members, DIRECT_CHANNEL, query, query.kind
            ),
            send=self._send_direct,
            view=lambda: (self.view_member_set, self.has_quorum),
            schedule=engine.schedule,
            knows=self._knows,
            resolved=self._terminated,
            emit=self._emit,
            metrics=metrics,
            query_timeout=self.decision_query_timeout,
            query_attempts=self.decision_query_attempts,
            log_capacity=self.decision_log_capacity,
        )

    def _emit(self, event: str, **fields: Any) -> None:
        self.trace.emit(self.now, self.name, event, **fields)

    def _send_direct(self, site: int, payload: Any) -> None:
        self.router.send(site, DIRECT_CHANNEL, payload, payload.kind)

    # -- home side --------------------------------------------------------------

    def start_update(self, tx: Transaction) -> None:
        self.public.add(tx.tx_id)
        rec = self._live[tx.tx_id] = _TxRecord(home=self.site, unsent=list(tx.spec.writes))
        self.engine.schedule(self.write_grace, self._check_write_progress, tx.tx_id)
        self._advance(tx, rec)

    def _advance(self, tx: Transaction, rec: _TxRecord) -> None:
        """The home's next step: open the next write round (all of them at
        once when pipelining), or start 2PC once no round is left open."""
        if tx.terminal:
            return
        while rec.unsent:
            key, value = rec.unsent.pop(0)
            rec.rounds[key] = Tally()
            rec.progress = self.now
            self.rbcast.broadcast(RbpWrite(tx.tx_id, self.site, key, value, tx.priority))
            if not self.pipeline_writes:
                return
        if rec.rounds:
            return
        # All writes acknowledged everywhere: start decentralized 2PC.
        tx.phase = TxPhase.COMMITTING
        self.rbcast.broadcast(RbpCommitRequest(tx.tx_id, self.site))
        self.engine.schedule(self.write_grace, self._check_vote_progress, tx.tx_id)

    def _on_ack(self, ack: RbpWriteAck) -> None:
        tx = self.local.get(ack.tx)
        rec = self._live.get(ack.tx)
        if tx is None or rec is None or ack.key not in rec.rounds or tx.terminal:
            return
        if not ack.ok:
            self._emit("rbp.negative_ack", tx=ack.tx, key=ack.key, by=ack.site)
            self._abort_everywhere(tx, AbortReason.WRITE_CONFLICT)
            return
        rec.rounds[ack.key][ack.site] = True
        rec.progress = self.now
        self._check_round(tx, rec, ack.key)

    def _check_round(self, tx: Transaction, rec: _TxRecord, key: str) -> None:
        if rec.rounds[key].complete(self.view_member_set):
            del rec.rounds[key]
            self._advance(tx, rec)

    def _check_write_progress(self, tx_id: str) -> None:
        """Write-phase watchdog, re-armed on every sign of progress.

        A round can stall without any view change breaking the wait (see
        ``write_grace``).  The timeout is *per quiet period*, not per
        transaction: each new round and each positive ack refreshes the
        record's ``progress``, so a healthy multi-write transaction whose
        rounds are merely slow is never aborted while acknowledgments keep
        arriving — only a full ``write_grace`` with no progress at all gives
        up (retryably; the no-wait locks make retries cheap).  The votes
        path has its own termination (:meth:`_check_vote_progress`,
        view-filtered tallies, decision queries), so this only covers the
        pre-2PC write phase.
        """
        tx = self.local.get(tx_id)
        rec = self._live.get(tx_id)
        if tx is None or tx.terminal or rec is None or not (rec.rounds or rec.unsent):
            return  # answered, or write phase finished: 2PC owns termination now
        due = rec.progress + self.write_grace
        if self.now < due - 1e-9:
            self.engine.schedule(due - self.now, self._check_write_progress, tx_id)
            return
        self.metrics.rbp_write_timeouts += 1
        self._emit("rbp.write_timeout", tx=tx_id)
        self._abort_everywhere(tx, AbortReason.VIEW_LOSS)

    def _check_vote_progress(self, tx_id: str) -> None:
        """Vote-phase watchdog at the home (armed when 2PC starts).

        A transient partition shorter than the failure-detector timeout can
        swallow votes without ever changing the view; the home's tally then
        stalls forever, it answers every decision query "pending", and the
        client is never answered.  Re-broadcast the commit request — the
        decision-log / tombstone short-circuits in
        :meth:`_on_commit_request` make re-delivery idempotent: decided
        sites re-broadcast their decided vote, undecided sites re-vote
        exactly as before — and keep watching until the tally resolves or a
        view change hands the transaction to the abort/query path.
        """
        tx = self.local.get(tx_id)
        rec = self._live.get(tx_id)
        if tx is None or tx.terminal or rec is None or rec.in_doubt:
            return  # answered, or the query path owns termination now
        if tx.phase is not TxPhase.COMMITTING:
            return
        self.metrics.rbp_vote_retries += 1
        self._emit("rbp.vote_retry", tx=tx_id)
        self.rbcast.broadcast(RbpCommitRequest(tx_id, self.site))
        self.engine.schedule(self.write_grace, self._check_vote_progress, tx_id)

    def _abort_everywhere(self, tx: Transaction, reason: AbortReason) -> None:
        self.rbcast.broadcast(RbpAbort(tx.tx_id))
        self.abort_home(tx, reason)
        # Local cleanup for our own copy (the record, open rounds and all)
        # happens via the broadcast's self-delivery (_purge), like at every
        # other site; until then ``local`` lacks it, so acks are ignored.

    # -- broadcast deliveries (every site, including the home) ---------------------

    def _on_broadcast(self, message: BroadcastMessage) -> None:
        payload = message.payload
        if isinstance(payload, RbpWrite):
            self._on_write(payload)
        elif isinstance(payload, RbpCommitRequest):
            self._on_commit_request(payload)
        elif isinstance(payload, RbpVote):
            self._on_vote(payload)
        elif isinstance(payload, RbpVoteBatch):
            # Group commit: tally each constituent as if it arrived alone.
            for vote in payload.votes:
                self._on_vote(vote)
        elif isinstance(payload, RbpAbort):
            # Initiator-driven: an authoritative outcome, not a presumption.
            self._purge(payload.tx, authoritative=True)
        else:
            raise RuntimeError(f"site {self.site}: unexpected RBP payload {payload!r}")

    def _on_write(self, write: RbpWrite) -> None:
        rec = self._live.get(write.tx)
        if rec is None and (
            self._ended(write.tx) or write.tx in self.termination.decisions
        ):
            # Already locally aborted (abort broadcast, or the presumed-abort
            # watchdog below), or already decided — traffic held during a
            # state transfer can hold writes of transactions whose outcome
            # arrived with the snapshot's decision log: negative-ack instead of
            # staying silent so a home that is still alive aborts rather
            # than blocking on us.
            self._send_ack(write, ok=False)
            return
        granted = self.locks.try_acquire(write.tx, write.key, LockMode.EXCLUSIVE)
        if not granted and self.wound_local_readers and self._wound_local_holders(write):
            granted = self.locks.try_acquire(write.tx, write.key, LockMode.EXCLUSIVE)
        if granted:
            if rec is None:
                rec = self._live[write.tx] = _TxRecord()
            rec.home = write.home
            rec.writes[write.key] = write.value
            if write.home != self.site:
                if rec.heard is None:
                    self.engine.schedule(self.orphan_grace, self._check_orphan, write.tx)
                rec.heard = self.now
        self._send_ack(write, ok=granted)

    def _check_orphan(self, tx_id: str) -> None:
        """Presumed-abort watchdog for a remote-homed buffered write.

        A partition can strand a home site where no new view ever forms at
        the write-holding sites (the membership coordinator is on the other
        side), leaving its buffered writes pinning exclusive locks forever.
        If the home has sent neither a write nor a commit request for
        ``orphan_grace``, no site has voted for the transaction, so no site
        can commit it: drop the buffer and free the locks.  A home that was
        merely slow gets a negative ack / no vote on its next message and
        aborts-and-retries.
        """
        rec = self._live.get(tx_id)
        if rec is None or rec.heard is None:
            return  # terminated, or the query path owns termination now
        if rec.request_seen:
            # 2PC reached this site; the vote/decision path owns the state.
            if rec.home not in self.view_member_set:
                self._lost_home(tx_id, rec)  # before the tally completed
                return
            # The home is still a member, so the vote path owns the wait —
            # make it observable, and keep watching: a partition the failure
            # detector never turns into a view change can have dropped the
            # missing votes for good (the passthrough transport never
            # retransmits).  After a second full grace period with the tally
            # still stalled, stop waiting and ask.
            self.metrics.rbp_in_doubt_waits += 1
            self._emit("rbp.in_doubt_wait", tx=tx_id, home=rec.home)
            if rec.voted_yes and rec.stalled_waits:
                self._enter_in_doubt(tx_id, rec)
                return
            rec.stalled_waits += 1
            self.engine.schedule(self.orphan_grace, self._check_orphan, tx_id)
            return
        due = rec.heard + self.orphan_grace
        if self.now < due - 1e-9:
            self.engine.schedule(due - self.now, self._check_orphan, tx_id)
            return
        self._emit("rbp.presume_abort", tx=tx_id)
        self._purge(tx_id)

    def _wound_local_holders(self, write: RbpWrite) -> bool:
        """Wound-wait flavour (ablation E10): instead of negative-acking the
        already-half-replicated remote writer, this site aborts its *own*
        younger update transactions whose locks are in the way — safe while
        they are still disseminating writes (we are their home and have not
        cast a 2PC vote for them, so no site can have committed them)."""
        wounded = False
        for holder in self.locks.conflicting_holders(write.tx, write.key, LockMode.EXCLUSIVE):
            victim = self.local.get(holder)
            if (
                victim is not None
                and not victim.read_only
                and victim.phase is TxPhase.EXECUTING
                and victim.priority > write.priority
            ):
                self.metrics.local_reader_preemptions += 1
                self._emit("rbp.wound", victim=holder, by=write.tx)
                self._abort_everywhere(victim, AbortReason.READER_PREEMPTED)
                wounded = True
        return wounded

    def _send_ack(self, write: RbpWrite, ok: bool) -> None:
        ack = RbpWriteAck(write.tx, write.key, self.site, ok)
        if write.home == self.site:
            self._on_ack(ack)
        elif self.group_commit:
            self._ack_outbox.put((write.home, ack))
        else:
            self._send_direct(write.home, ack)

    def _flush_acks(self, owed: list[tuple[int, RbpWriteAck]]) -> None:
        if not self.alive:
            return
        for home, acks in by_destination(owed):
            self._send_direct(home, acks[0] if len(acks) == 1 else RbpWriteAckBatch(tuple(acks)))

    def _cast_vote(self, tx_id: str, yes: bool) -> None:
        vote = RbpVote(tx_id, self.site, yes)
        if self.group_commit:
            self._vote_outbox.put(vote)
        else:
            self.rbcast.broadcast(vote)

    def _flush_votes(self, votes: list[RbpVote]) -> None:
        if not self.alive:
            return
        self.rbcast.broadcast(votes[0] if len(votes) == 1 else RbpVoteBatch(tuple(votes)))

    def _on_commit_request(self, request: RbpCommitRequest) -> None:
        rec = self._live.get(request.tx)
        if rec is None:
            decided = self.termination.decisions.get(request.tx)
            if decided is not None or self._ended(request.tx):
                # The outcome is already logged here (a duplicate or delayed
                # request): re-broadcast the decided vote so a still-tallying
                # site converges, but do not reopen any local state.  Or it
                # was locally aborted already (an abort raced the request, or
                # the presumed-abort watchdog fired): vote no so the home
                # learns to abort instead of waiting for a vote that will
                # never arrive.
                self._cast_vote(request.tx, bool(decided))
                return
            rec = self._live[request.tx] = _TxRecord()
        if rec.votes is None:
            rec.votes = Tally()
        rec.request_seen = True
        rec.home = request.home
        # We acknowledged every write (otherwise an abort would have
        # arrived), so we hold the locks and vote yes; a site that lost the
        # transaction's state (e.g. it crashed and recovered) votes no.
        yes = bool(rec.writes) or request.home == self.site
        rec.voted_yes = yes
        if yes:
            # Durable prepare record, force-written before the vote leaves
            # (``InDoubtTermination.prepared`` says why).
            self.termination.prepare(request.tx)
        self._cast_vote(request.tx, yes)
        self._check_votes(request.tx, rec)

    def _on_vote(self, vote: RbpVote) -> None:
        rec = self._live.get(vote.tx)
        if rec is None:
            if self._ended(vote.tx) or vote.tx in self.termination.decisions:
                # Terminated here already (committed via votes or an adopted
                # decision, or aborted).  A straggler vote — e.g. one that
                # crawled over a slow link after a decision query resolved
                # the transaction — must not re-open a tally.
                return
            rec = self._live[vote.tx] = _TxRecord()
        if rec.votes is None:
            rec.votes = Tally()
        rec.votes[vote.site] = vote.yes
        self._check_votes(vote.tx, rec)

    def _check_votes(self, tx_id: str, rec: _TxRecord) -> None:
        if not rec.request_seen:
            return
        if rec.in_doubt:
            # In-doubt: entering the query path renounces the vote path.
            # Deciding here from stragglers while a query round is already
            # collecting answers could contradict the adopted outcome.
            return
        if not self.has_quorum:
            # A minority view must never decide: unanimity over a quorumless
            # member set can "commit" a transaction the majority side then
            # contradicts (and silently undoes at the healing state
            # transfer).  Our own transactions are aborted by the view
            # change; remote state waits for the home or the orphan watchdog.
            return
        if not rec.votes.complete(self.view_member_set):
            return
        if rec.votes.unanimous(self.view_member_set):
            self._commit(tx_id)
        else:
            # A quorum tally with a NO vote: an authoritative abort.
            self._purge(tx_id, authoritative=True)

    # -- the terminal paths ----------------------------------------------------------

    def _commit(self, tx_id: str, adopted: bool = False) -> None:
        """Install the buffered writes and release the locks: the tally
        completed unanimously, or (``adopted``) a decision query learned
        the commit from a survivor's log — at the home that is home-side
        in-doubt: we were partitioned away mid-2PC."""
        rec = self._live.get(tx_id)
        self._install_commit(tx_id, rec.writes if rec is not None else {}, adopted)
        self.termination.record(tx_id, committed=True)
        self._emit("rbp.applied", tx=tx_id)

    def _purge(self, tx_id: str, authoritative: bool = False) -> None:
        """Abort cleanup at any site: locks, record, in-doubt state.  An
        ``authoritative`` outcome (the home's abort broadcast, a quorum
        tally with a NO vote) is logged for later queriers."""
        tx = self.local.get(tx_id)
        if tx is not None:
            # Still open at its home, here: a NO in the tally, or a home-side
            # in-doubt transaction resolved as abort.  (An abort broadcast
            # never finds it open: the home finishes the client first.)
            self.abort_home(tx, AbortReason.VIEW_LOSS)
        if authoritative:
            self.termination.record(tx_id, committed=False)
        self._tombstones[tx_id] = None  # kept for good (DESIGN.md, "Tombstones")
        self._discharge(tx_id)
        self.termination.close(tx_id)

    # -- in-doubt termination: the host side of rbp_termination's seam -------------

    def _lost_home(self, tx_id: str, rec: _TxRecord, trace: bool = True) -> bool:
        """The home left the view with its 2PC open here.  A cohort that
        voted YES becomes in-doubt (True; the outcome may exist at the
        survivors — query for it; in a minority view the query parks until
        the heal); anything else is presumed aborted: its initiator can no
        longer drive 2PC to completion, and without this site's YES no view
        containing it can have reached a unanimous tally."""
        if rec.voted_yes and rec.writes and tx_id not in self.local:
            self._enter_in_doubt(tx_id, rec)
            return True
        if trace:
            self._emit("rbp.presume_abort", tx=tx_id)
        self._purge(tx_id)
        return False

    def _enter_in_doubt(self, tx_id: str, rec: _TxRecord) -> None:
        """We voted YES and lost the home: hand the transaction over.  The
        query may resolve — and discharge ``rec`` — before this returns."""
        rec.in_doubt = True
        rec.heard = None
        self.termination.hand_over(tx_id)

    def _terminated(self, tx_id: str, outcome: str) -> None:
        """What comes back.  ``commit``: install the buffered writes and
        release the locks, exactly as a vote-decided cohort commit would.
        ``abort`` (already logged) / ``presumed``: purge."""
        if outcome == "commit":
            self._commit(tx_id, adopted=True)
        else:
            self._purge(tx_id)

    def _knows(self, tx_id: str) -> Optional[tuple[str, bool]]:
        """What this site's volatile books say about a transaction its log
        has no entry for: (outcome, voted_yes), or ``None`` for "nothing".
        ``InDoubtTermination._answer`` states the promise ``False`` makes."""
        if tx_id in self.local:
            # We are the home and still driving 2PC: promise the outcome.
            return "pending", True
        rec = self._live.get(tx_id)
        if rec is None or not (rec.request_seen or rec.writes):
            return ("presumed", False) if self._ended(tx_id) else None
        if rec.home in self.view_member_set:
            # Live tally (or write phase) that can still decide; push the
            # outcome later.
            return "pending", rec.voted_yes
        # Home gone.  If we voted YES we are in doubt ourselves — the orphan
        # watchdog would get here eventually; enter now so the vote path is
        # renounced and a straggling tally can never contradict this answer.
        # If we voted NO (votes never change), or hold buffered writes we
        # never voted for, presume abort *now*, so this answer is a promise
        # we can never break by committing later.
        return ("unknown", True) if self._lost_home(tx_id, rec) else ("presumed", False)

    def in_doubt_transactions(self) -> tuple[str, ...]:
        return tuple(sorted(tx for tx, rec in self._live.items() if rec.in_doubt))

    def in_flight(self) -> dict[str, list[str]]:
        return {**super().in_flight(), **self.termination.in_flight()}

    # -- direct (point-to-point) deliveries ----------------------------------------

    def _on_direct(self, src: int, payload: Any) -> None:
        if isinstance(payload, RbpWriteAck):
            self._on_ack(payload)
        elif isinstance(payload, RbpWriteAckBatch):
            # Group commit: tally each constituent as if it arrived alone.
            for ack in payload.acks:
                self._on_ack(ack)
        elif isinstance(payload, RbpDecisionQuery):
            self.termination.on_query(payload)
        elif isinstance(payload, RbpDecisionAnswer):
            self.termination.on_answer(payload)
        else:
            raise RuntimeError(f"site {self.site}: unexpected direct payload {payload!r}")

    # -- crash / recovery ---------------------------------------------------------------

    def on_crash(self) -> None:
        # Classic presumed-abort 2PC durability: before the volatile vote
        # tallies are lost, force a prepare record for every YES vote whose
        # outcome this site does not know, so that after recovery it never
        # denies the vote (``InDoubtTermination.prepared`` says why).
        for tx_id, rec in self._live.items():
            if rec.request_seen and rec.voted_yes:
                self.termination.prepare(tx_id)
        super().on_crash()
        # Group-commit outboxes are volatile, lost with the site.
        self._vote_outbox.clear()
        self._ack_outbox.clear()
        self.termination.crash()

    def export_protocol_state(self) -> Optional[dict]:
        """The decision log (tx -> committed?), so a rejoiner can answer —
        and terminate — decision queries for outcomes reached while it was
        down."""
        return {"decision_log": tuple(self.termination.decisions.items())}

    def adopt_protocol_state(self, state: dict) -> None:
        """Replay a donor's decision log after adopting its store snapshot.

        The snapshot already reflects every decided transaction, so any
        residual in-doubt or buffered state for a logged transaction is
        discharged *without* re-installing writes or re-purging into the
        abort books — only the locks and trackers are dropped.  A logged
        commit overrides a locally presumed abort (a logged commit really
        happened; the presumption was only ever a default), and a still-open
        *local* transaction of ours in the log — we were the home, got
        partitioned away mid-2PC, and the majority decided without us — is
        completed toward the client with the logged outcome.
        """
        resolved = self.termination.adopt_log(state["decision_log"])
        for tx_id, committed in resolved.items():
            tx = self.local.get(tx_id)
            if tx is None and tx_id not in self._live:
                continue
            self._discharge(tx_id)
            if tx is not None and not tx.terminal:
                if committed:
                    # The adopted snapshot already holds the writes; finish
                    # the client side without re-installing them.  The
                    # cohorts' provisional record keeps the version order.
                    self.commit_home(tx, {})
                else:
                    self.abort_home(tx, AbortReason.VIEW_LOSS)

    # -- view changes ----------------------------------------------------------------

    def _records(self) -> Iterator[tuple[str, _TxRecord]]:
        """The live records in first-touch order, skipping any that an
        earlier step of the same pass discharged."""
        for tx_id, rec in list(self._live.items()):
            if self._live.get(tx_id) is rec:
                yield tx_id, rec

    def on_view_change(self, members: list[int], has_quorum: bool) -> None:
        super().on_view_change(members, has_quorum)
        view = self.view_member_set
        if not has_quorum:
            # Minority view: our in-flight updates can never be decided here
            # (see _check_votes) and submit() refuses new ones.  Abort them
            # now so clients get a final NO_QUORUM outcome instead of
            # waiting on a heal that may never come — EXCEPT transactions
            # already prepared (commit request broadcast, votes cast): a
            # majority on the other side of the partition can still commit
            # those from the votes it holds, so a unilateral abort here
            # would contradict it.  A prepared home is in doubt like any
            # other cohort: park a decision query and resolve at the heal.
            # detcheck: ignore[D104] — self.local is insertion-ordered by tx
            # begin time (deterministic); a textual tx-id sort would change
            # the abort/in-doubt processing order the tests pin down.
            for tx in [t for t in self.local.values() if not t.read_only]:
                if tx.terminal:
                    continue
                rec = self._live.get(tx.tx_id)
                if rec is not None and rec.request_seen:
                    self._enter_in_doubt(tx.tx_id, rec)
                else:
                    self._abort_everywhere(tx, AbortReason.NO_QUORUM)
        # Each pass below walks the live records in first-touch order.  The
        # passes stay separate because the order of their effects is protocol
        # behaviour: every round and tally settles against the new view
        # before any departed home is judged, and new queries go out before
        # the standing ones restart.
        # 1. Write rounds: acks are now needed only from surviving members.
        for tx_id, rec in self._records():
            tx = self.local.get(tx_id)
            if tx is not None:
                for key in list(rec.rounds):
                    self._check_round(tx, rec, key)
        # 2. Vote tallies: forget departed voters.
        for tx_id, rec in self._records():
            if rec.votes is not None:
                rec.votes.restrict(view)
                self._check_votes(tx_id, rec)
        # 3. Transactions in 2PC whose home departed: in doubt, or purged.
        fresh_queries: set[str] = set()
        for tx_id, rec in self._records():
            if not rec.request_seen or rec.home in view:
                continue
            if rec.in_doubt:
                continue  # already querying; restarted below
            if self._lost_home(tx_id, rec, trace=False):
                fresh_queries.add(tx_id)
        # 4. Open queries restart against the new view, except those just
        # sent against it.
        self.termination.view_changed(skip=fresh_queries)
        # 5. Buffered writes with no vote state and no local owner belong
        # to transactions whose home may have died pre-2PC; drop them if
        # the home left the view: this site never voted for them, so no
        # view containing this site can have committed them.
        for tx_id, rec in self._records():
            if (
                rec.votes is None
                and rec.writes
                and tx_id not in self.local
                and rec.home not in view
            ):
                self._emit("rbp.drop_orphan", tx=tx_id)
                self._purge(tx_id)
