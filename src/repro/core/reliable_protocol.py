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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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


@dataclass
class _WriteRound:
    """Home-side state for one in-flight broadcast write."""

    key: str
    acks: Tally = field(default_factory=Tally)


@dataclass
class _VoteState:
    """Per-site tally of decentralized 2PC votes for one transaction."""

    home: int
    votes: Tally = field(default_factory=Tally)
    request_seen: bool = False
    decided: bool = False
    voted_yes: bool = False
    #: Consecutive orphan-grace periods the tally spent stalled with the
    #: home still a view member (see :meth:`_check_orphan`'s escalation).
    stalled_waits: int = 0


@dataclass
class _QueryState:
    """Querier-side state of one in-doubt decision query."""

    attempt: int = 0
    #: Generation token: bumped whenever a view change restarts the query,
    #: so timers armed for a pre-restart attempt can never fire into the
    #: restarted query (the (epoch, attempt) pair is checked together).
    epoch: int = 0
    #: True while retries are exhausted or the view has no quorum; a view
    #: change restarts a parked query against the new membership.
    parked: bool = False
    #: site -> (outcome, voted_yes), reset at every (re)send.
    answers: dict[int, tuple[str, bool]] = field(default_factory=dict)


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
        router.register(DIRECT_CHANNEL, self._on_direct)
        # Shared (all sites): buffered write values of in-flight transactions.
        self._buffered: dict[str, dict[str, Any]] = {}
        self._finished: set[str] = set()
        self._votes: dict[str, _VoteState] = {}
        # Remote-homed buffered transactions: who homes them, and when we
        # last heard a write for them (drives the presumed-abort watchdog).
        self._write_homes: dict[str, int] = {}
        self._write_seen: dict[str, float] = {}
        # Home-side only: in-flight acknowledgment rounds per (tx, key),
        # and the writes not yet broadcast (sequential mode).
        self._write_round: dict[str, dict[str, _WriteRound]] = {}
        self._write_queue: dict[str, list[tuple[str, Any]]] = {}
        # In-doubt termination (decision queries, see PROTOCOLS.md):
        # bounded log of authoritative outcomes, open queries at this site,
        # and remote queriers promised a push of a still-pending outcome.
        self._decisions: dict[str, bool] = {}
        self._queries: dict[str, _QueryState] = {}
        self._query_waiters: dict[str, set[int]] = {}
        #: Durable prepare records [Ske82]: transactions this site voted YES
        #: for, force-written before the vote leaves, erased once the
        #: outcome is known.  Survives crashes (like the store and WAL), so
        #: a recovered site never denies a YES vote a departed member may
        #: have built a commit tally from.
        self._prepared: set[str] = set()
        #: Broadcast deliveries deferred while a state transfer is in
        #: flight, replayed (in delivery order) from
        #: :meth:`on_recovery_complete`.  Applying them live would race the
        #: snapshot install: the donor exports its store, a write commits at
        #: both donor and rejoiner, then the (stale) snapshot lands and
        #: silently rolls the rejoiner back.
        self._recovery_backlog: list[BroadcastMessage] = []
        # Home-side: last write-phase progress (new round opened or positive
        # ack landed) per transaction, driving the write watchdog's re-arm.
        self._write_progress: dict[str, float] = {}

    # -- home side --------------------------------------------------------------

    def start_update(self, tx: Transaction) -> None:
        self.public.add(tx.tx_id)
        self._write_progress[tx.tx_id] = self.now
        self.engine.schedule(self.write_grace, self._check_write_progress, tx.tx_id)
        self._write_round[tx.tx_id] = {}
        if self.pipeline_writes:
            self._write_queue[tx.tx_id] = []
            for key, value in tx.spec.writes:
                self._write_round[tx.tx_id][key] = _WriteRound(key)
                self.rbcast.broadcast(
                    RbpWrite(tx.tx_id, self.site, key, value, tx.priority)
                )
        else:
            self._write_queue[tx.tx_id] = list(tx.spec.writes)
            self._send_next_write(tx)

    def _send_next_write(self, tx: Transaction) -> None:
        if tx.terminal:
            return
        queue = self._write_queue.get(tx.tx_id, [])
        if not queue:
            self._maybe_start_2pc(tx)
            return
        key, value = queue.pop(0)
        self._write_round[tx.tx_id] = {key: _WriteRound(key)}
        self._write_progress[tx.tx_id] = self.now
        self.rbcast.broadcast(RbpWrite(tx.tx_id, self.site, key, value, tx.priority))

    def _maybe_start_2pc(self, tx: Transaction) -> None:
        if self._write_round.get(tx.tx_id) or self._write_queue.get(tx.tx_id):
            return
        # All writes acknowledged everywhere: start decentralized 2PC.
        self._write_progress.pop(tx.tx_id, None)
        tx.phase = TxPhase.COMMITTING
        self.rbcast.broadcast(RbpCommitRequest(tx.tx_id, self.site))
        self.engine.schedule(self.write_grace, self._check_vote_progress, tx.tx_id)

    def _on_ack(self, ack: RbpWriteAck) -> None:
        tx = self.local.get(ack.tx)
        rounds = self._write_round.get(ack.tx)
        round_ = rounds.get(ack.key) if rounds is not None else None
        if tx is None or round_ is None or tx.terminal:
            return
        if not ack.ok:
            self.trace.emit(
                self.now, self.name, "rbp.negative_ack", tx=ack.tx, key=ack.key, by=ack.site
            )
            self._abort_everywhere(tx, AbortReason.WRITE_CONFLICT)
            return
        round_.acks[ack.site] = True
        self._write_progress[ack.tx] = self.now
        self._check_round(tx, round_)

    def _check_round(self, tx: Transaction, round_: _WriteRound) -> None:
        if round_.acks.complete(self.view_member_set):
            rounds = self._write_round.get(tx.tx_id)
            if rounds is not None:
                rounds.pop(round_.key, None)
                if not rounds:
                    del self._write_round[tx.tx_id]
            self._send_next_write(tx)

    def _check_write_progress(self, tx_id: str) -> None:
        """Write-phase watchdog, re-armed on every sign of progress.

        A round can stall without any view change breaking the wait: a
        partition shorter than the detector timeout swallows the write (or
        its ack) to a peer that stays in the view, and the passthrough
        transport never retransmits (ARQ links repair this long before the
        grace period runs out).
        The timeout is *per quiet period*, not per transaction: each new
        round and each positive ack refreshes ``_write_progress``, so a
        healthy multi-write transaction whose rounds are merely slow is
        never aborted while acknowledgments keep arriving — only a full
        ``write_grace`` with no progress at all gives up (retryably; the
        no-wait locks make retries cheap).  The votes path has its own
        termination (:meth:`_check_vote_progress`, view-filtered tallies,
        decision queries), so this only covers the pre-2PC write phase.
        """
        tx = self.local.get(tx_id)
        if tx is None or tx.terminal:
            self._write_progress.pop(tx_id, None)
            return
        if not (self._write_round.get(tx_id) or self._write_queue.get(tx_id)):
            self._write_progress.pop(tx_id, None)
            return  # write phase finished; 2PC owns termination now
        due = self._write_progress.get(tx_id, self.now) + self.write_grace
        if self.now < due - 1e-9:
            self.engine.schedule(due - self.now, self._check_write_progress, tx_id)
            return
        self.metrics.rbp_write_timeouts += 1
        self.trace.emit(self.now, self.name, "rbp.write_timeout", tx=tx_id)
        self._abort_everywhere(tx, AbortReason.VIEW_LOSS)

    def _check_vote_progress(self, tx_id: str) -> None:
        """Vote-phase watchdog at the home (armed when 2PC starts).

        A transient partition shorter than the failure-detector timeout can
        swallow votes without ever changing the view; the home's tally then
        stalls forever, it answers every decision query "pending", and the
        client is never answered.  Re-broadcast the commit request — the
        ``_decisions``/``_finished`` short-circuits in
        :meth:`_on_commit_request` make re-delivery idempotent: decided
        sites re-broadcast their decided vote, undecided sites re-vote
        exactly as before — and keep watching until the tally resolves or a
        view change hands the transaction to the abort/query path.
        """
        tx = self.local.get(tx_id)
        if tx is None or tx.terminal or tx_id in self._queries:
            return  # answered, or the query path owns termination now
        state = self._votes.get(tx_id)
        if state is None or state.decided or tx.phase is not TxPhase.COMMITTING:
            return
        self.metrics.rbp_vote_retries += 1
        self.trace.emit(self.now, self.name, "rbp.vote_retry", tx=tx_id)
        self.rbcast.broadcast(RbpCommitRequest(tx_id, self.site))
        self.engine.schedule(self.write_grace, self._check_vote_progress, tx_id)

    def _abort_everywhere(self, tx: Transaction, reason: AbortReason) -> None:
        self._write_round.pop(tx.tx_id, None)
        self._write_queue.pop(tx.tx_id, None)
        self._write_progress.pop(tx.tx_id, None)
        self.rbcast.broadcast(RbpAbort(tx.tx_id))
        self.abort_home(tx, reason)
        # Local cleanup for our own copy happens via the broadcast's
        # self-delivery (_purge), like at every other site.

    # -- broadcast deliveries (every site, including the home) ---------------------

    def _on_broadcast(self, message: BroadcastMessage) -> None:
        if self.recovering:
            # Defer store-touching traffic until the snapshot is installed.
            # This is safe for liveness: any commit this site's silence
            # blocks needs our write ack (the home's view included us when
            # it broadcast), so the home simply stays blocked until the
            # replay acks — and necessary for safety: a write applied now
            # would be clobbered by the in-flight snapshot, diverging this
            # replica for good.  Decision queries are the exception: they
            # read only the durable decision log (which survived the crash
            # and is never clobbered by the install), and parked in-doubt
            # survivors may be waiting on precisely this rejoiner's log —
            # deferring them would stall their adoption past the donor's
            # snapshot export, recreating the stale-snapshot race for them.
            if not isinstance(message.payload, RbpDecisionQuery):
                self._recovery_backlog.append(message)
                return
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
            self._record_decision(payload.tx, committed=False)
            self._purge(payload.tx)
        elif isinstance(payload, RbpDecisionQuery):
            self._on_query(payload)
        else:
            raise RuntimeError(f"site {self.site}: unexpected RBP payload {payload!r}")

    def _on_write(self, write: RbpWrite) -> None:
        if write.tx in self._finished or write.tx in self._decisions:
            # Already locally aborted (abort broadcast, or the presumed-abort
            # watchdog below), or already decided — a replayed post-recovery
            # backlog can hold writes of transactions whose outcome arrived
            # with the snapshot's decision log: negative-ack instead of
            # staying silent so a home that is still alive aborts rather
            # than blocking on us.
            self._send_ack(write, ok=False)
            return
        granted = self.locks.try_acquire(write.tx, write.key, LockMode.EXCLUSIVE)
        if not granted and self.wound_local_readers:
            wounded = self._wound_local_holders(write)
            if wounded:
                granted = self.locks.try_acquire(write.tx, write.key, LockMode.EXCLUSIVE)
        if granted:
            self._buffered.setdefault(write.tx, {})[write.key] = write.value
            if write.home != self.site:
                self._write_homes[write.tx] = write.home
                fresh = write.tx not in self._write_seen
                self._write_seen[write.tx] = self.now
                if fresh:
                    self.engine.schedule(self.orphan_grace, self._check_orphan, write.tx)
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
        last = self._write_seen.get(tx_id)
        if last is None or tx_id not in self._buffered:
            self._write_seen.pop(tx_id, None)
            return
        state = self._votes.get(tx_id)
        if state is not None and state.request_seen:
            # 2PC reached this site; the vote/decision path owns the state.
            if state.decided or tx_id in self._queries:
                self._write_seen.pop(tx_id, None)
                return
            if state.home not in self.view_members:
                # The home departed before the tally completed.  A YES vote
                # makes us in-doubt (the survivors may know the outcome —
                # in a minority view the query simply parks until the heal);
                # without one, no site can have committed: presume abort.
                self._write_seen.pop(tx_id, None)
                if state.voted_yes and tx_id not in self.local:
                    self._enter_in_doubt(tx_id)
                else:
                    self.trace.emit(self.now, self.name, "rbp.presume_abort", tx=tx_id)
                    self._purge(tx_id)
                return
            # The home is still a member, so the vote path owns the wait —
            # make it observable, and keep watching: a partition the failure
            # detector never turns into a view change can have dropped the
            # missing votes for good (the passthrough transport never
            # retransmits).  After a second full grace period with the tally
            # still stalled, stop waiting and ask.
            self.metrics.rbp_in_doubt_waits += 1
            self.trace.emit(
                self.now, self.name, "rbp.in_doubt_wait", tx=tx_id, home=state.home
            )
            if state.voted_yes and state.stalled_waits:
                self._write_seen.pop(tx_id, None)
                self._enter_in_doubt(tx_id)
                return
            state.stalled_waits += 1
            self.engine.schedule(self.orphan_grace, self._check_orphan, tx_id)
            return
        due = last + self.orphan_grace
        if self.now < due - 1e-9:
            self.engine.schedule(due - self.now, self._check_orphan, tx_id)
            return
        self.trace.emit(self.now, self.name, "rbp.presume_abort", tx=tx_id)
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
                self.trace.emit(
                    self.now, self.name, "rbp.wound", victim=holder, by=write.tx
                )
                self._abort_everywhere(victim, AbortReason.READER_PREEMPTED)
                wounded = True
        return wounded

    def _send_ack(self, write: RbpWrite, ok: bool) -> None:
        ack = RbpWriteAck(write.tx, write.key, self.site, ok)
        if write.home == self.site:
            self._on_ack(ack)
            return
        if not self.group_commit:
            self.router.send(write.home, DIRECT_CHANNEL, ack, ack.kind)
            return
        self._ack_outbox.put((write.home, ack))

    def _flush_acks(self, owed: list[tuple[int, RbpWriteAck]]) -> None:
        if not self.alive:
            return
        for home, acks in by_destination(owed):
            if len(acks) == 1:
                self.router.send(home, DIRECT_CHANNEL, acks[0], acks[0].kind)
            else:
                batch = RbpWriteAckBatch(tuple(acks))
                self.router.send(home, DIRECT_CHANNEL, batch, batch.kind)

    def _cast_vote(self, tx_id: str, yes: bool) -> None:
        vote = RbpVote(tx_id, self.site, yes)
        if not self.group_commit:
            self.rbcast.broadcast(vote)
            return
        self._vote_outbox.put(vote)

    def _flush_votes(self, votes: list[RbpVote]) -> None:
        if not self.alive:
            return
        if len(votes) == 1:
            self.rbcast.broadcast(votes[0])
        else:
            self.rbcast.broadcast(RbpVoteBatch(tuple(votes)))

    def _on_commit_request(self, request: RbpCommitRequest) -> None:
        decided = self._decisions.get(request.tx)
        if decided is not None:
            # The outcome is already logged here (a duplicate or delayed
            # request): re-broadcast the decided vote so a still-tallying
            # site converges, but do not reopen any local state.
            self._cast_vote(request.tx, decided)
            return
        if request.tx in self._finished:
            # Locally aborted already (an abort raced the request, or the
            # presumed-abort watchdog fired): vote no so the home learns to
            # abort instead of waiting for a vote that will never arrive.
            self._cast_vote(request.tx, False)
            return
        state = self._votes.setdefault(request.tx, _VoteState(request.home))
        state.request_seen = True
        state.home = request.home
        # We acknowledged every write (otherwise an abort would have
        # arrived), so we hold the locks and vote yes; a site that lost the
        # transaction's state (e.g. it crashed and recovered) votes no.
        yes = request.tx in self._buffered or request.home == self.site
        state.voted_yes = yes
        if yes:
            # Durable prepare record, force-written before the vote leaves:
            # even after a crash this site must never deny a YES vote that a
            # departed member may have completed a commit tally with.
            self._prepared.add(request.tx)
        self._cast_vote(request.tx, yes)
        self._check_votes(request.tx)

    def _on_vote(self, vote: RbpVote) -> None:
        if vote.tx in self._finished or vote.tx in self._decisions:
            # Terminated here already (committed via votes or an adopted
            # decision, or aborted).  A straggler vote — e.g. one that
            # crawled over a slow link after a decision query resolved the
            # transaction — must not re-open a tally.
            return
        state = self._votes.setdefault(vote.tx, _VoteState(home=-1))
        state.votes[vote.site] = vote.yes
        self._check_votes(vote.tx)

    def _check_votes(self, tx_id: str) -> None:
        state = self._votes.get(tx_id)
        if state is None or state.decided or not state.request_seen:
            return
        if tx_id in self._queries:
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
        if not state.votes.complete(self.view_member_set):
            return
        state.decided = True
        if state.votes.unanimous(self.view_member_set):
            self._commit_local(tx_id, state)
        else:
            tx = self.local.get(tx_id)
            if tx is not None and state.home == self.site:
                self._write_queue.pop(tx_id, None)
                self.abort_home(tx, AbortReason.VIEW_LOSS)
            # A quorum tally with a NO vote: an authoritative abort.
            self._record_decision(tx_id, committed=False)
            self._purge(tx_id)

    def _commit_local(self, tx_id: str, state: _VoteState) -> None:
        writes = self._buffered.pop(tx_id, {})
        installed = self.install_writes(tx_id, writes)
        self.locks.release_all(tx_id)
        self._votes.pop(tx_id, None)
        self._write_homes.pop(tx_id, None)
        self._write_seen.pop(tx_id, None)
        if state.home == self.site:
            tx = self.local.get(tx_id)
            if tx is not None:
                self._write_queue.pop(tx_id, None)
                self.commit_home(tx, installed)
        else:
            # A cohort commit may be the only one the recorder ever hears
            # about (the home can crash after casting its vote); record the
            # installed versions so the 1SR graph keeps a writer for them.
            # The home's full record (with the read set) upgrades this.
            self.recorder.record_commit_provisional(
                tx_id, self.site, installed, self.now
            )
        self._record_decision(tx_id, committed=True)
        self.trace.emit(self.now, self.name, "rbp.applied", tx=tx_id)

    def _commit_remote(self, tx_id: str) -> None:
        """Adopt a commit outcome learned through a decision query: install
        the buffered writes and release the locks, exactly as a vote-decided
        cohort commit would."""
        writes = self._buffered.pop(tx_id, {})
        installed = self.install_writes(tx_id, writes)
        self.locks.release_all(tx_id)
        self._votes.pop(tx_id, None)
        self._write_homes.pop(tx_id, None)
        self._write_seen.pop(tx_id, None)
        tx = self.local.get(tx_id)
        if tx is not None and not tx.terminal:
            # Our own transaction, adopted back from the survivors (home-side
            # in-doubt: we were partitioned away mid-2PC).  The cohorts that
            # committed recorded the authoritative versions (provisional
            # record); our store may be behind the majority's, so pass no
            # writes and let the recorder keep the cohort's versions.
            self._write_queue.pop(tx_id, None)
            self.commit_home(tx, {})
        else:
            self.recorder.record_commit_provisional(tx_id, self.site, installed, self.now)
        self._record_decision(tx_id, committed=True)
        self.trace.emit(self.now, self.name, "rbp.applied", tx=tx_id)

    def _purge(self, tx_id: str) -> None:
        """Abort cleanup at any site: locks, buffers, vote state."""
        self._finished.add(tx_id)
        self._buffered.pop(tx_id, None)
        self._votes.pop(tx_id, None)
        self._write_homes.pop(tx_id, None)
        self._write_seen.pop(tx_id, None)
        self._queries.pop(tx_id, None)
        # Purge happens only on a learned outcome or a provably-safe
        # presumption, so the durable prepare record may be erased with it.
        self._prepared.discard(tx_id)
        self.locks.release_all(tx_id)
        self._notify_waiters(tx_id, "presumed")
        self._gc_decisions()
        tx = self.local.get(tx_id)
        if tx is not None and not tx.terminal:
            # Abort broadcast raced our own bookkeeping (shouldn't happen:
            # only the home broadcasts aborts).  Finish it locally.
            self._write_queue.pop(tx_id, None)
            self.abort_home(tx, AbortReason.WRITE_CONFLICT)

    # -- in-doubt termination (decision queries) -----------------------------------
    #
    # A cohort that voted YES holds exclusive locks it may not release until
    # it learns the outcome; when the home departs the view mid-2PC the vote
    # path can no longer deliver one.  The cohort then broadcasts a
    # RbpDecisionQuery and adopts the first authoritative answer from the
    # surviving members' decision logs, falling back to presumed abort only
    # when every member of a majority view answers that it does not know
    # the transaction (then nobody can have committed it).

    def _record_decision(self, tx_id: str, committed: bool) -> None:
        """Append an authoritative outcome to the bounded decision log and
        push it to any querier we promised a pending answer."""
        self._prepared.discard(tx_id)  # outcome known: the prepare record goes
        if tx_id not in self._decisions:
            self._decisions[tx_id] = committed
            self._gc_decisions()
        self._notify_waiters(tx_id, "commit" if committed else "abort")

    def _gc_decisions(self) -> None:
        """Watermark GC: evict the oldest outcomes beyond the capacity.
        Evicted outcomes are forgotten — queries
        about such ancient transactions get "unknown", which is safe as
        long as in-doubt cohorts query within the retention window (they
        do: a query starts at most one view change after the 2PC round)."""
        while len(self._decisions) > self.decision_log_capacity:
            del self._decisions[next(iter(self._decisions))]

    def _notify_waiters(self, tx_id: str, outcome: str) -> None:
        waiters = self._query_waiters.pop(tx_id, None)
        if not waiters:
            return
        for site in sorted(waiters):
            if site == self.site:
                continue
            answer = RbpDecisionAnswer(tx_id, self.site, outcome)
            self.metrics.rbp_decision_answers += 1
            self.router.send(site, DIRECT_CHANNEL, answer, answer.kind)

    def export_decision_log(self) -> tuple[tuple[str, bool], ...]:
        """Snapshot of the decision log, for state transfer to a rejoiner."""
        return tuple(self._decisions.items())

    def adopt_decision_log(self, entries) -> None:
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
        # Resolve each entry's outcome up front (donor's entry merged with
        # any local record): the capacity GC below may evict an entry just
        # adopted, and the discharge loop must not then read the post-GC map
        # and abort a transaction the majority actually committed.
        resolved: dict[str, bool] = {}
        for tx_id, committed in entries:
            committed = bool(committed)
            prior = self._decisions.get(tx_id)
            if prior is None:
                self._decisions[tx_id] = committed
            elif committed and not prior:
                self._decisions[tx_id] = True
            resolved[tx_id] = committed or bool(prior)
            self._prepared.discard(tx_id)
            self._notify_waiters(tx_id, "commit" if committed else "abort")
        self._gc_decisions()
        for tx_id in resolved:
            if not (
                tx_id in self._buffered
                or tx_id in self._votes
                or tx_id in self._queries
                or tx_id in self.local
            ):
                continue
            committed = resolved[tx_id]
            self._queries.pop(tx_id, None)
            self._buffered.pop(tx_id, None)
            self._votes.pop(tx_id, None)
            self._write_homes.pop(tx_id, None)
            self._write_seen.pop(tx_id, None)
            self.locks.release_all(tx_id)
            tx = self.local.get(tx_id)
            if tx is not None and not tx.terminal:
                self._write_queue.pop(tx_id, None)
                self._write_round.pop(tx_id, None)
                if committed:
                    # The adopted snapshot already holds the writes; finish
                    # the client side without re-installing them.  The
                    # cohorts' provisional record keeps the version order.
                    self.commit_home(tx, {})
                else:
                    self.abort_home(tx, AbortReason.VIEW_LOSS)

    def in_doubt_transactions(self) -> tuple[str, ...]:
        """Transactions currently parked in the in-doubt query protocol,
        sorted.  The churn oracles sample this to bound in-doubt residency:
        a transaction stuck here longer than the configured limit means the
        query/park/restart machinery is wedged, not merely waiting."""
        return tuple(sorted(self._queries))

    def _enter_in_doubt(self, tx_id: str) -> None:
        """A YES-voting cohort lost its home: start the query protocol."""
        if tx_id in self._queries:
            return
        self.metrics.rbp_in_doubt += 1
        self._queries[tx_id] = _QueryState()
        self.trace.emit(self.now, self.name, "rbp.in_doubt", tx=tx_id)
        self._send_query(tx_id)

    def _send_query(self, tx_id: str) -> None:
        query = self._queries.get(tx_id)
        if query is None:
            return
        query.attempt += 1
        query.parked = False
        # Seed our own answer: we are in doubt, so "unknown" — and we voted
        # YES, so our own answer can never witness a presumption.
        query.answers = {self.site: ("unknown", True)}
        self.metrics.rbp_decision_queries += 1
        self.trace.emit(
            self.now, self.name, "rbp.decision_query", tx=tx_id, attempt=query.attempt
        )
        self.rbcast.broadcast(RbpDecisionQuery(tx_id, self.site, query.attempt))
        self.engine.schedule(
            self.decision_query_timeout * min(query.attempt, 4),
            self._query_timeout,
            tx_id,
            query.epoch,
            query.attempt,
        )
        self._check_query(tx_id)  # a single-member view resolves immediately

    def _query_timeout(self, tx_id: str, epoch: int, attempt: int) -> None:
        query = self._queries.get(tx_id)
        if query is None or query.parked:
            return
        if query.epoch != epoch or query.attempt != attempt:
            # Stale timer: a later attempt superseded it, or a view-change
            # restart reset the attempt counter (the epoch catches timers
            # from before the restart that would otherwise alias the
            # restarted attempt and burn through the retry budget early).
            return
        if query.attempt >= self.decision_query_attempts:
            # Answers may be lost to a partition the failure detector has
            # not yet turned into a view change; park until the next view.
            query.parked = True
            self.trace.emit(self.now, self.name, "rbp.query_parked", tx=tx_id)
            return
        self._send_query(tx_id)

    def _on_query(self, query: RbpDecisionQuery) -> None:
        if query.site == self.site:
            return  # broadcast self-delivery; the querier seeded its answer
        outcome, voted_yes = self._local_outcome(query.tx, query.site)
        self.metrics.rbp_decision_answers += 1
        answer = RbpDecisionAnswer(query.tx, self.site, outcome, voted_yes)
        self.router.send(query.site, DIRECT_CHANNEL, answer, answer.kind)

    def _local_outcome(self, tx_id: str, querier: int) -> tuple[str, bool]:
        """This site's answer to a decision query: (outcome, voted_yes).

        Safety contract: an answer of ``unknown``/``presumed`` with
        ``voted_yes=False`` is a *promise* that this site never voted YES
        for the transaction and never will — every branch below that
        returns one either has provably never voted (no buffered writes
        means any late commit request draws a NO vote) or renounces future
        participation on the spot (purge / ``_finished``).
        """
        decided = self._decisions.get(tx_id)
        if decided is not None:
            return ("commit" if decided else "abort"), False
        if tx_id in self._queries:
            # In doubt ourselves (we voted YES); our eventual resolution is
            # pushed to the querier but carries no authority on its own.
            self._query_waiters.setdefault(tx_id, set()).add(querier)
            return "unknown", True
        if tx_id in self.local:
            # We are the home and still driving 2PC: promise the outcome.
            self._query_waiters.setdefault(tx_id, set()).add(querier)
            return "pending", True
        state = self._votes.get(tx_id)
        if state is not None and state.request_seen and not state.decided:
            if state.home in self.view_members:
                # Live tally that can still decide; push the outcome later.
                self._query_waiters.setdefault(tx_id, set()).add(querier)
                return "pending", state.voted_yes
            if state.voted_yes:
                # In doubt ourselves — the orphan watchdog would get here
                # eventually; enter now so the vote path is renounced and a
                # straggling tally can never contradict this answer.
                self._write_seen.pop(tx_id, None)
                self._enter_in_doubt(tx_id)
                self._query_waiters.setdefault(tx_id, set()).add(querier)
                return "unknown", True
            # We voted NO (and votes never change): no view containing this
            # site can reach a unanimous tally — presume abort now, making
            # the answer a promise we can never break.
            self.trace.emit(self.now, self.name, "rbp.presume_abort", tx=tx_id)
            self._purge(tx_id)
            return "presumed", False
        if tx_id in self._finished:
            return "presumed", False
        if tx_id in self._buffered:
            home = self._write_homes.get(tx_id, -1)
            if home in self.view_members:
                self._query_waiters.setdefault(tx_id, set()).add(querier)
                return "pending", False
            # Buffered writes we never voted for, home gone: presume abort
            # *now*, so this answer is a promise we can never break by
            # committing later.
            self.trace.emit(self.now, self.name, "rbp.presume_abort", tx=tx_id)
            self._purge(tx_id)
            return "presumed", False
        if tx_id in self._prepared:
            # A durable prepare record survived our crash: we voted YES and
            # lost the tally, so a departed member may hold a commit built
            # on that vote — never deny it.
            return "unknown", True
        # No state at all: we never voted and, with nothing buffered, any
        # late commit request draws a NO vote.  Record the promise so even
        # a stray re-delivered write cannot resurrect participation.
        self._finished.add(tx_id)
        return "unknown", False

    def _on_answer(self, answer: RbpDecisionAnswer) -> None:
        query = self._queries.get(answer.tx)
        if query is None:
            return  # resolved already (or never ours)
        query.answers[answer.site] = (answer.outcome, answer.voted_yes)
        self._check_query(answer.tx)

    def _check_query(self, tx_id: str) -> None:
        query = self._queries.get(tx_id)
        if query is None:
            return
        # Maintained by on_view_change: this runs once per answer, and
        # rebuilding the set per answer made resolution O(n^2) per query.
        members = self.view_member_set
        answers = {s: a for s, a in query.answers.items() if s in members}
        outcomes = {outcome for outcome, _ in answers.values()}
        # Authoritative answers resolve immediately — first consistent
        # outcome wins (commit preferred: a logged commit really happened,
        # a lone "abort" cannot coexist with one unless the history already
        # diverged).
        if "commit" in outcomes:
            self._resolve_in_doubt(tx_id, True, via="query")
            return
        if "abort" in outcomes:
            self._resolve_in_doubt(tx_id, False, via="query")
            return
        if not answers.keys() >= members:
            return  # more answers (or the retry timer) to come
        if "pending" in outcomes:
            return  # a member can still decide; it pushes the outcome
        if not self.has_quorum:
            query.parked = True
            self.trace.emit(self.now, self.name, "rbp.query_parked", tx=tx_id)
            return
        # Every member of a quorum view answered unknown/presumed.  That
        # alone does NOT prove no-commit: the answerers may themselves be
        # in-doubt YES voters, and a departed member (a cohort that held
        # the full tally, committed, and then crashed or was partitioned
        # away) could hold a commit built from those very votes.  Presume
        # abort only when a commit tally is *impossible*:
        #   (a) the members that provably never voted YES (their answers
        #       are never-vote promises) block every possible commit
        #       quorum of the full site set, so no view anywhere can ever
        #       have been unanimous; or
        #   (b) every site of the cluster is in this view and answered —
        #       no decision exists anywhere, and every answerer has
        #       renounced the vote path, so none can arise.
        promised = {
            s
            for s, (outcome, voted_yes) in answers.items()
            if outcome == "presumed" or not voted_yes
        }
        quorum = self.num_sites // 2 + 1
        if len(answers) >= self.num_sites or self.num_sites - len(promised) < quorum:
            self._resolve_in_doubt(tx_id, None, via="presumption")
            return
        # Every non-promising answerer is an in-doubt YES voter: a departed
        # member may know the outcome.  Block (park) rather than guess; the
        # next view change — e.g. a recovered member rejoining with its
        # durable decision log — restarts the query.
        query.parked = True
        self.trace.emit(
            self.now, self.name, "rbp.query_parked", tx=tx_id, reason="in_doubt_quorum"
        )

    def _resolve_in_doubt(self, tx_id: str, committed, via: str) -> None:
        if self._queries.pop(tx_id, None) is None:
            return
        if committed:
            self.metrics.rbp_resolved_by_query_commit += 1
            self.trace.emit(
                self.now, self.name, "rbp.decision_adopted", tx=tx_id, outcome="commit"
            )
            self._commit_remote(tx_id)
            return
        if via == "query":
            self.metrics.rbp_resolved_by_query_abort += 1
            self.trace.emit(
                self.now, self.name, "rbp.decision_adopted", tx=tx_id, outcome="abort"
            )
            # An adopted abort is authoritative — log it so later queriers
            # get "abort" instead of an unknowable.
            self._record_decision(tx_id, committed=False)
        else:
            self.metrics.rbp_resolved_by_presumption += 1
            self.trace.emit(self.now, self.name, "rbp.presume_abort", tx=tx_id)
        tx = self.local.get(tx_id)
        if tx is not None and not tx.terminal:
            # Home-side in-doubt resolved as abort: finish the client here
            # (VIEW_LOSS is retryable) before the generic purge.
            self._write_queue.pop(tx_id, None)
            self.abort_home(tx, AbortReason.VIEW_LOSS)
        self._purge(tx_id)

    # -- direct (point-to-point) deliveries ----------------------------------------

    # Direct acks/answers only mutate per-transaction tallies; the durable
    # installs they can reach run after decision resolution, and RBP's
    # broadcast path already defers deliveries while ``recovering`` (the
    # one protocol that needs it — see ROADMAP).  Query/ack books are reset
    # on recovery, so no stale tally can reach an install.
    # detcheck: ignore[H403]
    def _on_direct(self, src: int, payload: Any) -> None:
        if isinstance(payload, RbpWriteAck):
            self._on_ack(payload)
        elif isinstance(payload, RbpWriteAckBatch):
            # Group commit: tally each constituent as if it arrived alone.
            for ack in payload.acks:
                self._on_ack(ack)
        elif isinstance(payload, RbpDecisionAnswer):
            self._on_answer(payload)
        else:
            raise RuntimeError(f"site {self.site}: unexpected direct payload {payload!r}")

    # -- crash / recovery ---------------------------------------------------------------

    def on_crash(self) -> None:
        super().on_crash()
        # Classic presumed-abort 2PC durability: before the volatile vote
        # tallies are lost, force a prepare record for every YES vote whose
        # outcome this site does not know.  After recovery the site answers
        # decision queries "unknown, voted_yes=True" for these instead of
        # falsely denying its vote — a departed member may hold a commit
        # built on it.
        for tx_id, state in self._votes.items():
            if (
                state.request_seen
                and state.voted_yes
                and not state.decided
                and tx_id not in self._decisions
            ):
                self._prepared.add(tx_id)
        self._buffered.clear()
        self._votes.clear()
        # Group-commit outboxes are volatile, lost with the site.
        self._vote_outbox.clear()
        self._ack_outbox.clear()
        self._write_round.clear()
        self._write_queue.clear()
        self._write_homes.clear()
        self._write_seen.clear()
        self._write_progress.clear()
        # The decision log and prepare records survive the crash (they live
        # with the WAL, like the store itself); everything else is volatile.
        # A rejoiner still merges the survivors' decision log with the
        # state-transfer snapshot, which discharges stale prepare records.
        self._queries.clear()
        self._query_waiters.clear()
        self._recovery_backlog.clear()

    def on_recovery_complete(self) -> None:
        """Replay the broadcasts deferred during the state transfer.

        Runs after the snapshot install and the decision-log fast-forward,
        so the replay applies on the post-transfer store base.  Replay goes
        back through :meth:`_on_broadcast` in original delivery order: the
        reliable-broadcast layer already fixed that order, and re-entering
        at the top keeps one code path for live and replayed deliveries.
        Writes of transactions the snapshot already decided hit the
        ``_decisions`` guard in :meth:`_on_write` and get a negative ack
        (harmless: their homes are finished with them).
        """
        backlog, self._recovery_backlog = self._recovery_backlog, []
        if backlog:
            self.trace.emit(
                self.now, self.name, "rbp.recovery_replay", deferred=len(backlog)
            )
        for message in backlog:
            self._on_broadcast(message)

    # -- view changes ----------------------------------------------------------------

    def on_view_change(self, members: list[int], has_quorum: bool) -> None:
        super().on_view_change(members, has_quorum)
        member_set = self.view_member_set
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
                state = self._votes.get(tx.tx_id)
                if state is not None and state.request_seen and not state.decided:
                    self._enter_in_doubt(tx.tx_id)
                    continue
                self._abort_everywhere(tx, AbortReason.NO_QUORUM)
        # Write rounds: acks are now needed only from surviving members.
        for tx_id, rounds in list(self._write_round.items()):
            tx = self.local.get(tx_id)
            if tx is not None:
                for round_ in list(rounds.values()):
                    self._check_round(tx, round_)
        # Vote tallies: forget departed voters.
        for tx_id, state in list(self._votes.items()):
            state.votes.restrict(member_set)
            self._check_votes(tx_id)
        # Transactions homed at departed sites: a cohort that voted YES
        # becomes in-doubt (the outcome may exist at the survivors — query
        # for it; in a minority view the query parks until the heal);
        # anything else is presumed aborted, since its initiator can no
        # longer drive 2PC to completion and no site holds a YES vote.
        fresh_queries: set[str] = set()
        for tx_id, state in list(self._votes.items()):
            if state.home in member_set or state.home == -1:
                continue
            if tx_id in self._queries:
                continue  # already querying; restarted below
            if (
                state.request_seen
                and not state.decided
                and state.voted_yes
                and tx_id in self._buffered
                and tx_id not in self.local
            ):
                fresh_queries.add(tx_id)
                self._enter_in_doubt(tx_id)
            else:
                self._purge(tx_id)
        # Open queries: the member (and thus answer) set changed — restart
        # every query, parked ones included, against the new view.
        for tx_id in list(self._queries):
            if tx_id in fresh_queries:
                continue  # just sent against this view
            query = self._queries.get(tx_id)
            if query is None:
                continue  # resolved by an earlier restart in this loop
            # New epoch: invalidates timers of the pre-restart attempts,
            # which would otherwise alias the reset attempt numbers and
            # burn through the retry budget without the intended backoff.
            query.epoch += 1
            query.attempt = 0
            self._send_query(tx_id)
        for tx_id in list(self._buffered):
            if tx_id in self._votes or tx_id in self.local:
                continue
            # Buffered writes with no vote state and no local owner belong
            # to transactions whose home may have died pre-2PC; drop them if
            # the home left the view.
            self._maybe_drop_orphan(tx_id, member_set)

    def _maybe_drop_orphan(self, tx_id: str, member_set: frozenset[int]) -> None:
        """Drop a buffered write whose home left the view before 2PC began:
        this site never voted for it, so no view containing this site can
        have committed it."""
        home = self._write_homes.get(tx_id)
        if home is not None and home not in member_set:
            self.trace.emit(self.now, self.name, "rbp.drop_orphan", tx=tx_id)
            self._purge(tx_id)
