"""CBP: the Causal Broadcast-based Protocol (paper, section 4).

CBP removes RBP's explicit per-write acknowledgments and explicit 2PC votes
by exploiting causal delivery:

- Write operations and the commit request are **causally broadcast**; the
  commit request's vector-clock entry for the home site is the reference
  event *e*.
- **Implicit positive acknowledgment**: any message from site *j* whose
  clock dominates *e* proves *j* delivered the commit request (and, by FIFO,
  all of T's writes) earlier — and had it detected a conflict, its causally
  earlier NACK would have arrived first.  So a site commits T once it has
  delivered, from every other view member, *some* message causally
  following T's commit request, with no NACK — a fully decentralized
  decision with zero dedicated acknowledgment messages.
- **Explicit negative acknowledgment**: conflicts between *concurrent*
  (vector-clock-incomparable) operations are detected when the later write
  is delivered; the detecting site causally broadcasts a NACK that
  deterministically kills the victim everywhere.

Safety of NACKs (the "endorsement" rule, DESIGN.md): a site may NACK a
transaction only while it has not *endorsed* it — i.e. before delivering
(or, for a local transaction, broadcasting) its commit request.  Because a
conflict involving T's write is always detected before T's commit request
arrives (FIFO), the newcomer T is always NACKable; an already-endorsed
opponent never is, so the victim choice is: endorsed opponent => NACK T,
otherwise the deterministically younger of the two.  A NACK from site *s*
causally precedes every later message of *s*, so no site can first count
*s*'s implicit yes and then see its NACK.

Conflicting writes that are causally *ordered* queue in delivery order —
identical at every site — so no NACK is needed for them.  In batched
write-set mode this cannot deadlock; in per-operation mode (the paper's
presentation) rare cross-causality waits-for cycles are possible, appear
identically at every site, involve only transactions with no grants
anywhere, and are resolved by a deterministic youngest-victim NACK
(DESIGN.md, "Design resolutions").

The paper's stated drawback — commitment stalls when sites broadcast rarely
— is measured in experiment E3 and bounded by optional **null messages**
(heartbeats) broadcast through the causal layer.  A site *owes* an implicit
acknowledgment from delivering a remote commit request or NACK until its
next broadcast of any payload; its periodic tick sends a null iff it owes.
A view change with work in flight and the end of a state transfer put it in
debt too (a rejoiner's adopted books need fresh echoes both ways).  An idle
cluster sends nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.metrics import MetricsCollector
from repro.broadcast.causal import CausalBroadcast, CausalEnvelope
from repro.broadcast.message import BroadcastMessage
from repro.broadcast.vector_clock import BEFORE, VectorClock
from repro.core.events import CbpCommitRequest, CbpNack, CbpNull, CbpWriteSet
from repro.core.replica import Replica
from repro.core.tally import Tally
from repro.core.transaction import AbortReason, Transaction, TxPhase
from repro.db.locks import LockMode
from repro.db.serialization import HistoryRecorder
from repro.sim.engine import SimulationEngine
from repro.sim.trace import TraceLog


class ProtocolInvariantError(AssertionError):
    """A protocol safety invariant was violated (always a bug)."""


@dataclass(slots=True)
class _TxState:
    """Everything one site holds for one live update transaction."""

    tx: str
    home: int
    priority: tuple
    writes: dict[str, Any] = field(default_factory=dict)
    write_clocks: dict[str, VectorClock] = field(default_factory=dict)
    all_writes_seen: bool = False
    granted: set[str] = field(default_factory=set)
    waiting: set[str] = field(default_factory=set)
    cr_entry: Optional[int] = None  # home's clock entry of the commit request
    echoes: Tally = field(default_factory=Tally)
    endorsed: bool = False
    committed: bool = False


@dataclass(slots=True)
class _Killed:
    """A killed transaction's tombstone: it retires once every site, member
    or not, has been heard from with a clock at or past ``entry`` of
    ``site`` (DESIGN.md, "Tombstones"); an ``entry`` of ``inf`` never does."""

    site: int
    entry: float
    echoes: Tally = field(default_factory=Tally)


class CausalBroadcastReplica(Replica):
    """One site running CBP."""

    residue = {"pending commit states": lambda state: True}

    def __init__(
        self,
        engine: SimulationEngine,
        site: int,
        num_sites: int,
        recorder: HistoryRecorder,
        metrics: MetricsCollector,
        trace: TraceLog,
        cbcast: CausalBroadcast,
        heartbeat_interval: Optional[float] = 25.0,
        per_op: bool = False,
    ):
        super().__init__(engine, site, num_sites, recorder, metrics, trace)
        self.cbcast = cbcast
        self.per_op = per_op
        cbcast.set_deliver(self._on_deliver)
        #: True from delivering a remote commit request or NACK until this
        #: site's next broadcast, which acknowledges it implicitly.
        self._owes = False
        self.nacks_sent = 0
        if heartbeat_interval is not None:
            # Null messages: the implicit acknowledgments a site owes.
            self.every(heartbeat_interval, self._heartbeat)

    # -- home side --------------------------------------------------------------

    def start_update(self, tx: Transaction) -> None:
        self.public.add(tx.tx_id)
        # Eager local state: the home must remember endorsement and priority
        # before its own broadcasts loop back through causal delivery.
        state = _TxState(tx.tx_id, self.site, tx.priority)
        self._live[tx.tx_id] = state
        writes = tx.spec.writes
        # The home acquires its own write locks synchronously, *before*
        # broadcasting.  Conflicts here are with lock holders that predate
        # this broadcast, i.e. always ordered-before it: invisible local
        # readers are preempted, everyone else (read-only readers, public
        # transactions) is waited on.  Acquiring now — rather than at the
        # self-delivery of our own write message — closes the window in
        # which a later local transaction could slip its read locks under
        # our writes and manufacture a conflict between two transactions
        # this site has already endorsed.
        for key, value in writes:
            state.writes[key] = value
            self.preempt_local_readers(key, exempt=tx.tx_id)
            if self.locks.acquire(tx.tx_id, key, LockMode.EXCLUSIVE, self._write_granted):
                state.granted.add(key)
            else:
                state.waiting.add(key)
        state.all_writes_seen = True
        if self.per_op:
            for index, (key, value) in enumerate(writes):
                final = index == len(writes) - 1
                envelope = self._broadcast(
                    CbpWriteSet(tx.tx_id, self.site, ((key, value),), tx.priority, final)
                )
                state.write_clocks[key] = envelope.vc
        else:
            envelope = self._broadcast(
                CbpWriteSet(tx.tx_id, self.site, writes, tx.priority, final=True)
            )
            for key, _ in writes:
                state.write_clocks[key] = envelope.vc
        tx.phase = TxPhase.COMMITTING
        envelope = self._broadcast(CbpCommitRequest(tx.tx_id, self.site))
        # Broadcasting the commit request endorses our own transaction: from
        # here on this site may not NACK it (another site still may, until
        # it delivers the commit request).  Recording the request's clock
        # entry now lets conflict resolution classify later-delivered writes
        # as causally ordered with respect to it.
        state.endorsed = True
        state.cr_entry = envelope.vc[self.site]

    def _broadcast(self, payload: Any) -> CausalEnvelope:
        # Any broadcast is causally after everything delivered so far, so
        # it pays every implicit acknowledgment this site owes.
        self._owes = False
        return self.cbcast.broadcast(payload)

    # -- causal delivery --------------------------------------------------------

    def _on_deliver(self, message: BroadcastMessage, envelope: CausalEnvelope) -> None:
        sender = message.sender
        clock = envelope.vc
        payload = envelope.payload
        kind = type(payload)
        if kind is CbpNull:
            pass  # pure implicit-acknowledgment carrier
        elif kind is CbpWriteSet:
            self._on_write_set(payload, clock)
        elif kind is CbpCommitRequest:
            self._owes |= sender != self.site
            self._on_commit_request(payload, clock)
        elif kind is CbpNack:
            self._owes |= sender != self.site
            self._kill(payload.tx, (sender, clock.entries[sender]))
        else:
            raise RuntimeError(f"site {self.site}: unexpected CBP payload {payload!r}")
        # Every delivered message is a potential implicit acknowledgment for
        # every pending commit request (including this very message), and
        # for every killed transaction's retirement.
        self._update_echoes(sender, clock)

    def _update_echoes(self, sender: int, clock: VectorClock) -> None:
        entries = clock.entries
        members = len(self.view_member_set)
        for state in list(self._live.values()):
            cr_entry = state.cr_entry
            if cr_entry is None or state.committed:
                continue
            echoes = state.echoes
            if sender not in echoes and entries[state.home] >= cr_entry:
                echoes[sender] = True
                if len(echoes) >= members:
                    self._check_commit(state)
        tombstones = self._tombstones
        if tombstones:
            # Echoes come from sites only, so ``num_sites`` of them is all.
            everyone = self.num_sites
            retiring = False
            for killed in tombstones.values():
                if sender in killed.echoes or entries[killed.site] < killed.entry:
                    continue
                killed.echoes[sender] = True
                retiring = retiring or len(killed.echoes) == everyone
            if retiring:
                self._tombstones = {
                    tx: killed for tx, killed in tombstones.items() if len(killed.echoes) < everyone
                }

    # -- write delivery and conflict resolution ------------------------------------

    def _on_write_set(self, write_set: CbpWriteSet, clock: VectorClock) -> None:
        tx_id = write_set.tx
        if self._ended(tx_id):
            return
        if write_set.home == self.site:
            # Our own broadcast looping back: locks were taken synchronously
            # at start_update; nothing further to admit.
            return
        state = self._live.get(tx_id)
        if state is None:
            state = _TxState(tx_id, write_set.home, write_set.priority)
            self._live[tx_id] = state
        for key, value in write_set.writes:
            state.writes[key] = value
            state.write_clocks[key] = clock
        if write_set.final:
            state.all_writes_seen = True
        for key, _ in write_set.writes:
            self._admit_write(state, key, clock)
            if self._ended(tx_id):
                return  # a NACK we just issued killed it
        self._check_commit(state)

    def _admit_write(self, state: _TxState, key: str, clock: VectorClock) -> None:
        """Resolve conflicts for one delivered write and lock or NACK."""
        tx_id = state.tx
        blockers = self.locks.conflicting_holders(tx_id, key, LockMode.EXCLUSIVE)
        blockers += [
            request.tx
            for request in self.locks.queued(key)
            if request.tx != tx_id
        ]
        for opponent_id in blockers:
            if self._ended(tx_id):
                return
            self._resolve_conflict(state, key, clock, opponent_id)
        if self._ended(tx_id):
            return
        granted = self.locks.acquire(tx_id, key, LockMode.EXCLUSIVE, self._write_granted)
        if granted:
            state.granted.add(key)
        else:
            state.waiting.add(key)
            if self.per_op:
                self._break_cycles()

    def _resolve_conflict(
        self, state: _TxState, key: str, clock: VectorClock, opponent_id: str
    ) -> None:
        """Apply the paper's conflict rules between the just-delivered write
        of ``state.tx`` and one conflicting lock holder/waiter."""
        tx_id = state.tx
        opponent_state = self._live.get(opponent_id)
        if opponent_state is not None and opponent_id not in self.local:
            # Remote (or already-public local) update transaction.
            opponent_clock = opponent_state.write_clocks.get(key)
            if opponent_clock is not None and opponent_clock.compare(clock) == BEFORE:
                return  # causally ordered: queue behind, no NACK
            if opponent_state.endorsed:
                self._nack(tx_id, f"concurrent with endorsed {opponent_id} on {key}")
            elif state.priority < opponent_state.priority:
                self._nack(opponent_id, f"concurrent with older {tx_id} on {key}")
            else:
                self._nack(tx_id, f"concurrent with older {opponent_id} on {key}")
            return
        local_tx = self.local.get(opponent_id)
        if local_tx is not None:
            if local_tx.read_only:
                return  # wait: read-only transactions finish locally, soon
            if opponent_id not in self.public:
                # Invisible local update reader: abort-and-restart it.
                self.preempt_local_readers(key, exempt=tx_id)
                return
            # Public local update transaction holding a read lock on key.
            local_state = self._live.get(opponent_id)
            if (
                local_state is not None
                and local_state.cr_entry is not None
                and clock.dominates_entry(local_state.home, local_state.cr_entry)
            ):
                # The delivered write causally follows the opponent's commit
                # request: an ordered (not concurrent) conflict; just queue.
                return
            endorsed = local_state.endorsed if local_state is not None else True
            if endorsed:
                self._nack(tx_id, f"concurrent with endorsed local {opponent_id} on {key}")
            elif local_tx.priority < state.priority:
                self._nack(tx_id, f"concurrent with older local {opponent_id} on {key}")
            else:
                self._nack(opponent_id, f"concurrent with younger local tx on {key}")
            return
        # Unknown opponent (e.g. a read lock of a remote... impossible: read
        # locks are only local).  Conservatively NACK the newcomer.
        self._nack(tx_id, f"conflict with unknown holder {opponent_id} on {key}")

    def _write_granted(self, tx_id: str, key: str) -> None:
        state = self._live.get(tx_id)
        if state is None:
            return
        state.waiting.discard(key)
        state.granted.add(key)
        self._check_commit(state)

    def _break_cycles(self) -> None:
        """Per-op mode backstop: NACK the youngest transaction in a
        waits-for cycle.  Such cycles appear identically at every site and
        involve only transactions no site has fully granted, so the NACK is
        safe and every site picks the same victim (DESIGN.md)."""
        cycle = self.locks.find_cycle()
        if not cycle:
            return
        candidates = [self._live[tx_id] for tx_id in cycle if tx_id in self._live]
        if not candidates:
            return
        victim = max(candidates, key=lambda s: s.priority)
        # Endorsement does not protect cycle members: a transaction stuck in
        # a waits-for cycle has ungranted writes at *every* site (the cycle
        # is identical everywhere because causal delivery orders the queues
        # identically), so no site can have committed it and the NACK is
        # safe even for an endorsed victim.
        self._nack(victim.tx, "waits-for cycle (per-op cross causality)", force=True)

    # -- NACK handling ------------------------------------------------------------

    def _nack(self, tx_id: str, reason: str, force: bool = False) -> None:
        if self._ended(tx_id):
            return
        state = self._live.get(tx_id)
        if not force and state is not None and state.endorsed and state.home == self.site:
            raise ProtocolInvariantError(
                f"site {self.site} attempted to NACK its own endorsed {tx_id}"
            )
        self.nacks_sent += 1
        self.trace.emit(self.now, self.name, "cbp.nack_sent", tx=tx_id, reason=reason)
        envelope = self._broadcast(CbpNack(tx_id, self.site, reason))
        # Apply locally at once: the self-delivery would do the same, but
        # later deliveries in this event must already see the victim dead.
        self._kill(tx_id, (self.site, envelope.vc[self.site]))

    def _kill(self, tx_id: str, past: tuple[int, float]) -> None:
        """Kill a live transaction; its tombstone retires once every site is
        heard from past ``past``, a (site, clock entry)."""
        if self._ended(tx_id):
            return
        if tx_id not in self._live:
            # Committed here (unreachable by the endorsement rule), or never
            # seen (unreachable: a NACK follows the victim's write set).
            raise ProtocolInvariantError(
                f"site {self.site}: NACK arrived for {tx_id}, neither live nor killed here"
            )
        self._tombstones[tx_id] = _Killed(*past)
        self._discharge(tx_id)
        tx = self.local.get(tx_id)
        if tx is not None and not tx.terminal:
            self.abort_home(tx, AbortReason.CONCURRENT_NACK)

    # -- commit request and the decentralized decision ------------------------------

    def _on_commit_request(self, request: CbpCommitRequest, clock: VectorClock) -> None:
        tx_id = request.tx
        if self._ended(tx_id):
            return
        state = self._live.get(tx_id)
        if state is None:
            # Commit request with no writes seen: FIFO order makes this
            # impossible for correct senders.
            raise ProtocolInvariantError(
                f"site {self.site}: commit request for unknown {tx_id}"
            )
        state.cr_entry = clock[request.home]
        # Delivering the commit request without having objected endorses the
        # transaction at this site: we may no longer NACK it.
        state.endorsed = True
        # The request itself is the home's implicit yes; our own endorsement
        # counts as ours.
        state.echoes[request.home] = True
        state.echoes[self.site] = True
        self._check_commit(state)

    def _check_commit(self, state: _TxState) -> None:
        if (
            state.committed
            or self._ended(state.tx)
            or state.cr_entry is None
            or not state.all_writes_seen
            or state.waiting
            or state.granted != state.writes.keys()
            or not state.echoes.complete(self.view_member_set)
        ):
            return
        # No tombstone: causal delivery drops any copy of its messages, and
        # no NACK can follow a commit (DESIGN.md, "Tombstones").
        state.committed = True
        self._install_commit(state.tx, state.writes)
        self.trace.emit(self.now, self.name, "cbp.applied", tx=state.tx)

    # -- heartbeats (null messages) ---------------------------------------------------

    def _heartbeat(self) -> None:
        # A null only when this site owes an implicit acknowledgment: a
        # broadcast made *before* a commit request was delivered
        # acknowledges nothing for it.  An idle site sends nothing.
        #
        # No broadcasts while a state transfer is in flight: a null message
        # stamped with our stale pre-crash clock can dominate an *old*
        # commit request's entry and hand the group an implicit yes for a
        # transaction whose state this site lost in the crash.  Staying
        # silent instead is safe: our first post-install broadcast carries
        # the donor's clock, so every transaction it implicitly acknowledges
        # is covered by the snapshot or the adopted in-flight state.
        if self._owes and not self.recovering:
            self._broadcast(CbpNull(self.site))

    # -- crash / recovery ------------------------------------------------------------------

    def export_protocol_state(self) -> Optional[dict]:
        """Serialize in-flight transaction state for a state transfer.

        The committed-store snapshot alone is not enough for CBP: a
        transaction still in flight at export time has its writes in no
        site's store, only in the group's ``_TxState`` books — and once the
        rejoiner's fast-forwarded clock starts implicitly acknowledging it,
        the survivors *will* commit it.  Shipping the donor's in-flight
        books (plus its killed tombstones and per-key lock-queue order, so
        the rejoiner grants locks in the same causal-delivery order every
        other site uses) closes the gap; without it the rejoined replica
        permanently misses every transaction that was in flight during the
        transfer — the recovered-site divergence the churn soaks exposed.

        Everything is copied into plain tuples: the donor keeps mutating
        its live state while the reply is in flight.
        """
        states = []
        for _, state in sorted(self._live.items()):
            states.append(
                {
                    "tx": state.tx,
                    "home": state.home,
                    "priority": tuple(state.priority),
                    "writes": tuple(sorted(state.writes.items())),
                    "write_clocks": tuple(
                        (key, tuple(clock.entries))
                        for key, clock in sorted(state.write_clocks.items())
                    ),
                    "all_writes_seen": state.all_writes_seen,
                    "granted": tuple(sorted(state.granted)),
                    "cr_entry": state.cr_entry,
                    "echoes": tuple(sorted(state.echoes)),
                    "endorsed": state.endorsed,
                }
            )
        keys: set[str] = set()
        for state in self._live.values():
            keys.update(state.writes)
        lock_queues = {
            key: tuple(
                request.tx
                for request in self.locks.queued(key)
                if request.tx in self._live
            )
            for key in sorted(keys)
        }
        return {
            "dead": tuple(
                (tx_id, killed.site, killed.entry) for tx_id, killed in sorted(self._tombstones.items())
            ),
            "states": tuple(states),
            "lock_queues": lock_queues,
        }

    def adopt_protocol_state(self, state: dict) -> None:
        """Install a donor's in-flight books (rejoiner side, at snapshot
        install time).  Replaces wholesale: anything built locally from the
        stale pre-crash state is released and dropped."""
        for tx_id in sorted(self._live):
            self._discharge(tx_id)
        self._tombstones = {tx_id: _Killed(site, entry) for tx_id, site, entry in state["dead"]}
        for exported in state["states"]:
            adopted = _TxState(
                exported["tx"], exported["home"], tuple(exported["priority"])
            )
            adopted.writes = dict(exported["writes"])
            adopted.write_clocks = {
                key: VectorClock(list(entries))
                for key, entries in exported["write_clocks"]
            }
            adopted.all_writes_seen = exported["all_writes_seen"]
            adopted.cr_entry = exported["cr_entry"]
            adopted.echoes = Tally.fromkeys(exported["echoes"], True)
            adopted.endorsed = exported["endorsed"]
            self._live[adopted.tx] = adopted
        # Locks: donor's holders first (at most one exclusive holder per
        # key), then waiters in the donor's queue order — which is the
        # causal delivery order of the conflicting writes, identical at
        # every site, so per-key install order (and hence version numbers)
        # stays convergent.
        for exported in state["states"]:
            tx_id = exported["tx"]
            adopted = self._live[tx_id]
            for key in exported["granted"]:
                if self.locks.acquire(tx_id, key, LockMode.EXCLUSIVE, self._write_granted):
                    adopted.granted.add(key)
                else:
                    adopted.waiting.add(key)
        for key in sorted(state["lock_queues"]):
            for tx_id in state["lock_queues"][key]:
                adopted = self._live.get(tx_id)
                if adopted is None or key in adopted.granted or key in adopted.waiting:
                    continue
                if self.locks.acquire(tx_id, key, LockMode.EXCLUSIVE, self._write_granted):
                    adopted.granted.add(key)
                else:
                    adopted.waiting.add(key)
        # The export races the next view change: a state whose home crashed
        # after the donor exported (but before the reply landed here) was
        # killed at every other site by the view change — which this
        # replica's adopted copy never saw, and no *future* view change
        # re-delivers.  Reap it now, exactly as on_view_change would have;
        # otherwise its locks wedge the keys forever (a churn-soak liveness
        # stall with every site up).
        for adopted in list(self._live.values()):
            if adopted.home not in self.view_members:
                self._kill(adopted.tx, self._home_done(adopted))

    def on_recovery_complete(self) -> None:
        """An adopted in-flight transaction may already be committable.

        The group may wait on this site's echo for any transaction the
        snapshot covers, adopted or already committed at the donor: no
        delivery here will put it in this site's debt, the cut dropped its
        commit request.  So a rejoiner owes one echo, whatever it adopted."""
        for state in list(self._live.values()):
            self._check_commit(state)
        self._owes = True

    # -- view changes -------------------------------------------------------------------

    def on_view_change(self, members: list[int], has_quorum: bool) -> None:
        super().on_view_change(members, has_quorum)
        for state in list(self._live.values()):
            if state.home not in members:
                # The initiator left: its transaction cannot be completed
                # (no further messages from it); drop it everywhere.
                self._kill(state.tx, self._home_done(state))
            else:
                self._check_commit(state)
        # A rejoiner waits on every member's echo for its adopted states,
        # and may have missed the ones sent before it joined: echo again.
        self._owes |= bool(self._live)

    def _home_done(self, state: _TxState) -> tuple[int, float]:
        """(home, entry) of the commit request, which the home broadcasts
        right after the write set; never reached in per-op mode, where a
        site past it may still NACK a waits-for cycle member."""
        if self.per_op or not state.write_clocks:
            return state.home, math.inf
        return state.home, max(clock[state.home] for clock in state.write_clocks.values()) + 1
