"""RBP in-doubt termination: the durable decision log and decision queries.

A cohort that voted YES holds exclusive locks it may not release until it
learns the outcome; when the home departs the view mid-2PC the vote path
can no longer deliver one.  The cohort then sends the view a
:class:`RbpDecisionQuery` and adopts the first authoritative answer from
the surviving members' decision logs, falling back to presumed abort only
when a commit tally is provably impossible (see :meth:`_check_query`).

**The seam.**  The protocol replica hands over a ``tx_id`` when it becomes
in doubt (``hand_over``); ``resolved(tx_id, outcome)`` comes back with
``"commit"``, ``"abort"`` (both authoritative) or ``"presumed"``.  This
object owns the *durable* state (decision log, prepare records) and the
volatile query rounds; what it needs of its host it is given as callables,
so a unit test drives it with a fake and no cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.core.rbp_events import RbpDecisionAnswer, RbpDecisionQuery


@dataclass
class _Query:
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


@dataclass
class InDoubtTermination:
    """One site's decision log, prepare records and decision queries."""

    site: int
    num_sites: int
    #: Send to the other view members / point-to-point ``send(site, payload)``.
    multicast: Callable[[Any], Any]
    send: Callable[[int, Any], Any]
    #: The installed view: (member set, is it a majority of all sites).
    view: Callable[[], tuple[frozenset[int], bool]]
    #: ``schedule(delay, fn, *args)``: arm a timer.
    schedule: Callable[..., Any]
    #: What the host's volatile books say about a transaction the log has
    #: no entry for: (outcome, voted_yes), or ``None`` for "nothing".
    knows: Callable[[str], Optional[tuple[str, bool]]]
    #: The way back.  Also called with ``"presumed"`` for a transaction
    #: nobody here ever touched when a query asks about it: the "never
    #: voted" answer is a promise, and the host makes it binding.
    resolved: Callable[[str, str], None]
    #: Trace (``emit(event, **fields)``) and ``rbp_*`` counter sinks.
    emit: Callable[..., None]
    metrics: Any
    #: The host's ``decision_query_timeout`` / ``..._attempts`` / ``..._log_capacity``.
    query_timeout: float
    query_attempts: int
    log_capacity: int
    #: Bounded log of authoritative outcomes (tx -> committed?), oldest
    #: first.  Durable.  The host reads it to guard its vote path.
    decisions: dict[str, bool] = field(default_factory=dict)
    #: Durable prepare records [Ske82]: transactions this site voted YES
    #: for, force-written before the vote leaves, erased once the outcome
    #: is known.  Survives crashes, so a recovered site never denies a YES
    #: vote a departed member may have built a commit tally from.
    prepared: set[str] = field(default_factory=set)
    # Volatile: open queries at this site, and remote queriers promised a
    # push of a still-pending outcome.
    _queries: dict[str, _Query] = field(default_factory=dict, init=False)
    _waiters: dict[str, set[int]] = field(default_factory=dict, init=False)

    # -- the durable log ---------------------------------------------------------

    def prepare(self, tx_id: str) -> None:
        """Force a prepare record for a YES vote whose outcome is unknown."""
        if tx_id not in self.decisions:
            self.prepared.add(tx_id)

    def record(self, tx_id: str, committed: bool) -> None:
        """Append an authoritative outcome to the bounded decision log and
        push it to any querier we promised a pending answer."""
        if tx_id not in self.decisions:
            self.decisions[tx_id] = committed
            self._gc()
        self.close(tx_id, "commit" if committed else "abort")

    def close(self, tx_id: str, outcome: str = "presumed") -> None:
        """``tx_id`` is over at this site: drop its query and prepare record
        and push ``outcome`` to the queriers promised one.  The host calls
        it for a presumed abort — made only when provably safe, so the
        prepare record may be erased with it."""
        self._queries.pop(tx_id, None)
        self.prepared.discard(tx_id)  # outcome known: the prepare record goes
        for site in sorted(self._waiters.pop(tx_id, ())):
            if site != self.site:
                self.metrics.rbp_decision_answers += 1
                self.send(site, RbpDecisionAnswer(tx_id, self.site, outcome))

    def _gc(self) -> None:
        """Watermark GC: evict the oldest outcomes beyond the capacity.
        Evicted outcomes are forgotten — queries about such ancient
        transactions get "unknown", which is safe as long as in-doubt
        cohorts query within the retention window (they do: a query starts
        at most one view change after the 2PC round)."""
        while len(self.decisions) > self.log_capacity:
            del self.decisions[next(iter(self.decisions))]

    def adopt_log(self, entries: Iterable[tuple[str, bool]]) -> dict[str, bool]:
        """Merge a donor's decision log; returns tx -> outcome for every
        entry, for the host to discharge its residual state against.

        A logged commit overrides a locally logged abort (a logged commit
        really happened).  Each entry's outcome is resolved up front (the
        donor's entry merged with any local record): the capacity GC below
        may evict an entry just adopted, and the host's discharge must not
        then read the post-GC map and abort a transaction the majority
        actually committed.
        """
        resolved: dict[str, bool] = {}
        for tx_id, committed in entries:
            committed = bool(committed)
            prior = self.decisions.get(tx_id)
            if prior is None or (committed and not prior):
                self.decisions[tx_id] = committed
            resolved[tx_id] = committed or bool(prior)
            self.close(tx_id, "commit" if committed else "abort")
        self._gc()
        return resolved

    def crash(self) -> None:
        """Fail-stop: the decision log and prepare records survive (they
        live with the WAL, like the store itself); queries and promises are
        volatile.  A rejoiner still merges the survivors' decision log with
        the state-transfer snapshot, which discharges stale prepare records."""
        self._queries.clear()
        self._waiters.clear()

    def in_flight(self) -> dict[str, list[str]]:
        """Per-transaction residue that must drain by quiescence."""
        return {
            "open decision queries": list(self._queries),
            "unserved decision-query waiters": list(self._waiters),
        }

    # -- querier side ----------------------------------------------------------------

    def hand_over(self, tx_id: str) -> None:
        """The host voted YES for ``tx_id`` and lost sight of the outcome:
        start the query protocol.  The host renounces its vote path for the
        transaction until ``resolved`` comes back."""
        if tx_id in self._queries:
            return
        self.metrics.rbp_in_doubt += 1
        self._queries[tx_id] = _Query()
        self.emit("rbp.in_doubt", tx=tx_id)
        self._send_query(tx_id)

    def restart(self, tx_id: str) -> None:
        """The view changed: restart ``tx_id``'s query, parked or not.  The
        new epoch keeps the old attempts' timers from aliasing the reset
        attempt numbers (which would burn the retry budget unbacked-off)."""
        query = self._queries[tx_id]
        query.epoch += 1
        query.attempt = 0
        self._send_query(tx_id)

    def _send_query(self, tx_id: str) -> None:
        query = self._queries[tx_id]
        query.attempt += 1
        query.parked = False
        # Seed our own answer: we are in doubt, so "unknown" — and we voted
        # YES, so our own answer can never witness a presumption.
        query.answers = {self.site: ("unknown", True)}
        self.metrics.rbp_decision_queries += 1
        self.emit("rbp.decision_query", tx=tx_id, attempt=query.attempt)
        self.multicast(RbpDecisionQuery(tx_id, self.site, query.attempt))
        delay = self.query_timeout * min(query.attempt, 4)
        self.schedule(delay, self._query_timeout, tx_id, query.epoch, query.attempt)
        self._check_query(tx_id)  # a single-member view resolves immediately

    def _query_timeout(self, tx_id: str, epoch: int, attempt: int) -> None:
        query = self._queries.get(tx_id)
        if query is None or query.parked:
            return
        if query.epoch != epoch or query.attempt != attempt:
            return  # stale: a later attempt or a restart (epoch) superseded it
        if query.attempt >= self.query_attempts:
            # Answers may be lost to a partition the failure detector has
            # not yet turned into a view change; park until the next view.
            query.parked = True
            self.emit("rbp.query_parked", tx=tx_id)
            return
        self._send_query(tx_id)

    def on_answer(self, answer: RbpDecisionAnswer) -> None:
        query = self._queries.get(answer.tx)
        if query is None:
            return  # resolved already (or never ours)
        query.answers[answer.site] = (answer.outcome, answer.voted_yes)
        self._check_query(answer.tx)

    def _check_query(self, tx_id: str) -> None:
        query = self._queries[tx_id]
        members, has_quorum = self.view()
        answers = {s: a for s, a in query.answers.items() if s in members}
        outcomes = {outcome for outcome, _ in answers.values()}
        # Authoritative answers resolve immediately — first consistent
        # outcome wins (commit preferred: a logged commit really happened,
        # a lone "abort" cannot coexist with one unless the history already
        # diverged).
        if "commit" in outcomes:
            self._resolve(tx_id, "commit")
            return
        if "abort" in outcomes:
            self._resolve(tx_id, "abort")
            return
        if not answers.keys() >= members:
            return  # more answers (or the retry timer) to come
        if "pending" in outcomes:
            return  # a member can still decide; it pushes the outcome
        if not has_quorum:
            query.parked = True
            self.emit("rbp.query_parked", tx=tx_id)
            return
        # Every member of a quorum view answered unknown/presumed.  That
        # alone does NOT prove no-commit: the answerers may themselves be
        # in-doubt YES voters, and a departed member (a cohort that held
        # the full tally, committed, and then crashed or was partitioned
        # away) could hold a commit built from those very votes.  Presume
        # abort only when a commit tally is *impossible*:
        #   (a) the members that provably never voted YES (their answers
        #       are never-vote promises) block every possible commit
        #       quorum of the full site set, so no electorate anywhere can
        #       ever have been unanimous (a commit needs a majority
        #       electorate: ``ReliableBroadcastReplica._check_votes``); or
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
            self._resolve(tx_id, "presumed")
            return
        # Every non-promising answerer is an in-doubt YES voter: a departed
        # member may know the outcome.  Block (park) rather than guess; the
        # next view change — e.g. a recovered member rejoining with its
        # durable decision log — restarts the query.
        query.parked = True
        self.emit("rbp.query_parked", tx=tx_id, reason="in_doubt_quorum")

    def _resolve(self, tx_id: str, outcome: str) -> None:
        del self._queries[tx_id]
        if outcome == "presumed":
            self.metrics.rbp_resolved_by_presumption += 1
            self.emit("rbp.presume_abort", tx=tx_id)
        else:
            self.emit("rbp.decision_adopted", tx=tx_id, outcome=outcome)
            if outcome == "abort":
                self.metrics.rbp_resolved_by_query_abort += 1
                # An adopted abort is authoritative — log it so later
                # queriers get "abort" instead of an unknowable.  (The host
                # logs an adopted commit itself, once the writes are in.)
                self.record(tx_id, committed=False)
            else:
                self.metrics.rbp_resolved_by_query_commit += 1
        self.resolved(tx_id, outcome)

    # -- answerer side ---------------------------------------------------------------

    def on_query(self, query: RbpDecisionQuery) -> None:
        if query.site == self.site:
            return  # our own query; the querier seeded its answer
        outcome, voted_yes = self._answer(query.tx)
        if outcome == "pending" or query.tx in self._queries:
            # A live tally that can still decide, or in doubt ourselves: the
            # eventual outcome is pushed to the querier (record / close).
            self._waiters.setdefault(query.tx, set()).add(query.site)
        self.metrics.rbp_decision_answers += 1
        self.send(query.site, RbpDecisionAnswer(query.tx, self.site, outcome, voted_yes))

    def _answer(self, tx_id: str) -> tuple[str, bool]:
        """This site's answer to a decision query: (outcome, voted_yes).

        Safety contract: an answer of ``unknown``/``presumed`` with
        ``voted_yes=False`` is a *promise* that this site never voted YES
        for the transaction and never will — every branch (here and in the
        host's ``knows``) that returns one either has provably never voted
        (no buffered writes means any late commit request draws a NO vote)
        or renounces future participation on the spot.
        """
        decided = self.decisions.get(tx_id)
        if decided is not None:
            return ("commit" if decided else "abort"), False
        if tx_id in self._queries:
            # In doubt ourselves (we voted YES); our eventual resolution is
            # pushed to the querier but carries no authority on its own.
            return "unknown", True
        known = self.knows(tx_id)
        if known is not None:
            return known
        if tx_id in self.prepared:
            # A durable prepare record survived our crash: we voted YES and
            # lost the tally, so a departed member may hold a commit built
            # on that vote — never deny it.
            return "unknown", True
        # No state at all: we never voted and, with nothing buffered, any
        # late commit request draws a NO vote.  Record the promise so even
        # a stray re-delivered write cannot resurrect participation.
        self.resolved(tx_id, "presumed")
        return "unknown", False
