"""Strict two-phase locking for one replica.

The paper assumes "concurrency control is locally enforced by strict
two-phase locking at all database sites"; this module is that local lock
manager.  It supports the different acquisition disciplines the three
protocols need:

- :meth:`LockManager.try_acquire` -- **no-wait** (used by RBP for remote
  writes: a conflict produces a negative acknowledgment, never a wait, which
  is how RBP prevents deadlocks).
- :meth:`LockManager.acquire` -- FIFO queueing with a grant callback (used
  by CBP/ABP write application).
- :meth:`LockManager.acquire_group` -- all-or-nothing acquisition of a whole
  read set with **no hold-and-wait** (the transaction holds nothing while
  queued), which keeps read-only transactions out of every deadlock cycle —
  they can be waited on, but never wait while holding.

A waits-for graph with cycle detection backstops the protocols that do
queue (see DESIGN.md, "Design resolutions").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

TxId = Hashable


class LockMode(enum.Enum):
    """Lock modes: shared (reads) and exclusive (writes)."""

    SHARED = "S"
    EXCLUSIVE = "X"


def compatible(a: LockMode, b: LockMode) -> bool:
    """Lock compatibility matrix: only S/S coexist."""
    return a is LockMode.SHARED and b is LockMode.SHARED


class LockPolicyError(RuntimeError):
    """Raised on invalid lock-manager usage (e.g. double queueing)."""


@dataclass
class LockRequest:
    """One queued single-key request."""

    tx: TxId
    key: str
    mode: LockMode
    on_grant: Optional[Callable[[TxId, str], None]]


@dataclass
class GroupRequest:
    """A queued all-or-nothing multi-key request (holds nothing while waiting)."""

    tx: TxId
    needs: dict[str, LockMode]
    on_grant: Optional[Callable[[TxId], None]]


@dataclass
class LockStats:
    immediate_grants: int = 0
    queued_waits: int = 0
    queue_grants: int = 0
    denials: int = 0
    releases: int = 0


class LockManager:
    """Lock table for one site."""

    def __init__(self) -> None:
        self._holders: dict[str, dict[TxId, LockMode]] = {}
        self._queues: dict[str, list[LockRequest]] = {}
        self._group_waiters: list[GroupRequest] = []
        self._held_keys: dict[TxId, set[str]] = {}
        self.stats = LockStats()

    # -- inspection ----------------------------------------------------------

    def holds(self, tx: TxId, key: str) -> Optional[LockMode]:
        """The mode ``tx`` holds on ``key``, or None."""
        return self._holders.get(key, {}).get(tx)

    def holders_of(self, key: str) -> dict[TxId, LockMode]:
        return dict(self._holders.get(key, {}))

    def conflicting_holders(self, tx: TxId, key: str, mode: LockMode) -> list[TxId]:
        """Holders (other than ``tx``) whose mode is incompatible with ``mode``."""
        return [
            holder
            # detcheck: ignore[D104] — holder dicts are insertion-ordered by
            # grant time (deterministic); callers treat this list as a set.
            for holder, held in self._holders.get(key, {}).items()
            if holder != tx and not compatible(held, mode)
        ]

    def queued(self, key: str) -> list[LockRequest]:
        return list(self._queues.get(key, []))

    def is_waiting(self, tx: TxId) -> bool:
        if any(r.tx == tx for queue in self._queues.values() for r in queue):
            return True
        return any(g.tx == tx for g in self._group_waiters)

    def held_keys(self, tx: TxId) -> set[str]:
        return set(self._held_keys.get(tx, set()))

    # -- acquisition ---------------------------------------------------------

    def try_acquire(self, tx: TxId, key: str, mode: LockMode) -> bool:
        """No-wait acquisition: grant immediately or fail with no side effect."""
        if self._grantable(tx, key, mode, respect_queue=False):
            self._grant(tx, key, mode)
            self.stats.immediate_grants += 1
            return True
        self.stats.denials += 1
        return False

    def acquire(
        self,
        tx: TxId,
        key: str,
        mode: LockMode,
        on_grant: Optional[Callable[[TxId, str], None]] = None,
    ) -> bool:
        """Acquire with FIFO queueing.

        Returns True when granted immediately; otherwise the request is
        queued and ``on_grant(tx, key)`` fires upon grant.
        """
        if self._grantable(tx, key, mode, respect_queue=True):
            self._grant(tx, key, mode)
            self.stats.immediate_grants += 1
            return True
        if any(r.tx == tx for r in self._queues.get(key, [])):
            raise LockPolicyError(f"{tx} already queued on {key!r}")
        self._queues.setdefault(key, []).append(LockRequest(tx, key, mode, on_grant))
        self.stats.queued_waits += 1
        return False

    def acquire_group(
        self,
        tx: TxId,
        needs: dict[str, LockMode],
        on_grant: Optional[Callable[[TxId], None]] = None,
    ) -> bool:
        """All-or-nothing acquisition of several keys (no hold-and-wait).

        Either every key is granted now (returns True) or the request waits
        holding nothing, re-evaluated after each release, and ``on_grant``
        fires once all keys are granted together.
        """
        if not needs:
            return True
        if self._group_grantable(tx, needs):
            for key, mode in needs.items():
                self._grant(tx, key, mode)
            self.stats.immediate_grants += 1
            return True
        if any(g.tx == tx for g in self._group_waiters):
            raise LockPolicyError(f"{tx} already has a pending group request")
        self._group_waiters.append(GroupRequest(tx, dict(needs), on_grant))
        self.stats.queued_waits += 1
        return False

    # -- release -------------------------------------------------------------

    def release_all(self, tx: TxId) -> None:
        """Strict 2PL release: drop every lock and queued request of ``tx``."""
        touched: set[str] = set()
        for key in self._held_keys.pop(tx, set()):
            holders = self._holders.get(key)
            if holders is not None and tx in holders:
                del holders[tx]
                touched.add(key)
                if not holders:
                    del self._holders[key]
        for key, queue in list(self._queues.items()):
            remaining = [r for r in queue if r.tx != tx]
            if len(remaining) != len(queue):
                touched.add(key)
                if remaining:
                    self._queues[key] = remaining
                else:
                    del self._queues[key]
        self._group_waiters = [g for g in self._group_waiters if g.tx != tx]
        self.stats.releases += 1
        self._reevaluate(touched)

    def preempt(self, key: str, winner: TxId) -> list[TxId]:
        """Force-grant ``winner`` the exclusive lock on ``key``.

        Current holders (other than the winner) are displaced back to the
        *front* of the queue, keeping their claim but losing the grant —
        used by certification-ordered protocols where the total order, not
        grant order, decides who installs first.  The displaced holders
        must be preemptible by protocol argument (e.g. uncommitted
        writers); this method does not check.  Returns the displaced ids.
        """
        holders = self._holders.get(key, {})
        losers = [tx for tx in holders if tx != winner]
        queue = self._queues.setdefault(key, [])
        # The winner's own queued claim (if any) is consumed by the grant.
        queue[:] = [request for request in queue if request.tx != winner]
        for tx in losers:
            del holders[tx]
            held = self._held_keys.get(tx)
            if held is not None:
                held.discard(key)
        # Displaced holders rejoin at the front, ahead of younger waiters,
        # in a deterministic (sorted) order.
        queue[:0] = [
            LockRequest(tx, key, LockMode.EXCLUSIVE, None)
            for tx in sorted(losers, key=str)
        ]
        if not queue:
            self._queues.pop(key, None)
        self._grant(winner, key, LockMode.EXCLUSIVE)
        return losers

    # -- deadlock detection ----------------------------------------------------

    def waits_for_edges(self) -> dict[TxId, set[TxId]]:
        """The waits-for graph over queued single-key requests.

        A queued request waits on every incompatible holder and on every
        earlier incompatible queued request (FIFO discipline).  Group
        waiters hold nothing, so they cannot close a cycle and are omitted.
        """
        edges: dict[TxId, set[TxId]] = {}
        for key, queue in self._queues.items():
            holders = self._holders.get(key, {})
            for index, request in enumerate(queue):
                blockers: set[TxId] = set()
                for holder, held in holders.items():
                    if holder != request.tx and not compatible(held, request.mode):
                        blockers.add(holder)
                for earlier in queue[:index]:
                    if earlier.tx != request.tx and not (
                        compatible(earlier.mode, request.mode)
                    ):
                        blockers.add(earlier.tx)
                if blockers:
                    edges.setdefault(request.tx, set()).update(blockers)
        return edges

    def find_cycle(self) -> Optional[list[TxId]]:
        """A waits-for cycle as a list of transaction ids, or None."""
        edges = self.waits_for_edges()
        WHITE, GREY, BLACK = 0, 1, 2
        color: dict[TxId, int] = {}
        stack: list[TxId] = []

        def visit(node: TxId) -> Optional[list[TxId]]:
            color[node] = GREY
            stack.append(node)
            # Sorted: successor order decides which cycle (and victim) is
            # found; raw set order varies with PYTHONHASHSEED across runs.
            for succ in sorted(edges.get(node, ())):
                state = color.get(succ, WHITE)
                if state == GREY:
                    start = stack.index(succ)
                    return stack[start:]
                if state == WHITE:
                    found = visit(succ)
                    if found is not None:
                        return found
            stack.pop()
            color[node] = BLACK
            return None

        for node in list(edges):
            if color.get(node, WHITE) == WHITE:
                cycle = visit(node)
                if cycle is not None:
                    return cycle
        return None

    # -- internals -------------------------------------------------------------

    def _grantable(self, tx: TxId, key: str, mode: LockMode, respect_queue: bool) -> bool:
        holders = self._holders.get(key, {})
        held = holders.get(tx)
        if held is not None:
            if held is mode or held is LockMode.EXCLUSIVE:
                return True  # already strong enough
            # Upgrade S -> X allowed only as the sole holder.
            return len(holders) == 1
        if any(not compatible(h, mode) for h in holders.values()):
            return False
        if respect_queue:
            # FIFO fairness: do not jump over an already-queued conflicting
            # request (otherwise writers starve behind reader streams).
            for request in self._queues.get(key, ()):
                if not compatible(request.mode, mode) or request.mode is LockMode.EXCLUSIVE:
                    return False
        return True

    def _group_grantable(self, tx: TxId, needs: dict[str, LockMode]) -> bool:
        # Groups respect queued conflicting requests too: a reader group
        # must not slip its shared locks under an already-queued exclusive
        # request (that both starves writers and manufactures upgrade-style
        # deadlocks between transactions granted shared locks "together").
        return all(
            self._grantable(tx, key, mode, respect_queue=True)
            for key, mode in needs.items()
        )

    def _grant(self, tx: TxId, key: str, mode: LockMode) -> None:
        holders = self._holders.setdefault(key, {})
        held = holders.get(tx)
        if held is LockMode.EXCLUSIVE:
            return
        holders[tx] = mode if held is None else (
            LockMode.EXCLUSIVE if mode is LockMode.EXCLUSIVE else held
        )
        self._held_keys.setdefault(tx, set()).add(key)

    def _reevaluate(self, touched: set[str]) -> None:
        granted_callbacks: list[tuple[Callable, tuple]] = []
        # Sorted: grant (and callback) order across keys must not depend on
        # set hash order, which differs between interpreter processes.
        for key in sorted(touched):
            queue = self._queues.get(key)
            if not queue:
                continue
            still_queued: list[LockRequest] = []
            blocked = False
            for request in queue:
                if not blocked and self._grantable(
                    request.tx, key, request.mode, respect_queue=False
                ):
                    self._grant(request.tx, key, request.mode)
                    self.stats.queue_grants += 1
                    if request.on_grant is not None:
                        granted_callbacks.append((request.on_grant, (request.tx, key)))
                else:
                    blocked = True
                    still_queued.append(request)
            if still_queued:
                self._queues[key] = still_queued
            else:
                self._queues.pop(key, None)
        # Group waiters are re-checked after single-key grants settle.
        remaining_groups: list[GroupRequest] = []
        for group in self._group_waiters:
            if self._group_grantable(group.tx, group.needs):
                for key, mode in group.needs.items():
                    self._grant(group.tx, key, mode)
                self.stats.queue_grants += 1
                if group.on_grant is not None:
                    granted_callbacks.append((group.on_grant, (group.tx,)))
            else:
                remaining_groups.append(group)
        self._group_waiters = remaining_groups
        # Callbacks run last so reentrant acquire/release see settled state.
        for fn, args in granted_callbacks:
            fn(*args)
