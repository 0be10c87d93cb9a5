"""Executable one-copy serializability checking.

The paper proves its protocols produce one-copy serializable executions via
one-copy serialization graphs [BG87, BHG87].  This module turns that proof
technique into a runtime check: a global :class:`HistoryRecorder` collects,
for every *committed* transaction, the exact versions it read and installed;
:meth:`HistoryRecorder.check` then builds the one-copy serialization graph
and verifies it is acyclic.

Edges (versions are per-object and dense, version 0 is initial):

- ``wr``: the writer of version v  ->  every reader of version v
- ``ww``: the writer of version v  ->  the writer of version v+1
- ``rw``: every reader of version v  ->  the writer of version v+1

Acyclicity of this graph over the committed transactions (with the initial
transaction T0 as the source) certifies one-copy serializability of the
execution, because replicas also converge on a single version order per
object (checked separately by :func:`replicas_converged`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

INITIAL_TX = "T0(initial)"


@dataclass(frozen=True)
class CommittedTransaction:
    """What one committed transaction observed and produced.

    ``provisional`` records are written by a *cohort* (writes only, no read
    set) so the version order keeps a writer even when the initiator dies
    before recording; the initiator's full record upgrades them in place.
    """

    tx: str
    site: int
    reads: tuple[tuple[str, int], ...]  # (key, version read)
    writes: tuple[tuple[str, int], ...]  # (key, version installed)
    commit_time: float
    provisional: bool = False


@dataclass
class SerializationResult:
    """Outcome of the 1SR check."""

    acyclic: bool
    cycle: Optional[list[str]] = None
    version_conflicts: list[str] = field(default_factory=list)
    num_transactions: int = 0
    num_edges: int = 0

    @property
    def ok(self) -> bool:
        return self.acyclic and not self.version_conflicts

    def explain(self) -> str:
        if self.ok:
            return (
                f"1SR OK: {self.num_transactions} committed transactions, "
                f"{self.num_edges} edges, acyclic"
            )
        parts = []
        if self.cycle:
            parts.append("cycle: " + " -> ".join(self.cycle + [self.cycle[0]]))
        parts.extend(self.version_conflicts)
        return "1SR VIOLATION: " + "; ".join(parts)


class HistoryRecorder:
    """Global (omniscient-observer) record of the committed history."""

    def __init__(self) -> None:
        self.committed: list[CommittedTransaction] = []
        self._by_tx: dict[str, CommittedTransaction] = {}
        self._index: dict[str, int] = {}

    def record_commit(
        self,
        tx: str,
        site: int,
        reads: dict[str, int],
        writes: dict[str, int],
        commit_time: float,
    ) -> None:
        """Record a committed transaction (called once, by its initiator).

        An existing *provisional* record (from a cohort) is upgraded in
        place; a second full record is still an error.
        """
        existing = self._by_tx.get(tx)
        if existing is not None and not existing.provisional:
            raise ValueError(f"transaction {tx} recorded twice")
        writes_tuple = tuple(sorted(writes.items()))
        if existing is not None and not writes_tuple:
            # Initiator completing a transaction whose writes were installed
            # (and version-stamped) by the cohorts while it was partitioned
            # away: keep the cohort's authoritative versions.
            writes_tuple = existing.writes
        record = CommittedTransaction(
            tx,
            site,
            tuple(sorted(reads.items())),
            writes_tuple,
            commit_time,
        )
        if existing is not None:
            self.committed[self._index[tx]] = record
        else:
            self._index[tx] = len(self.committed)
            self.committed.append(record)
        self._by_tx[tx] = record

    def record_commit_provisional(
        self,
        tx: str,
        site: int,
        writes: dict[str, int],
        commit_time: float,
    ) -> None:
        """Record a commit observed at a cohort (writes only, no read set).

        Idempotent across cohorts — the first one wins — and a no-op once
        any record for ``tx`` exists.  Keeps the version order dense when
        the initiator crashes between the unanimous vote and its own
        :meth:`record_commit`.
        """
        if tx in self._by_tx:
            return
        record = CommittedTransaction(
            tx,
            site,
            (),
            tuple(sorted(writes.items())),
            commit_time,
            provisional=True,
        )
        self._index[tx] = len(self.committed)
        self.committed.append(record)
        self._by_tx[tx] = record

    def __len__(self) -> int:
        return len(self.committed)

    def _graph(self) -> tuple[dict[str, set[str]], list[str]]:
        """The one-copy serialization graph over the committed history, and
        the version conflicts found while building it."""
        writer_of: dict[tuple[str, int], str] = {}
        conflicts: list[str] = []
        max_version: dict[str, int] = {}

        for record in self.committed:
            for key, version in record.writes:
                slot = (key, version)
                if slot in writer_of:
                    conflicts.append(
                        f"{key} version {version} written by both "
                        f"{writer_of[slot]} and {record.tx}"
                    )
                else:
                    writer_of[slot] = record.tx
                max_version[key] = max(max_version.get(key, 0), version)

        # Version-order density: every version 1..max must have a writer.
        for key, top in sorted(max_version.items()):
            for version in range(1, top + 1):
                if (key, version) not in writer_of:
                    conflicts.append(f"{key} version {version} has no recorded writer")

        edges: dict[str, set[str]] = {}

        def add_edge(src: str, dst: str) -> None:
            if src != dst:
                edges.setdefault(src, set()).add(dst)

        for record in self.committed:
            for key, version in record.reads:
                if version > 0 and (key, version) not in writer_of:
                    conflicts.append(
                        f"{record.tx} read {key} version {version}, "
                        f"which no committed transaction wrote"
                    )
                writer = writer_of.get((key, version), INITIAL_TX) if version > 0 else INITIAL_TX
                add_edge(writer, record.tx)  # wr
                successor = writer_of.get((key, version + 1))
                if successor is not None:
                    add_edge(record.tx, successor)  # rw
            for key, version in record.writes:
                if version > 1:
                    predecessor = writer_of.get((key, version - 1))
                    if predecessor is not None:
                        add_edge(predecessor, record.tx)  # ww
                else:
                    add_edge(INITIAL_TX, record.tx)
                successor = writer_of.get((key, version + 1))
                if successor is not None:
                    add_edge(record.tx, successor)  # ww forward
        return edges, conflicts

    def check(self) -> SerializationResult:
        """Build the one-copy serialization graph and test acyclicity."""
        edges, conflicts = self._graph()
        num_edges = sum(  # detcheck: ignore[D106] — integer sum
            len(targets) for targets in edges.values())
        _, cycle = _depth_first(edges, sorted(edges, key=str))
        return SerializationResult(
            acyclic=cycle is None,
            cycle=cycle,
            version_conflicts=conflicts,
            num_transactions=len(self.committed),
            num_edges=num_edges,
        )

    def serial_order(self) -> Optional[list[str]]:
        """A topological order witnessing serializability, if acyclic."""
        edges, _ = self._graph()
        nodes = {record.tx for record in self.committed} | {INITIAL_TX}
        order, cycle = _depth_first(edges, sorted(nodes, key=str))
        if cycle is not None:
            return None
        order.reverse()
        return [tx for tx in order if tx != INITIAL_TX]


def _depth_first(
    edges: dict[str, set[str]], roots: list[str]
) -> tuple[list[str], Optional[list[str]]]:
    """Depth-first search from ``roots`` in the order given, successors in
    sorted order.  Returns ``(postorder, cycle)``: the first cycle met and
    the postorder up to it, or ``None`` and the complete postorder.

    Iterative, with an explicit stack: a ww-chain is as deep as the history
    is long, far past the interpreter's recursion limit.
    """
    postorder: list[str] = []
    seen: set[str] = set()
    on_path: set[str] = set()
    path: list[str] = []
    pending = [iter(roots)]  # the roots are the successors of no node
    while pending:
        for node in pending[-1]:
            if node in on_path:
                return postorder, path[path.index(node):]
            if node not in seen:
                seen.add(node)
                on_path.add(node)
                path.append(node)
                pending.append(iter(sorted(edges.get(node, ()), key=str)))
                break
        else:
            pending.pop()
            if path:
                done = path.pop()
                on_path.discard(done)
                postorder.append(done)
    return postorder, None


def replicas_converged(stores: Iterable) -> bool:
    """True when all replica stores expose identical committed state."""
    stores = iter(stores)
    first = next(stores, None)
    return first is None or all(first.same_state(store) for store in stores)
