"""Executable one-copy serializability checking, online.

The paper proves its protocols produce one-copy serializable executions via
one-copy serialization graphs [BG87, BHG87].  This module turns that proof
technique into a runtime check: a global :class:`HistoryRecorder` is told,
for every *committed* transaction, the exact versions it read and
installed, adds that transaction's edges to the graph as the record comes
in, and keeps the graph acyclic as it goes.  :meth:`HistoryRecorder.check`
reads the verdict so far; nothing is built at the end of the run.

Edges (versions are per-object and dense, version 0 is initial):

- ``wr``: the writer of version v  ->  every reader of version v
- ``ww``: the writer of version v  ->  the writer of version v+1
- ``rw``: every reader of version v  ->  the writer of version v+1

Acyclicity of this graph over the committed transactions (with the initial
transaction T0 as the source) certifies one-copy serializability of the
execution, because replicas also converge on a single version order per
object (checked separately by :func:`replicas_converged`).

**Online.**  The recorder keeps a topological order of the records it
holds and repairs it per edge (Pearce and Kelly, *A dynamic topological
sort algorithm for directed acyclic graphs*, JEA 2006): an edge that agrees
with the order costs nothing, one that points backwards reorders only the
records between its ends.  An edge that closes a cycle is reported at the
record that adds it, with the cycle's transaction ids.  Per key it keeps
the writer (and any duplicate writers) and the readers of each version it
still needs, so duplicate, missing and unwritten versions are found however
the records interleave.

**Retirement.**  A record the recorder no longer needs is dropped.  The
cluster that owns the recorder supplies a *horizon* (see
:meth:`HistoryRecorder.__init__`): for each key, its *floor* — the lowest
version of the key that any replica's store holds as its latest, up or
down, and that any live attempt at its home has read — and the ids of the
attempts still live at their homes.  Every :data:`CHUNK` records the
recorder asks for it and retires what it can.  A record is *closed* when

1. its full record is in: it is not provisional, or its home no longer
   holds the transaction (:meth:`HistoryRecorder.record_commit_provisional`
   explains why that is the hard case), and no read of it waits for a
   writer; and
2. for every key k it wrote at version v, the floor of k is at least v.

A closed record is *retired* once every record with an edge into it is
retired.  Why no later record can add an edge into a retired one (so a
retired record is never on a cycle, and the held records' order is the tail
of a serial order of the whole history):

- every version that any store holds was recorded when it was installed
  (the install and the record call are one step), and a store's latest
  version never goes down; so below the floor of k every version has its
  writer recorded, and every later install of k makes a version above it;
- a later *read* of k happens at some store, or was already made by a live
  home attempt, and so reads a version at or above the floor;
- ``ww``: a record writing k at v gets an edge from the writer of v-1.  A
  later writer of k writes above the floor, so at most the writer of the
  floor gains an *outgoing* edge;
- ``wr``: an edge from the writer of v into each reader of v.  A reader's
  writer is recorded before the reader reads (installed first), and a
  record still waiting for one is not closed; an edge out of an old
  writer into a new reader is harmless;
- ``rw``: an edge from every reader of v-1 into the writer of v.  This is
  the only edge a late record can aim at an old writer, and only a late
  reader of v-1 can: a home attempt that read v-1 and has not committed
  yet.  That is why the floor counts the reads of live home attempts: while
  one holds v-1 of k, the floor of k is at most v-1 and the writer of v is
  not closed.

A retired record may still be a reader of a version nobody has overwritten
yet, and the next writer of that version owes it an ``rw`` edge.  That edge
leaves a retired record, so it closes no cycle and only its count matters:
retirement takes the reader's name out of such versions and keeps a count
per group of readers with the same open versions, and the next writer adds
each group it meets once.  A retired reader that also wrote the version at
its key's floor could still gain an edge to that writer through its write,
so it keeps its name (it *lingers*) until the floor passes its write.

A record, a read or a write that contradicts this (a read below the floor
or a write under it) is reported as a version conflict rather than
silently attached to a record that is gone.  With no horizon (a recorder
built on its own, as in unit tests) nothing is ever retired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Optional

from repro.db.wal import CHUNK

INITIAL_TX = "T0(initial)"

#: ``horizon(keys) -> (floor, live)``: the floor of each of ``keys`` and the
#: ids of the attempts still live at their homes (see the module docstring).
Horizon = Callable[[Iterable[str]], tuple[dict[str, int], Collection[str]]]


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
    #: The record whose edge closed ``cycle``.
    closed_by: Optional[str] = None

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
            parts.append(
                "cycle: " + " -> ".join(self.cycle + [self.cycle[0]])
                + f" (closed by {self.closed_by})"
            )
        parts.extend(self.version_conflicts)
        return "1SR VIOLATION: " + "; ".join(parts)


class _Node:
    """One held record and its place in the graph.  ``preds`` and ``succs``
    are insertion-ordered id sets (dicts), so every search is replayable."""

    __slots__ = (
        "tx", "site", "reads", "writes", "commit_time", "provisional",
        "preds", "succs", "order", "pending",
    )

    def __init__(self, tx: str, site: int, writes: tuple, commit_time: float,
                 provisional: bool, order: int) -> None:
        self.tx = tx
        self.site = site
        self.reads: tuple[tuple[str, int], ...] = ()
        self.writes = writes
        self.commit_time = commit_time
        self.provisional = provisional
        self.preds: dict[str, None] = {}
        self.succs: dict[str, None] = {}
        #: Position in the topological order of the held records.
        self.order = order
        #: Reads of a version whose writer is not recorded yet.
        self.pending = 0


class _Slot:
    """One version of one key: its first writer, any later (conflicting)
    writers, and its readers while an edge may still need them (empty
    tuples until the first one: most versions never have either)."""

    __slots__ = ("writer", "others", "readers")

    def __init__(self) -> None:
        self.writer: Optional[str] = None
        self.others: tuple[str, ...] = ()
        self.readers: list[str] | tuple = ()

    def writers(self) -> tuple[str, ...]:
        return self.others if self.writer is None else (self.writer, *self.others)

    def add_reader(self, tx: str) -> None:
        if self.readers:
            self.readers.append(tx)
        else:
            self.readers = [tx]


class _Key:
    """The versions of one key still held: ``slots`` from ``base`` up, and
    ``top``, the highest version any record wrote."""

    __slots__ = ("slots", "base", "top")

    def __init__(self) -> None:
        self.slots: dict[int, _Slot] = {}
        self.base = 0
        self.top = 0

    def slot(self, version: int) -> _Slot:
        slot = self.slots.get(version)
        if slot is None:
            slot = self.slots[version] = _Slot()
        return slot

    def writer(self, version: int) -> Optional[str]:
        slot = self.slots.get(version)
        return slot.writer if slot is not None else None


class HistoryRecorder:
    """Global (omniscient-observer) online check of the committed history."""

    def __init__(self, horizon: Optional[Horizon] = None) -> None:
        """``horizon``: where retirement learns what is still live (the
        owning cluster supplies it); ``None`` keeps every record."""
        self._horizon = horizon
        #: Held records by id, in record order.
        self._nodes: dict[str, _Node] = {}
        self._keys: dict[str, _Key] = {}
        self._next_order = 0
        self._recorded = 0
        self._edges = 0
        #: Conflicts that later records cannot undo.
        self._conflicts: list[str] = []
        self._cycle: Optional[list[str]] = None
        self._closed_by: Optional[str] = None
        #: Retired readers of versions not yet overwritten, as counts: a
        #: group is the readers whose open versions are exactly its key.
        self._folded: dict[tuple[tuple[str, int], ...], int] = {}
        #: (key, version) -> the groups that read it.
        self._groups_at: dict[tuple[str, int], dict[tuple, None]] = {}
        #: Retired readers still named in a slot (reads, writes): each
        #: wrote a version at its key's floor, where a later record's edge
        #: may still name it.
        self._lingering: dict[str, tuple[tuple, tuple]] = {}

    # -- recording ----------------------------------------------------------

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
        node = self._nodes.get(tx)
        if node is not None and not node.provisional:
            raise ValueError(f"transaction {tx} recorded twice")
        added = node is None
        writes_tuple = tuple(sorted(writes.items()))
        if added:
            node = self._add(tx, site, writes_tuple, commit_time, provisional=False)
        else:
            # Upgrade.  An empty write set is an initiator completing a
            # transaction whose writes were installed (and version-stamped)
            # by the cohorts while it was partitioned away: keep theirs.
            if writes_tuple and writes_tuple != node.writes:
                self._conflicts.append(
                    f"{tx} installed {dict(writes_tuple)} at its home "
                    f"but {dict(node.writes)} at a cohort"
                )
            node.site = site
            node.commit_time = commit_time
            node.provisional = False
        node.reads = tuple(sorted(reads.items()))
        for key, version in node.reads:
            self._read(node, key, version)
        self._recorded_one(tx, added)

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

        This is retirement's hard case.  While the home still holds the
        transaction, its full record may yet arrive and add the read set:
        ``wr`` edges *into* this record from the writers of what it read,
        and ``rw`` edges out of it.  So a provisional record is not closed
        until its home has let the transaction go (committed, aborted or
        crashed).  The upgrade's reads are a live home attempt's reads,
        which the floor already counts, so the writers its ``rw`` edges aim
        at are not closed either.  An upgrade whose write set differs from
        the cohort's is reported as a conflict: the two installs disagree
        on the version order.
        """
        if tx in self._nodes:
            return
        self._add(tx, site, tuple(sorted(writes.items())), commit_time, provisional=True)
        self._recorded_one(tx, added=True)

    def _add(self, tx: str, site: int, writes: tuple, commit_time: float,
             provisional: bool) -> _Node:
        node = _Node(tx, site, writes, commit_time, provisional, self._next_order)
        self._next_order += 1
        self._nodes[tx] = node
        self._recorded += 1
        for key, version in writes:
            self._write(node, key, version)
        if self._groups_at:
            self._close_folded(node)
        return node

    def _recorded_one(self, tx: str, added: bool) -> None:
        if self._cycle is not None and self._closed_by is None:
            self._closed_by = tx
        if added and self._horizon is not None and self._recorded % CHUNK == 0:
            self._retire()

    def _key(self, key: str) -> _Key:
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = _Key()
        return state

    def _write(self, node: _Node, key: str, version: int) -> None:
        state = self._key(key)
        if version < state.base:
            self._below_floor(node.tx, "wrote", key, version, state.base)
            return
        state.top = max(state.top, version)
        slot = state.slot(version)
        if version <= 1:
            self._edge(INITIAL_TX, node.tx)
        previous = state.slots.get(version - 1)
        following = state.slots.get(version + 1)
        if slot.writer is not None:
            # A duplicate keeps only its own ww edges, as the first writer
            # owns the version: from the first writer of v-1, to the first
            # writer of v+1.
            self._conflicts.append(
                f"{key} version {version} written by both {slot.writer} and {node.tx}"
            )
            slot.others += (node.tx,)
            if version > 1 and previous is not None and previous.writer is not None:
                self._edge(previous.writer, node.tx)
            if following is not None and following.writer is not None:
                self._edge(node.tx, following.writer)
            return
        slot.writer = node.tx
        if previous is not None:
            for writer in previous.writers():  # ww
                self._edge(writer, node.tx)
            for reader in previous.readers:  # rw
                self._edge(reader, node.tx)
            if version - 1 == 0 or previous.writer is not None:
                previous.readers = ()
        if following is not None:
            # ww; a duplicate writer of version 1 has no edge from version 0.
            for writer in following.writers() if version > 0 else following.writers()[:1]:
                self._edge(node.tx, writer)
        if version > 0:
            for reader in slot.readers:  # wr, to readers that waited
                self._edge(node.tx, reader)
                self._nodes[reader].pending -= 1
        if following is not None and following.writer is not None:
            slot.readers = ()

    def _read(self, node: _Node, key: str, version: int) -> None:
        state = self._key(key)
        if version < state.base:
            self._below_floor(node.tx, "read", key, version, state.base)
            return
        writer = state.writer(version)
        if version == 0:
            self._edge(INITIAL_TX, node.tx)
        elif writer is not None:
            self._edge(writer, node.tx)  # wr
        else:
            node.pending += 1
        successor = state.writer(version + 1)
        if successor is not None:
            self._edge(node.tx, successor)  # rw
        if (version > 0 and writer is None) or successor is None:
            state.slot(version).add_reader(node.tx)

    def _below_floor(self, tx: str, verb: str, key: str, version: int, base: int) -> None:
        self._conflicts.append(
            f"{tx} {verb} {key} version {version}, below its retirement floor {base}"
        )

    # -- the graph -----------------------------------------------------------

    def _edge(self, src: str, dst: str) -> None:
        if src == dst:
            return
        target = self._nodes.get(dst)
        if target is None:
            self._conflicts.append(f"edge {src} -> {dst} into a retired record")
            return
        if src in target.preds:
            return
        target.preds[src] = None
        self._edges += 1
        source = self._nodes.get(src)
        if source is None:  # the initial transaction, or retired: both precede every held record
            return
        source.succs[dst] = None
        if self._cycle is None and source.order > target.order:
            self._reorder(source, target)

    def _reorder(self, source: _Node, target: _Node) -> None:
        """Pearce–Kelly for the edge ``source -> target`` that points
        backwards in the order: collect what ``target`` reaches below
        ``source``'s position (reaching ``source`` itself is a cycle) and
        what reaches ``source`` above ``target``'s, then hand the first
        group's positions to the second group followed by the first."""
        nodes = self._nodes
        upper, lower = source.order, target.order
        forward = [target]
        parent = {target.tx: None}
        stack = [target]
        while stack:
            node = stack.pop()
            for succ in node.succs:
                if succ in parent:
                    continue
                reached = nodes.get(succ)
                if reached is None or reached.order > upper:
                    continue
                parent[succ] = node.tx
                if reached is source:
                    self._cycle = _rotated(_path(parent, source.tx))
                    return
                forward.append(reached)
                stack.append(reached)
        backward = [source]
        seen = {source.tx}
        stack = [source]
        while stack:
            node = stack.pop()
            for pred in node.preds:
                if pred in seen:
                    continue
                reached = nodes.get(pred)
                if reached is None or reached.order < lower:
                    continue
                seen.add(pred)
                backward.append(reached)
                stack.append(reached)
        backward.sort(key=_order)
        forward.sort(key=_order)
        moved = backward + forward
        for node, order in zip(moved, sorted(node.order for node in moved)):
            node.order = order

    def _close_folded(self, node: _Node) -> None:
        """The ``rw`` edges from folded readers into ``node``, a new writer:
        one per reader of a version it overwrites, so a group counts once
        however many of its versions ``node`` overwrites.  A group keeps
        the versions still open."""
        closed = {}
        for key, version in node.writes:
            if (key, version - 1) in self._groups_at and self._keys[key].writer(version) == node.tx:
                closed[(key, version - 1)] = None
        groups = dict.fromkeys(group for slot in closed for group in self._groups_at[slot])
        for group in groups:
            count = self._folded.pop(group)
            self._edges += count
            for slot in group:
                members = self._groups_at[slot]
                del members[group]
                if not members:
                    del self._groups_at[slot]
            rest = tuple(slot for slot in group if slot not in closed)
            if rest:
                self._fold(rest, count)

    def _fold(self, group: tuple[tuple[str, int], ...], count: int) -> None:
        if group in self._folded:
            self._folded[group] += count
            return
        self._folded[group] = count
        for slot in group:
            self._groups_at.setdefault(slot, {})[group] = None

    # -- retirement ------------------------------------------------------------

    def _retire(self) -> None:
        """Drop the versions below each floor and the records that are
        closed and have only retired predecessors, in topological order so
        a chain retires in one pass, then fold the retired readers.
        Touches only the keys the held and lingering records wrote."""
        nodes = self._nodes
        keys = dict.fromkeys(key for node in nodes.values() for key, _ in node.writes)
        keys.update((key, None) for _, writes in self._lingering.values() for key, _ in writes)
        floor, live = self._horizon(keys)
        for key in keys:
            self._drop_below(key, self._keys[key], floor.get(key, 0))
        retired = []
        for node in sorted(nodes.values(), key=_order):
            if node.pending or (node.provisional and node.tx in live):
                continue
            if any(floor.get(key, 0) < version for key, version in node.writes):
                continue
            if any(pred in nodes for pred in node.preds):
                continue
            del nodes[node.tx]
            retired.append(node)
        self._fold_readers(retired, floor)

    def _fold_readers(self, retired: list[_Node], floor: dict[str, int]) -> None:
        """Take retired readers out of the versions they read that are not
        overwritten yet, into counts (a version read often and seldom
        written would otherwise name every reader for the rest of the run).
        The edge to the next writer of such a version can close no cycle;
        only its count is owed, once per reader, so a reader that could
        still gain that edge another way — it wrote a version at its key's
        floor — keeps its name (it *lingers*) until the floor passes it."""
        candidates = dict(self._lingering)
        candidates.update((node.tx, (node.reads, node.writes)) for node in retired if node.reads)
        self._lingering = {}
        gone: dict[tuple[str, int], set[str]] = {}
        for tx, (reads, writes) in candidates.items():
            open_ = tuple(
                (key, version) for key, version in reads
                if version >= self._keys[key].base and self._keys[key].writer(version + 1) is None
            )
            if not open_:
                continue
            if any(version >= floor.get(key, 0) for key, version in writes):
                self._lingering[tx] = (reads, writes)
                continue
            for slot in open_:
                gone.setdefault(slot, set()).add(tx)
            self._fold(open_, 1)
        for (key, version), names in gone.items():
            slot = self._keys[key].slots[version]
            slot.readers = [reader for reader in slot.readers if reader not in names] or ()

    def _drop_below(self, key: str, state: _Key, floor: int) -> None:
        for version in range(state.base, floor):
            slot = state.slots.pop(version, None)
            if version <= 0 or (slot is not None and slot.writer is not None):
                continue
            if version <= state.top:
                self._conflicts.append(f"{key} version {version} has no recorded writer")
            for reader in slot.readers if slot is not None else ():
                self._conflicts.append(
                    f"{reader} read {key} version {version}, which no committed transaction wrote"
                )
        state.base = max(state.base, floor)

    # -- the verdict -----------------------------------------------------------

    def __len__(self) -> int:
        return self._recorded

    def check(self) -> SerializationResult:
        """The verdict over everything recorded so far: O(held records
        and versions), no graph build."""
        conflicts = list(self._conflicts)
        edges = self._edges
        for key in sorted(self._keys):
            state = self._keys[key]
            for version in range(max(state.base, 1), state.top + 1):
                if state.writer(version) is None:
                    conflicts.append(f"{key} version {version} has no recorded writer")
        for node in sorted(self._nodes.values(), key=_order):
            if not node.pending:
                continue
            for key, version in node.reads:
                state = self._keys[key]
                if version > 0 and version >= state.base and state.writer(version) is None:
                    conflicts.append(
                        f"{node.tx} read {key} version {version}, "
                        f"which no committed transaction wrote"
                    )
            if INITIAL_TX not in node.preds:
                edges += 1  # the unwritten version reads as the initial one
        return SerializationResult(
            acyclic=self._cycle is None,
            cycle=list(self._cycle) if self._cycle is not None else None,
            version_conflicts=conflicts,
            num_transactions=self._recorded,
            num_edges=edges,
            closed_by=self._closed_by,
        )

    def held(self) -> list[CommittedTransaction]:
        """The records not yet retired, in the order :meth:`serial_order`
        gives them."""
        return [
            CommittedTransaction(
                node.tx, node.site, node.reads, node.writes, node.commit_time, node.provisional
            )
            for node in sorted(self._nodes.values(), key=_order)
        ]

    def serial_order(self) -> Optional[list[str]]:
        """The held records in an order witnessing serializability, or
        ``None`` once a cycle was found.  Every retired record precedes
        every held one in some serial order, so this is the tail of one;
        while nothing has retired it is the whole of one."""
        if self._cycle is not None:
            return None
        return [node.tx for node in sorted(self._nodes.values(), key=_order)]


def _order(node: _Node) -> int:
    return node.order


def _path(parent: dict[str, Optional[str]], end: str) -> list[str]:
    path = [end]
    while (step := parent[path[-1]]) is not None:
        path.append(step)
    path.reverse()
    return path


def _rotated(cycle: list[str]) -> list[str]:
    """``cycle`` starting from its smallest id: the same cycle reads the
    same whichever of its edges closed it."""
    start = cycle.index(min(cycle))
    return cycle[start:] + cycle[:start]


def replicas_converged(stores: Iterable) -> bool:
    """True when all replica stores expose identical committed state."""
    stores = iter(stores)
    first = next(stores, None)
    return first is None or all(first.same_state(store) for store in stores)
