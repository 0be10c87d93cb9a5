"""The offline 1SR check, kept as the oracle for the online one.

:class:`OfflineHistory` keeps every committed record and builds the whole
one-copy serialization graph when asked, as ``repro.db.serialization``
did before it checked online.  :class:`TeedRecorder` is the online
:class:`~repro.db.serialization.HistoryRecorder` fed the same record calls
as an :class:`OfflineHistory`; its ``check()`` fails unless the two
verdicts agree (:func:`assert_same_verdict`).

Three ways to use it:

- in a test, ``offline = shadow(cluster.recorder)`` tees one recorder;
- ``python -m pytest -p tests.offline_1sr ...`` tees every cluster the
  selected tests build (the plugin swaps the recorder class ``Cluster``
  constructs);
- ``PYTHONPATH=src python -m tests.offline_1sr [WORKLOAD ...]`` runs
  benchmark workloads (all six by default) teed and prints both verdicts.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional

from repro.db.serialization import (
    INITIAL_TX,
    CommittedTransaction,
    HistoryRecorder,
    SerializationResult,
)


class OfflineHistory:
    """Every committed record, and the graph built from all of them."""

    def __init__(self) -> None:
        self.committed: list[CommittedTransaction] = []
        self._by_tx: dict[str, CommittedTransaction] = {}
        self._index: dict[str, int] = {}

    def record_commit(self, tx, site, reads, writes, commit_time) -> None:
        existing = self._by_tx.get(tx)
        if existing is not None and not existing.provisional:
            raise ValueError(f"transaction {tx} recorded twice")
        writes_tuple = tuple(sorted(writes.items()))
        if existing is not None and not writes_tuple:
            writes_tuple = existing.writes
        record = CommittedTransaction(
            tx, site, tuple(sorted(reads.items())), writes_tuple, commit_time
        )
        if existing is not None:
            self.committed[self._index[tx]] = record
        else:
            self._index[tx] = len(self.committed)
            self.committed.append(record)
        self._by_tx[tx] = record

    def record_commit_provisional(self, tx, site, writes, commit_time) -> None:
        if tx in self._by_tx:
            return
        record = CommittedTransaction(
            tx, site, (), tuple(sorted(writes.items())), commit_time, provisional=True
        )
        self._index[tx] = len(self.committed)
        self.committed.append(record)
        self._by_tx[tx] = record

    def graph(self) -> tuple[dict[str, set[str]], list[str]]:
        """The one-copy serialization graph and the version conflicts."""
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
                add_edge(writer, record.tx)
                successor = writer_of.get((key, version + 1))
                if successor is not None:
                    add_edge(record.tx, successor)
            for key, version in record.writes:
                if version > 1:
                    predecessor = writer_of.get((key, version - 1))
                    if predecessor is not None:
                        add_edge(predecessor, record.tx)
                else:
                    add_edge(INITIAL_TX, record.tx)
                successor = writer_of.get((key, version + 1))
                if successor is not None:
                    add_edge(record.tx, successor)
        return edges, conflicts

    def check(self) -> SerializationResult:
        edges, conflicts = self.graph()
        cycle = _find_cycle(edges)
        return SerializationResult(
            acyclic=cycle is None,
            cycle=cycle,
            version_conflicts=conflicts,
            num_transactions=len(self.committed),
            num_edges=sum(len(targets) for targets in edges.values()),
        )


def _find_cycle(edges: dict[str, set[str]]) -> Optional[list[str]]:
    """The first cycle an iterative depth-first search meets (roots and
    successors in sorted order), or ``None``."""
    seen: set[str] = set()
    on_path: set[str] = set()
    path: list[str] = []
    pending = [iter(sorted(edges))]
    while pending:
        for node in pending[-1]:
            if node in on_path:
                return path[path.index(node):]
            if node not in seen:
                seen.add(node)
                on_path.add(node)
                path.append(node)
                pending.append(iter(sorted(edges.get(node, ()))))
                break
        else:
            pending.pop()
            if path:
                on_path.discard(path.pop())
    return None


def assert_same_verdict(online: SerializationResult, offline: OfflineHistory) -> None:
    """The online verdict is the offline one: same counts, same conflicts
    (as a multiset), acyclic alike, and an online cycle is a cycle of the
    offline graph."""
    expected = offline.check()
    assert (online.acyclic, online.num_transactions, online.num_edges) == (
        expected.acyclic, expected.num_transactions, expected.num_edges
    ), (online.explain(), expected.explain())
    assert sorted(online.version_conflicts) == sorted(expected.version_conflicts)
    if online.cycle is not None:
        edges, _ = offline.graph()
        closing = online.cycle + online.cycle[:1]
        assert all(dst in edges.get(src, ()) for src, dst in zip(closing, closing[1:]))


def shadow(recorder: HistoryRecorder) -> OfflineHistory:
    """Feed ``recorder``'s record calls to a new :class:`OfflineHistory`
    too, and return it."""
    offline = OfflineHistory()
    for name in ("record_commit", "record_commit_provisional"):
        online_call, offline_call = getattr(recorder, name), getattr(offline, name)

        def tee(*args, _online=online_call, _offline=offline_call, **kwargs):
            _offline(*args, **kwargs)
            _online(*args, **kwargs)

        setattr(recorder, name, tee)
    return offline


class TeedRecorder(HistoryRecorder):
    """The online recorder, shadowed; ``check()`` asserts the verdicts agree."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.offline = shadow(self)
        self.checks = 0

    def check(self) -> SerializationResult:
        result = super().check()
        assert_same_verdict(result, self.offline)
        self.checks += 1
        return result


def pytest_configure(config) -> None:
    """``-p tests.offline_1sr``: every ``Cluster`` checks against the oracle."""
    import repro.core.cluster

    repro.core.cluster.HistoryRecorder = TeedRecorder


WORKLOADS = ("rbp_wide", "cbp_steady", "abp_hot_mix", "p2p_steady", "abp_lossy", "abp_churn")


def main(argv: list[str]) -> int:
    """Run benchmark workloads (seed 1, full length) with the recorder
    teed, and print the online and offline verdicts of each."""
    import repro.core.cluster

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    repro.core.cluster.HistoryRecorder = TeedRecorder
    for name in argv or WORKLOADS:
        session = workloads.build(workloads.BY_NAME[name], 1, 1.0)
        session.start()
        result = session.finish()  # checks, and so compares
        held = len(session.cluster.recorder.held())
        print(f"{name}: online  {result.serialization.explain()} ({held} held)")
        print(f"{name}: offline {session.cluster.recorder.offline.check().explain()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
