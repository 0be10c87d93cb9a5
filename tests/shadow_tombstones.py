"""The unbounded finished-transaction sets, kept as the oracle for the
tombstone book (``Replica._tombstones``).

Before the book, each protocol kept every transaction that ended at a site
for the rest of the run:

- CBP: every committed and every killed transaction, replaced wholesale by
  the donor's sets at a state transfer;
- P2P: every committed or purged transaction;
- RBP: every purged transaction.

:func:`install` keeps those sets beside every replica's book, by wrapping
the methods that used to add to them, and compares each
:meth:`~repro.core.replica.Replica._ended` lookup against them.  A lookup
that answers differently is a disagreement: a tombstone retired while a
message naming its transaction could still arrive (DESIGN.md,
"Tombstones").

Two ways to use it:

- ``python -m pytest -p tests.shadow_tombstones ...``: every replica the
  selected tests build is shadowed, and a test during which any lookup
  disagreed fails at teardown;
- ``PYTHONPATH=src:. python -m tests.shadow_tombstones [WORKLOAD ...]``
  runs benchmark workloads (all six by default) shadowed and prints the
  lookups made and the disagreements found; exit 1 on any.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.baselines.p2p_2pc import PointToPointReplica
from repro.core.causal_protocol import CausalBroadcastReplica
from repro.core.reliable_protocol import ReliableBroadcastReplica
from repro.core.replica import Replica

#: (replica class, site, tx, book's answer, time) of every disagreeing lookup.
DISAGREEMENTS: list[tuple[str, int, str, bool, float]] = []
LOOKUPS = [0]


def _shadow(replica: Replica) -> set[str]:
    shadow = replica.__dict__.get("_shadow_finished")
    if shadow is None:
        shadow = replica.__dict__["_shadow_finished"] = set()
    return shadow


def _adding(method, before: bool = False):
    """Wrap ``method(self, tx_id, ...)`` to add ``tx_id`` to the shadow set
    where the old code added it to its set: once ``method`` returns, or
    (``before``) as it is called."""

    def wrapper(self, tx_id, *args, **kwargs):
        if before:
            _shadow(self).add(tx_id)
        result = method(self, tx_id, *args, **kwargs)
        _shadow(self).add(tx_id)
        return result

    return wrapper


def install() -> None:
    """Shadow every replica built from now on (idempotent)."""
    if getattr(Replica._ended, "shadowed", False):
        return

    def _ended(self, tx_id: str) -> bool:
        answer = tx_id in self._tombstones
        LOOKUPS[0] += 1
        if answer != (tx_id in _shadow(self)):
            DISAGREEMENTS.append((type(self).__name__, self.site, tx_id, answer, self.now))
        return answer

    _ended.shadowed = True
    Replica._ended = _ended
    # CBP: a commit entered ``_finished``, a kill ``_dead``; a state
    # transfer replaced both with the donor's at export time.
    CausalBroadcastReplica._install_commit = _adding(Replica._install_commit, before=True)
    CausalBroadcastReplica._kill = _adding(CausalBroadcastReplica._kill)
    exported: dict[int, tuple[dict, set[str]]] = {}
    export, adopt = (
        CausalBroadcastReplica.export_protocol_state,
        CausalBroadcastReplica.adopt_protocol_state,
    )

    def export_protocol_state(self):
        state = export(self)
        exported[id(state)] = (state, set(_shadow(self)))
        return state

    def adopt_protocol_state(self, state):
        donor_state, donor_shadow = exported[id(state)]
        assert donor_state is state
        self.__dict__["_shadow_finished"] = set(donor_shadow)
        adopt(self, state)

    CausalBroadcastReplica.export_protocol_state = export_protocol_state
    CausalBroadcastReplica.adopt_protocol_state = adopt_protocol_state
    # P2P: every commit and every purge; RBP: every purge.
    PointToPointReplica._install_commit = _adding(Replica._install_commit, before=True)
    PointToPointReplica._purge = _adding(PointToPointReplica._purge)
    ReliableBroadcastReplica._purge = _adding(ReliableBroadcastReplica._purge)


def pytest_configure(config) -> None:
    """``-p tests.shadow_tombstones``: every replica checks its lookups."""
    install()


@pytest.fixture(autouse=True)
def _tombstone_lookups_agree():
    DISAGREEMENTS.clear()
    yield
    assert not DISAGREEMENTS, f"tombstone lookups disagreed: {DISAGREEMENTS[:5]}"


def pytest_terminal_summary(terminalreporter) -> None:
    terminalreporter.write_line(
        f"tombstone oracle: {LOOKUPS[0]} lookups compared with the unbounded sets"
    )


WORKLOADS = ("rbp_wide", "cbp_steady", "abp_hot_mix", "p2p_steady", "abp_lossy", "abp_churn")


def main(argv: list[str]) -> int:
    """Run benchmark workloads (seed 1, full length) shadowed, and print
    each one's lookups, disagreements and tombstones left at the end."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    install()
    for name in argv or WORKLOADS:
        before = LOOKUPS[0]
        session = workloads.build(workloads.BY_NAME[name], 1, 1.0)
        session.start()
        session.finish()
        left = sum(len(replica._tombstones) for replica in session.cluster.replicas)
        print(
            f"{name}: {LOOKUPS[0] - before} lookups, {len(DISAGREEMENTS)} disagreements,"
            f" {left} tombstones left"
        )
    return 1 if DISAGREEMENTS else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
