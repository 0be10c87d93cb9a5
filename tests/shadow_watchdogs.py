"""The oracle for watchdogs that end with their record.

A protocol record keeps its watchdog in one ``timer`` slot, and
:meth:`~repro.core.replica.Replica._discharge` cancels it: a transaction
that has ended needs no presumed-abort, write-progress or vote-progress
check.  Before, the timer stayed queued until its deadline and then looked
the transaction up in ``_live`` by id.  It found nothing -- and returned --
unless a record for the same id had been opened again in the meantime:
that is the only way a cancelled watchdog could have acted.

:func:`install` notes each watchdog ``_discharge`` cancels, with its
deadline, and watches every site's ``_live`` table.  A record opened for an
id whose cancelled watchdog had not yet reached its deadline is a
disagreement.

Two ways to use it:

- ``python -m pytest -p tests.shadow_watchdogs ...``: every replica the
  selected tests build is watched, and a test during which a record was
  reopened under a cancelled watchdog fails at teardown;
- ``PYTHONPATH=src:. python -m tests.shadow_watchdogs [WORKLOAD ...]``
  runs benchmark workloads (all six by default) watched and prints the
  watchdogs cancelled and the disagreements found; exit 1 on any.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.replica import Replica

#: (replica class, site, tx, time reopened, deadline) of every disagreement.
DISAGREEMENTS: list[tuple[str, int, str, float, float]] = []
CANCELLED = [0]


class _WatchedLive(dict):
    """A site's ``_live`` table that checks each record it is given."""

    __slots__ = ("replica", "cancelled")

    def __init__(self, replica: Replica) -> None:
        super().__init__()
        self.replica = replica
        #: tx -> deadline of the watchdog ``_discharge`` cancelled for it.
        self.cancelled: dict[str, float] = {}

    def __setitem__(self, tx_id, record) -> None:
        deadline = self.cancelled.pop(tx_id, None)
        replica = self.replica
        if deadline is not None and replica.now < deadline:
            DISAGREEMENTS.append(
                (type(replica).__name__, replica.site, tx_id, replica.now, deadline)
            )
        super().__setitem__(tx_id, record)


def install() -> None:
    """Watch every replica built from now on (idempotent)."""
    if getattr(Replica._discharge, "watched", False):
        return
    init, discharge = Replica.__init__, Replica._discharge

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._live = _WatchedLive(self)

    def _discharge(self, tx_id: str) -> None:
        timer = getattr(self._live.get(tx_id), "timer", None)
        if timer is not None and timer.pending:
            CANCELLED[0] += 1
            self._live.cancelled[tx_id] = timer.fire_at
        discharge(self, tx_id)

    _discharge.watched = True
    Replica.__init__ = __init__
    Replica._discharge = _discharge


def pytest_configure(config) -> None:
    """``-p tests.shadow_watchdogs``: every replica's records are watched."""
    install()


@pytest.fixture(autouse=True)
def _no_record_reopened_under_a_cancelled_watchdog():
    DISAGREEMENTS.clear()
    yield
    assert not DISAGREEMENTS, f"records reopened under a cancelled watchdog: {DISAGREEMENTS[:5]}"


def pytest_terminal_summary(terminalreporter) -> None:
    terminalreporter.write_line(
        f"watchdog oracle: {CANCELLED[0]} watchdogs cancelled with their record"
    )


WORKLOADS = ("rbp_wide", "cbp_steady", "abp_hot_mix", "p2p_steady", "abp_lossy", "abp_churn")


def main(argv: list[str]) -> int:
    """Run benchmark workloads (seed 1, full length) watched, and print
    each one's cancelled watchdogs and disagreements."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    install()
    for name in argv or WORKLOADS:
        before = CANCELLED[0]
        session = workloads.build(workloads.BY_NAME[name], 1, 1.0)
        session.start()
        session.finish()
        print(
            f"{name}: {CANCELLED[0] - before} watchdogs cancelled with their record,"
            f" {len(DISAGREEMENTS)} disagreements"
        )
    return 1 if DISAGREEMENTS else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
