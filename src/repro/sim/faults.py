"""Declarative fault schedules for experiments and tests.

Fault-tolerance scenarios (E9, the failover example) share a shape: crash
this site at t1, partition at t2, heal at t3, recover at t4.  A
:class:`FaultSchedule` declares that timeline once, applies it to a
cluster, and keeps an audit log of what was injected when — so a test can
assert both the injections and their observable consequences.

Ordering contract (the churn engine leans on this):

- Fault events at **equal timestamps** fire in *declaration order* — the
  engine's same-time FIFO guarantee applied to the order the schedule's
  builder methods were called.  ``.heal(at=50).partition(g, at=50)`` heals
  the old split before installing the new one; declared the other way
  round, the heal would immediately undo the partition.
- **Loss windows** (:meth:`flaky_links`) are exempt from that sensitivity:
  they form a stack, each restore removes *its own window's* contribution,
  and the effective rate is always the most recently opened still-open
  window (or the base rate when none is open).  Two abutting windows
  ``[10, 30)`` and ``[30, 50)`` therefore produce the same loss timeline
  whichever declaration order their equal-``t=30`` events fire in — the
  overlap bug the churn property tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import Cluster


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded in the schedule's audit log."""

    time: float
    action: str
    detail: Any = None

    def __str__(self) -> str:
        return f"[{self.time:10.1f}] {self.action} {self.detail if self.detail is not None else ''}"


@dataclass
class FaultSchedule:
    """A timeline of fault injections against one cluster."""

    cluster: "Cluster"
    log: list[FaultEvent] = field(default_factory=list)
    #: Open loss windows in the order their raises fired: ``(token, rate)``.
    #: The effective loss rate is the last entry's rate; when the stack
    #: empties, the base rate captured when the first window opened.
    _loss_windows: list[tuple[object, float]] = field(default_factory=list)
    _loss_base: float = 0.0

    # -- declarations -------------------------------------------------------------

    def crash(self, site: int, at: float) -> "FaultSchedule":
        """Fail-stop ``site`` at time ``at``."""
        self._schedule(at, "crash", site, lambda: self.cluster.crash_site(site))
        return self

    def recover(self, site: int, at: float) -> "FaultSchedule":
        """Recover ``site`` (rejoin + state transfer) at time ``at``."""
        self._schedule(at, "recover", site, lambda: self.cluster.recover_site(site))
        return self

    def partition(self, groups: list[list[int]], at: float) -> "FaultSchedule":
        """Split the network into ``groups`` at time ``at``."""
        self._schedule(
            at, "partition", groups, lambda: self.cluster.partition(groups)
        )
        return self

    def heal(self, at: float) -> "FaultSchedule":
        """Restore full connectivity at time ``at``."""
        self._schedule(at, "heal", None, self.cluster.heal_partition)
        return self

    def flap(
        self,
        groups: list[list[int]],
        at: float,
        hold: float,
        gap: float,
        cycles: int,
    ) -> "FaultSchedule":
        """``cycles`` short partitions: split into ``groups`` for ``hold``
        time units, heal, wait ``gap``, repeat.

        The flapping-partition shape of the E12 loss sweep: with ARQ
        transports, datagrams dropped during each split are retransmitted
        after the heal, so transactions finish instead of being retried.
        """
        if cycles < 1:
            raise ValueError("cycles must be at least 1")
        start = at
        for _ in range(cycles):
            self.partition(groups, at=start)
            self.heal(at=start + hold)
            start += hold + gap
        return self

    def flaky_links(self, loss_rate: float, at: float, until: Optional[float] = None) -> "FaultSchedule":
        """Open a loss window: raise the loss rate at ``at``, restore at
        ``until`` (or at a later :meth:`restore_links` when ``until`` is
        None — an open-ended window no longer leaks silently; it stays on
        the window stack, so any later bounded window restores back to *it*
        rather than clobbering the rate to base).

        Windows nest and overlap deterministically: the rate in effect is
        always the most recently opened still-open window's.  Each restore
        removes only its own window, and the pre-window base rate is
        captured when the *first* window opens (at fire time, not at
        declaration time — the historical declaration-time capture made
        overlapping windows restore to stale rates).

        Only meaningful when the cluster's transports run in ARQ mode (any
        construction-time ``loss_rate`` > 0, or ``reliable_links=True`` on
        a lossless build); raising loss on passthrough transports would
        break the reliable-link assumption, so this guards against it.
        """
        if until is not None and until <= at:
            raise ValueError(f"loss window must end after it starts ({at} .. {until})")
        network = self.cluster.network
        if loss_rate > 0 and any(t.passthrough for t in self.cluster.transports):
            raise ValueError(
                "flaky_links needs the ARQ transport on every site: build "
                "the cluster with loss_rate > 0 or reliable_links=True"
            )
        token = object()

        def raise_loss() -> None:
            if not self._loss_windows:
                self._loss_base = network.loss_rate
            self._loss_windows.append((token, loss_rate))
            network.loss_rate = loss_rate

        def restore() -> None:
            self._close_windows({token})

        self._schedule(at, "flaky_links", loss_rate, raise_loss)
        if until is not None:
            self._schedule(until, "flaky_links_restore", loss_rate, restore)
        return self

    def restore_links(self, at: float) -> "FaultSchedule":
        """Close every loss window still open at ``at`` (the explicit end
        of open-ended :meth:`flaky_links` windows): the loss rate returns
        to the pre-window base."""

        def restore_all() -> None:
            self._close_windows({token for token, _ in self._loss_windows})

        self._schedule(at, "restore_links", None, restore_all)
        return self

    def _close_windows(self, tokens: set[object]) -> None:
        self._loss_windows = [w for w in self._loss_windows if w[0] not in tokens]
        network = self.cluster.network
        if self._loss_windows:
            network.loss_rate = self._loss_windows[-1][1]
        else:
            network.loss_rate = self._loss_base

    # -- audit ---------------------------------------------------------------------

    def events(self, action: Optional[str] = None) -> list[FaultEvent]:
        if action is None:
            return list(self.log)
        return [event for event in self.log if event.action == action]

    def describe(self) -> str:
        return "\n".join(str(event) for event in sorted(self.log, key=lambda e: e.time))

    # -- internals -------------------------------------------------------------------

    def _schedule(self, at: float, action: str, detail: Any, fn) -> None:
        def fire() -> None:
            # Scripted fault plan: each action fires exactly once at its
            # pre-planned time, so there is no stale firing to guard against.
            # detcheck: ignore[H401]
            self.log.append(FaultEvent(self.cluster.engine.now, action, detail))
            fn()

        # detcheck: ignore[P203] — fault injections ARE the experiment plan;
        # they must fire unconditionally at their scripted times.
        self.cluster.engine.schedule_at(at, fire)
