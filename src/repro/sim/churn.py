"""Seeded churn plans for long soaks: the E13 scenario engine.

A :class:`ChurnSchedule` layers on :class:`repro.sim.faults.FaultSchedule`
and *generates* fault timelines instead of hand-placing every event: rolling
crash/recover (with the cluster's message-based state transfer doing the
rejoin work) and membership cascades (several near-simultaneous crashes, so
the coordinator installs a cascade of shrinking views), both with seeded
inter-event gaps drawn from an injected RNG stream, so a churn plan is a
pure function of the cluster seed.

Contracts the oracles (:mod:`repro.sim.oracles`) rely on:

- **Quorum preservation.**  A generated plan never takes down more sites
  concurrently than leaves a majority standing; declaring one that would is
  a :class:`ValueError` at declaration time, not a mysterious stall at run
  time.  The liveness oracle may therefore treat *any* sufficiently long
  commit stall as a failure.
- **Detectability.**  Crash downtimes default to comfortably above the
  failure detector's timeout, so every crash produces a view change (and
  every recovery a join + state transfer) rather than a sub-timeout blip
  the protocols would ride out by blocking.
- **Determinism.**  The whole plan is drawn at declaration time from the
  cluster's ``"churn"`` RNG stream; two clusters with equal seeds get
  byte-identical plans (the E13 digest tests depend on it).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

from repro.sim.faults import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import Cluster

#: (low, high) simulated-ms ranges for seeded draws.
Span = tuple[float, float]


class ChurnSchedule:
    """Generates seeded fault timelines against one cluster.

    Builder methods return the simulated time at which their generated
    phase ends, so phases chain naturally::

        churn = ChurnSchedule(cluster)
        t = churn.rolling_restart(start=2_000.0, victims=(1, 2, 3))
        t = churn.cascade(at=t + 1_000.0, victims=(4, 5))

    The underlying :class:`FaultSchedule` is exposed as :attr:`faults` for
    its audit log; :attr:`plan` records what was *declared* (available
    before the run, unlike the audit log which fills at fire time).
    """

    def __init__(self, cluster: "Cluster", rng: Optional[random.Random] = None):
        if not cluster.config.enable_failure_detector:
            raise ValueError(
                "churn needs the failure detector: without view changes a "
                "crashed site stalls every protocol's acknowledgment rounds "
                "(build the cluster with enable_failure_detector=True)"
            )
        self.cluster = cluster
        self.faults = FaultSchedule(cluster)
        self.rng = rng if rng is not None else cluster.rng.stream("churn")
        #: Declared events: ``(time, action, site_or_detail)`` tuples in
        #: declaration order.
        self.plan: list[tuple[float, str, object]] = []
        #: Per-site down intervals already declared: site -> [(crash, recover)].
        self._down: dict[int, list[tuple[float, float]]] = {}

    # -- derived limits ---------------------------------------------------------

    @property
    def max_concurrent_down(self) -> int:
        """Most sites the plan may hold down at once while a majority of
        all sites stays up (the quorum-preservation contract)."""
        return (self.cluster.config.num_sites - 1) // 2

    def default_victims(self) -> list[int]:
        """Every site except 0 — restarting the stable lowest-id site is a
        coordinator-failover experiment, not background churn."""
        return list(range(1, self.cluster.config.num_sites))

    def _default_downtime(self) -> Span:
        """Comfortably above the detector timeout (see Detectability)."""
        timeout = self.cluster.config.fd_timeout
        return (2.0 * timeout, 4.0 * timeout)

    # -- generated phases -------------------------------------------------------

    def rolling_restart(
        self,
        start: float,
        victims: Optional[Sequence[int]] = None,
        downtime: Optional[Span] = None,
        gap: Optional[Span] = None,
    ) -> float:
        """One site at a time: crash, hold down for a seeded downtime (the
        view shrinks, traffic continues), recover (join + state transfer),
        wait a seeded gap, move to the next victim.  Returns the time the
        last recovery completes being *scheduled* (the quiet-tail start).
        """
        victims = list(victims) if victims is not None else self.default_victims()
        downtime = downtime if downtime is not None else self._default_downtime()
        if gap is None:
            interval = self.cluster.config.fd_interval
            gap = (2.0 * interval, 10.0 * interval)
        at = start
        for site in victims:
            down = self.rng.uniform(*downtime)
            self._crash(site, at)
            self._recover(site, at + down)
            at += down + self.rng.uniform(*gap)
        return at

    def cascade(
        self,
        at: float,
        victims: Optional[Sequence[int]] = None,
        stagger: Optional[Span] = None,
        downtime: Optional[Span] = None,
    ) -> float:
        """Membership cascade: crash ``victims`` in quick seeded succession
        (each crash close enough to the last that the coordinator installs
        a cascade of shrinking views), then recover them in crash order
        with seeded spacing.  Caps the cascade at
        :attr:`max_concurrent_down`; asking for more raises.
        """
        victims = list(victims) if victims is not None else self.default_victims()[:2]
        if len(victims) > self.max_concurrent_down:
            raise ValueError(
                f"cascade of {len(victims)} sites would break quorum at "
                f"num_sites={self.cluster.config.num_sites} "
                f"(max {self.max_concurrent_down} concurrently down)"
            )
        if stagger is None:
            interval = self.cluster.config.fd_interval
            stagger = (0.5 * interval, 2.0 * interval)
        downtime = downtime if downtime is not None else self._default_downtime()
        crash_times = []
        t = at
        for site in victims:
            self._crash(site, t)
            crash_times.append(t)
            t += self.rng.uniform(*stagger)
        deepest = max(crash_times)
        end = at
        recover_at = deepest + self.rng.uniform(*downtime)
        for site, crashed in zip(victims, crash_times):
            # Recover in crash order, each no earlier than its own downtime.
            recover_at = max(recover_at, crashed) + self.rng.uniform(*stagger)
            self._recover(site, recover_at)
            end = max(end, recover_at)
        return end

    # -- internals --------------------------------------------------------------

    def _crash(self, site: int, at: float) -> None:
        self._check_overlap(site, at)
        self.faults.crash(site, at=at)
        self.plan.append((at, "crash", site))
        self._down.setdefault(site, []).append((at, float("inf")))

    def _recover(self, site: int, at: float) -> None:
        intervals = self._down.get(site)
        if not intervals or intervals[-1][1] != float("inf"):
            raise ValueError(f"recover of site {site} without a preceding crash")
        crashed = intervals[-1][0]
        if at <= crashed:
            raise ValueError(f"site {site} must recover after its crash ({crashed} .. {at})")
        intervals[-1] = (crashed, at)
        self.faults.recover(site, at=at)
        self.plan.append((at, "recover", site))

    def _check_overlap(self, site: int, at: float) -> None:
        for crashed, recovered in self._down.get(site, []):
            if crashed <= at < recovered:
                raise ValueError(f"site {site} is already down at t={at}")
        concurrent = self._down_count_at(at)
        if concurrent + 1 > self.max_concurrent_down:
            raise ValueError(
                f"crash at t={at} would hold {concurrent + 1} sites down "
                f"concurrently (max {self.max_concurrent_down} preserves quorum)"
            )

    def _down_count_at(self, at: float) -> int:
        count = 0
        for site in sorted(self._down):
            for crashed, recovered in self._down[site]:
                if crashed <= at < recovered:
                    count += 1
                    break
        return count