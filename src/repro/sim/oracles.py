"""Continuously-asserted correctness oracles for churn soaks (E13).

A long soak is only as good as what it checks.  End-of-run assertions
(convergence, 1SR) tell you *that* a ten-minute soak went wrong, not
*when*; a liveness bug shows up as the simulation quietly burning
heartbeat events for the rest of the horizon.  :class:`SoakOracles`
attaches to a cluster and asserts during the run:

- **liveness** — commit progress must never stall longer than the
  configured simulated-time window while client work is outstanding.
  Meaningful because :class:`repro.sim.churn.ChurnSchedule` guarantees a
  quorum is up at all times: any long stall is a protocol/recovery bug,
  not an artifact of the fault plan.
- **bounded in-doubt residency** — no transaction may sit in RBP's
  in-doubt query protocol longer than the limit; a wedged query loop
  otherwise hides behind the retry/park machinery until the horizon.

and at the end of the run (:meth:`check_final`):

- **convergence** — all live replicas hold bit-identical stores;
- **1SR** — the recorded history is one-copy serializable;
- **zero unanswered clients** — every submitted spec reached a final
  outcome (committed, or definitively aborted after retries).

Violations raise :class:`OracleViolation` (an ``AssertionError``, so
pytest reports it natively) with enough context to localize the stall.
The periodic check itself only *reads* cluster state; its tick events
interleave with the protocol's but never mutate anything, so a soak with
oracles armed reaches the same final state as one without.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import Cluster, ClusterResult, SpecStatus


class OracleViolation(AssertionError):
    """A soak oracle failed; the message says which one, when, and why."""


@dataclass(frozen=True)
class OracleConfig:
    """Tunables for :class:`SoakOracles`.

    ``liveness_window`` must comfortably exceed the longest *legitimate*
    commit gap of the scenario: at least the failure detector's timeout
    plus one state-transfer round (a crash stalls RBP write rounds until
    the view change removes the dead site), and the workload's think time.
    """

    #: Max simulated ms without a spec reaching a final outcome while
    #: work is outstanding.
    liveness_window: float = 20_000.0
    #: Max simulated ms a transaction may stay in RBP's in-doubt query
    #: protocol.  ``None`` disables the residency check.
    in_doubt_limit: Optional[float] = 15_000.0
    #: How often the periodic checks run (simulated ms).
    check_interval: float = 1_000.0

    def __post_init__(self) -> None:
        if self.liveness_window <= 0:
            raise ValueError("liveness_window must be positive")
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")
        if self.in_doubt_limit is not None and self.in_doubt_limit <= 0:
            raise ValueError("in_doubt_limit must be positive when set")


class SoakOracles(Process):
    """Arms the continuous checks against one cluster.

    Usage::

        oracles = SoakOracles(cluster, OracleConfig(liveness_window=30_000.0))
        oracles.arm()
        ... drive the soak ...
        oracles.check_final(cluster.result())

    Observability stats (for benchmark reports): :attr:`max_stall` — the
    longest commit gap observed; :attr:`max_in_doubt_residency` — the
    longest any transaction stayed in-doubt; :attr:`finals_observed`.
    """

    def __init__(self, cluster: "Cluster", config: Optional[OracleConfig] = None):
        super().__init__(cluster.engine, "oracles")
        self.cluster = cluster
        self.config = config if config is not None else OracleConfig()
        self.finals_observed = 0
        self.max_stall = 0.0
        self.max_in_doubt_residency = 0.0
        self._armed = False
        self._last_progress = cluster.engine.now
        #: (site, tx) -> first tick time the pair was observed in-doubt.
        self._in_doubt_since: dict[tuple[int, str], float] = {}
        cluster.add_spec_listener(self._on_final)

    def arm(self) -> None:
        """Start the periodic checks (idempotent)."""
        if self._armed:
            return
        self._armed = True
        self._last_progress = self.cluster.engine.now
        self.every(self.config.check_interval, self._tick)

    def disarm(self) -> None:
        """Stop the periodic checks after the current interval."""
        self._armed = False

    # -- continuous checks ------------------------------------------------------

    def _on_final(self, status: "SpecStatus") -> None:
        now = self.cluster.engine.now
        stall = now - self._last_progress
        if stall > self.max_stall:
            self.max_stall = stall
        self._last_progress = now
        self.finals_observed += 1

    def _tick(self) -> bool:
        if not self._armed:
            return False  # disarmed: ends the Process.every loop
        self._check_liveness()
        if self.config.in_doubt_limit is not None:
            self._check_in_doubt()
        return True

    def _check_liveness(self) -> None:
        cluster = self.cluster
        if not cluster.work_started_and_unfinished():
            # Nothing in flight: a quiet stretch is not a stall, and a
            # submission scheduled into the future is not yet in flight.
            # Reset the baseline so the first real attempt gets a full
            # fresh window.
            self._last_progress = cluster.engine.now
            return
        now = cluster.engine.now
        stall = now - self._last_progress
        if stall > self.max_stall:
            self.max_stall = stall
        if stall <= self.config.liveness_window:
            return
        down = [r.site for r in cluster.replicas if not r.alive]
        recovering = [r.site for r in cluster.replicas if r.alive and r.recovering]
        raise OracleViolation(
            f"liveness: no spec reached a final outcome for {stall:.0f}ms "
            f"(window {self.config.liveness_window:.0f}ms) at t={now:.0f} "
            f"with work outstanding; down sites={down}, "
            f"recovering={recovering}, finals so far={self.finals_observed}"
        )

    def _check_in_doubt(self) -> None:
        now = self.cluster.engine.now
        limit = self.config.in_doubt_limit
        assert limit is not None
        current: set[tuple[int, str]] = set()
        for replica in self.cluster.replicas:
            if not replica.alive:
                continue
            for tx_id in replica.in_doubt_transactions():
                current.add((replica.site, tx_id))
        for pair in sorted(self._in_doubt_since):
            if pair not in current:
                residency = now - self._in_doubt_since.pop(pair)
                if residency > self.max_in_doubt_residency:
                    self.max_in_doubt_residency = residency
        for pair in sorted(current):
            since = self._in_doubt_since.setdefault(pair, now)
            residency = now - since
            if residency > self.max_in_doubt_residency:
                self.max_in_doubt_residency = residency
            if residency > limit:
                site, tx_id = pair
                raise OracleViolation(
                    f"in-doubt residency: {tx_id} has been in doubt at "
                    f"site {site} for {residency:.0f}ms "
                    f"(limit {limit:.0f}ms) at t={now:.0f}"
                )

    # -- end-of-run checks ------------------------------------------------------

    def check_final(self, result: "ClusterResult") -> None:
        """Assert the end-of-run oracles; raises on the first violation."""
        if not result.serialization.ok:
            raise OracleViolation("1SR: " + result.serialization.explain())
        if not result.converged:
            raise OracleViolation(
                "convergence: live replicas disagree on committed state "
                f"after {result.duration:.0f}ms"
            )
        if result.incomplete_specs:
            raise OracleViolation(
                f"unanswered clients: {result.incomplete_specs} submitted "
                "transactions never reached a final outcome"
            )

    def stats(self) -> dict:
        """Observed extremes, for benchmark reports."""
        return {
            "finals_observed": self.finals_observed,
            "max_stall_ms": self.max_stall,
            "max_in_doubt_residency_ms": self.max_in_doubt_residency,
        }
