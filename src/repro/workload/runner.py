"""Load drivers: open-loop (Poisson arrivals) and closed-loop (MPL clients).

Both drivers submit generated specs into a :class:`repro.core.cluster.Cluster`
and rely on the cluster's client retry loop for aborted attempts.  The
closed-loop driver models the classical multiprogramming-level experiment
(E5): ``mpl`` logical clients each keep exactly one transaction in flight,
submitting the next one (after ``think_time``) when the previous reaches a
final outcome.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cluster import Cluster, SpecStatus
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


class OpenLoopRunner:
    """Poisson arrivals at a fixed rate, ``count`` transactions in total."""

    def __init__(
        self,
        cluster: Cluster,
        workload: WorkloadConfig,
        rate: float,
        count: int,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if count <= 0:
            raise ValueError("count must be positive")
        self.cluster = cluster
        self.rate = rate
        self.count = count
        rng_registry = cluster.rng
        self.generator = WorkloadGenerator(workload, rng_registry.stream("workload"))
        self._arrival_rng = rng_registry.stream("arrivals")

    def start(self) -> None:
        """Schedule all arrivals up front (deterministic given the seed)."""
        at = self.cluster.engine.now
        for _ in range(self.count):
            at += self._arrival_rng.expovariate(self.rate)
            self.cluster.submit(self.generator.next_spec(), at=at)


class ClosedLoopRunner:
    """``mpl`` clients, each with one transaction outstanding."""

    def __init__(
        self,
        cluster: Cluster,
        workload: WorkloadConfig,
        mpl: int,
        transactions: int,
        think_time: float = 0.0,
    ):
        if mpl <= 0:
            raise ValueError("mpl must be positive")
        if transactions < mpl:
            raise ValueError("need at least one transaction per client")
        self.cluster = cluster
        self.mpl = mpl
        self.transactions = transactions
        self.think_time = think_time
        self.generator = WorkloadGenerator(workload, cluster.rng.stream("workload"))
        self._submitted = 0
        self._stopped = False
        self._outstanding: set[str] = set()
        cluster.add_spec_listener(self._on_final)

    def start(self) -> None:
        for _ in range(self.mpl):
            self._submit_next()

    def stop(self) -> None:
        """Clients go quiet: no further submissions, but transactions
        already in flight still run to their final outcomes.  The soak
        harness uses this to end the churn phase at a horizon rather than
        at a transaction count, then drain."""
        self._stopped = True

    def _submit_next(self) -> None:
        if self._stopped or self._submitted >= self.transactions:
            return
        spec = self.generator.next_spec()
        self._submitted += 1
        self._outstanding.add(spec.name)
        self.cluster.submit(spec, at=self.cluster.engine.now)

    def _on_final(self, status: SpecStatus) -> None:
        if status.spec.name not in self._outstanding:
            return
        self._outstanding.discard(status.spec.name)
        if self._submitted >= self.transactions:
            return
        if self.think_time > 0:
            self.cluster.engine.schedule(self.think_time, self._submit_next)
        else:
            self._submit_next()


def run_standard_mix(
    cluster: Cluster,
    workload: WorkloadConfig,
    transactions: int,
    mpl: Optional[int] = None,
    max_time: float = 1_000_000.0,
):
    """Convenience: closed-loop run to completion, returning the result."""
    runner = ClosedLoopRunner(
        cluster, workload, mpl=mpl or min(8, transactions), transactions=transactions
    )
    runner.start()
    return cluster.run(max_time=max_time)
