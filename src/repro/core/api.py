"""High-level facade: a replicated database you can just call.

:class:`ReplicatedDatabase` wraps the cluster harness behind a synchronous
interface for interactive use, notebooks and small scripts — submit a
transaction, get its outcome back; no engine plumbing:

    from repro import ReplicatedDatabase

    db = ReplicatedDatabase(protocol="cbp", sites=4, seed=7)
    db.write({"alice": 100, "bob": 50})                     # seed accounts
    outcome = db.transfer("alice", "bob", 25)               # RMW helper
    print(db.read("alice", site=2), outcome.committed)      # -> 75 True
    report = db.close()                                     # invariants!

Every call advances the simulation until the transaction settles, so time
"passes" only while you interact — latencies in the outcomes are still the
simulated protocol latencies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.cluster import Cluster, ClusterConfig, SpecStatus
from repro.core.transaction import TransactionSpec


@dataclass(frozen=True)
class Outcome:
    """What happened to one submitted transaction."""

    name: str
    committed: bool
    attempts: int
    values: dict[str, Any]  # the values read (committed attempt only)
    latency: float

    def __bool__(self) -> bool:
        return self.committed


class ReplicatedDatabase:
    """Synchronous-feeling facade over a simulated replicated database."""

    def __init__(
        self,
        protocol: str = "cbp",
        sites: int = 3,
        objects: Optional[list[str]] = None,
        seed: int = 0,
        **config_overrides: Any,
    ):
        self._names = itertools.count(1)
        self._explicit_keys = objects
        num_objects = 1  # cluster pre-creates x0..; we add named keys below
        config = ClusterConfig(
            protocol=protocol,
            num_sites=sites,
            num_objects=num_objects,
            seed=seed,
            **config_overrides,
        )
        self.cluster = Cluster(config)
        if objects:
            for replica in self.cluster.replicas:
                replica.store.initialize(objects, value=0)
            self.cluster.keys = sorted(set(self.cluster.keys) | set(objects))
        self._closed = False

    # -- dynamic keys ---------------------------------------------------------------

    def _ensure_keys(self, keys) -> None:
        new = [k for k in keys if not self.cluster.replicas[0].store.contains(k)]
        if not new:
            return
        if self._explicit_keys is not None:
            raise KeyError(f"unknown objects {new}; declared: {self._explicit_keys}")
        for replica in self.cluster.replicas:
            replica.store.initialize(new, value=0)
        self.cluster.keys = sorted(set(self.cluster.keys) | set(new))

    # -- transactions -----------------------------------------------------------------

    def execute(
        self,
        reads: Optional[list[str]] = None,
        writes: Optional[dict[str, Any]] = None,
        site: int = 0,
        name: Optional[str] = None,
    ) -> Outcome:
        """Run one transaction to completion and return its outcome."""
        self._check_open()
        self._check_site(site)
        reads = list(reads or [])
        writes = dict(writes or {})
        self._ensure_keys(reads + list(writes))
        spec_name = name or f"api{next(self._names)}"
        spec = TransactionSpec.make(
            spec_name,
            site,
            read_keys=sorted(set(reads) | set(writes)),
            writes=writes,
        )
        start = self.cluster.engine.now
        status = self.cluster.submit(spec, at=start)
        # Drain after completion so a subsequent read at ANY site sees the
        # settled state (remote applies land before execute() returns).
        self.cluster.run(
            max_time=start + 10_000_000.0,
            stop_when=lambda: status.final,
            drain=True,
        )
        return self._outcome_of(status, reads, start)

    def read(self, key: str, site: int = 0) -> Any:
        """Committed value of ``key`` at ``site`` (a local read)."""
        self._check_open()
        self._check_site(site)
        self._ensure_keys([key])
        return self.cluster.replicas[site].store.read(key).value

    def write(self, values: dict[str, Any], site: int = 0) -> Outcome:
        """Blind update transaction writing ``values``."""
        return self.execute(writes=values, site=site)

    def transfer(self, source: str, target: str, amount: Any, site: int = 0) -> Outcome:
        """Read-modify-write: move ``amount`` from ``source`` to ``target``.

        Retries with fresh reads are handled by the cluster's client loop
        at the *attempt* level; the value computation here re-runs per call
        (call again if the outcome reports an abort).
        """
        self._check_open()
        self._ensure_keys([source, target])
        store = self.cluster.replicas[site].store
        source_balance = store.read(source).value
        target_balance = store.read(target).value
        return self.execute(
            reads=[source, target],
            writes={source: source_balance - amount, target: target_balance + amount},
            site=site,
        )

    # -- lifecycle ------------------------------------------------------------------------

    def close(self) -> dict[str, Any]:
        """Drain, verify every invariant, and return a closing report."""
        self._check_open()
        self._closed = True
        result = self.cluster.run(max_time=self.cluster.engine.now + 1_000_000.0)
        if not result.ok:
            raise AssertionError(
                f"invariant violation at close: {result.serialization.explain()}, "
                f"converged={result.converged}"
            )
        return {
            "committed": result.committed_specs,
            "failed": result.failed_specs,
            "messages": result.network_stats["sent"],
            "serialization": result.serialization.explain(),
            "converged": result.converged,
            "simulated_ms": result.duration,
        }

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("database already closed")

    def _check_site(self, site: int) -> None:
        if not 0 <= site < len(self.cluster.replicas):
            raise ValueError(
                f"unknown site {site}; this database has "
                f"{len(self.cluster.replicas)} sites"
            )

    def _outcome_of(self, status: SpecStatus, reads, start: float) -> Outcome:
        values: dict[str, Any] = {}
        if status.committed:
            # What the committing attempt read at its home, as it read it.
            observed = status.last_attempt.reads_observed
            values = {key: observed[key][0] for key in reads if key in observed}
        return Outcome(
            name=status.spec.name,
            committed=status.committed,
            attempts=status.attempts,
            values=values,
            latency=self.cluster.engine.now - start,
        )
