"""Per-run metrics collection and the order-canonical seed merge.

One :class:`MetricsCollector` is shared by all replicas of a cluster.  It
folds transaction outcomes into counters and latency samples and exposes
the derived quantities the experiments report: throughput, commit latency
distribution, abort taxonomy and restart counts.  Message accounting lives in
:class:`repro.net.network.NetworkStats`; the cluster result object joins the
two.

The second half of this module is the **order-canonical merge** the
seed-sharded sweep scheduler (``repro.analysis.experiment``) folds each
cell's per-seed measurements with.  When a cell's seeds are fanned across
worker processes the per-seed results come back in completion order, and
plain float sums would make ``jobs=N`` outputs drift from ``jobs=1``
(float addition is not associative).  :func:`merge_seed_measurements`
folds them in **sorted seed order** with :func:`math.fsum`, so the merged
floats are byte-identical no matter which worker finished first.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import Counter
from itertools import compress
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from repro.analysis.stats import Summary, summarize
from repro.core.transaction import AbortReason, Transaction


@dataclass
class MetricsCollector:
    """Shared sink for transaction outcomes.

    Each outcome folds into counters, plus one latency sample per committed
    attempt (in outcome order, so every summary sees the input a list of
    outcomes would give it).  No per-outcome row is kept: a reader that
    wants one takes it from a spec listener (``Cluster.add_spec_listener``)
    or from the ``tx.commit`` / ``tx.abort`` trace rows.
    """

    committed_updates: int = 0
    committed_readonly: int = 0
    aborted_updates: int = 0
    aborted_readonly: int = 0
    #: Read-only attempts lost with their home (not a protocol abort).
    readonly_site_failures: int = 0
    #: Attempt number of each committed attempt, summed: the attempts its
    #: spec took, as attempts are numbered from 1 and retried one at a time.
    committed_attempts: int = 0
    #: Commit latency of each committed attempt, in outcome order, and
    #: whether the attempt was read-only (1) or an update (0).
    latencies: array = field(default_factory=lambda: array("d"))
    latency_read_only: bytearray = field(default_factory=bytearray)
    aborts_by_reason: Counter = field(default_factory=Counter)
    deadlocks_detected: int = 0
    local_reader_preemptions: int = 0
    # RBP in-doubt termination (decision queries; see PROTOCOLS.md).
    rbp_in_doubt: int = 0
    rbp_in_doubt_waits: int = 0
    rbp_decision_queries: int = 0
    rbp_decision_answers: int = 0
    rbp_resolved_by_query_commit: int = 0
    rbp_resolved_by_query_abort: int = 0
    rbp_resolved_by_presumption: int = 0
    # Home-side write-phase watchdog firings (stalled ack round aborted
    # retryably; see ReliableBroadcastReplica.write_grace).
    rbp_write_timeouts: int = 0
    # Home-side vote-phase watchdog firings (stalled tally, no view change:
    # the commit request is idempotently re-broadcast to recover lost votes).
    rbp_vote_retries: int = 0

    def tx_committed(self, tx: Transaction, end_time: float) -> None:
        read_only = tx.read_only
        if read_only:
            self.committed_readonly += 1
        else:
            self.committed_updates += 1
        self.committed_attempts += tx.attempt
        self.latencies.append(end_time - tx.submit_time)
        self.latency_read_only.append(read_only)

    def tx_aborted(self, tx: Transaction, reason: AbortReason, end_time: float) -> None:
        self.aborts_by_reason[reason] += 1
        if not tx.read_only:
            self.aborted_updates += 1
        elif reason is AbortReason.SITE_FAILURE:
            self.readonly_site_failures += 1
        else:
            self.aborted_readonly += 1

    # -- derived quantities ----------------------------------------------------

    @property
    def commits(self) -> int:
        """Committed attempts."""
        return self.committed_updates + self.committed_readonly

    @property
    def aborts(self) -> int:
        """Aborted attempts."""
        return self.aborted_updates + self.aborted_readonly + self.readonly_site_failures

    def committed_update_count(self) -> int:
        return self.committed_updates

    def committed_readonly_count(self) -> int:
        return self.committed_readonly

    def update_abort_rate(self) -> float:
        updates = self.committed_updates + self.aborted_updates
        if not updates:
            return 0.0
        return self.aborted_updates / updates

    def readonly_abort_count(self, include_environmental: bool = False) -> int:
        """Protocol-level read-only aborts — the paper's claim: zero, in
        every protocol.

        A read-only transaction whose *home site crashed* under it is not
        a protocol abort (no conflict rule fired; the machine died), so
        ``site_failure`` outcomes are excluded unless
        ``include_environmental`` is set.
        """
        if include_environmental:
            return self.aborted_readonly + self.readonly_site_failures
        return self.aborted_readonly

    def commit_latencies(self, read_only: Optional[bool] = None) -> list[float]:
        """Latency of each committed attempt (updates, read-only ones, or
        both), in outcome order."""
        if read_only is None:
            return list(self.latencies)
        return list(compress(self.latencies, (ro == read_only for ro in self.latency_read_only)))

    def commit_latency(self, read_only: Optional[bool] = None) -> Summary:
        return summarize(self.commit_latencies(read_only))

    def throughput(self, duration: float) -> float:
        """Committed transactions per unit time."""
        if duration <= 0:
            return 0.0
        return self.commits / duration

    def attempts_per_commit(self) -> float:
        """Average attempts needed per committed spec (restart overhead)."""
        if not self.commits:
            return 0.0
        return self.committed_attempts / self.commits


# -- order-canonical merge (seed-sharded sweeps) -------------------------------


def fsum_mean(values: Iterable[float]) -> float:
    """Exactly-rounded mean; the only mean the seed merge uses."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("mean of empty sequence")
    return math.fsum(data) / len(data)


def merge_seed_measurements(
    by_seed: Mapping[int, Mapping[str, Any]]
) -> dict[str, float]:
    """Canonically reduce per-seed measurement dicts to one sweep point:
    each metric is averaged with :func:`math.fsum` over sorted seed order,
    so the merged floats are byte-identical whichever worker finished
    first."""
    seeds = sorted(by_seed)
    keys = sorted({key for seed in seeds for key in by_seed[seed]})
    return {
        key: fsum_mean(by_seed[seed][key] for seed in seeds if key in by_seed[seed])
        for key in keys
    }


def measurement_digest(rows: Iterable[tuple[Any, str, Mapping[str, float]]]) -> str:
    """Canonical digest of folded sweep points (byte-identity checks).

    Floats are hashed via :meth:`float.hex` — full precision, no repr
    rounding — so two runs digest equal iff every merged metric is
    bit-identical.
    """
    digest = hashlib.sha256()
    for parameter, protocol, values in rows:
        digest.update(repr(parameter).encode())
        digest.update(protocol.encode())
        for key in sorted(values):
            value = values[key]
            encoded = float(value).hex() if isinstance(value, float) else repr(value)
            digest.update(key.encode())
            digest.update(encoded.encode())
    return digest.hexdigest()
