"""Per-run metrics collection and the order-canonical merge layer.

One :class:`MetricsCollector` is shared by all replicas of a cluster.  It
folds transaction outcomes into counters and latency samples and exposes
the derived quantities the experiments report: throughput, commit latency
distribution, abort taxonomy and restart counts.  Message accounting lives in
:class:`repro.net.network.NetworkStats`; the cluster result object joins the
two.

The second half of this module is the **order-canonical merge layer** used
by the seed-sharded sweep scheduler (``repro.analysis.experiment``).  When a
sweep cell's seeds are fanned across worker processes, the per-seed partial
results come back in completion order; merging them with plain float sums
would make ``jobs=N`` outputs drift from ``jobs=1`` (float addition is not
associative).  Everything here reduces canonically instead:

- :func:`merge_seed_measurements` folds per-seed measurement dicts in
  **sorted seed order** with :func:`math.fsum` accumulators, so the merged
  floats are byte-identical no matter which worker finished first;
- :class:`WelfordAccumulator` and :class:`QuantileAccumulator` are
  **mergeable** streaming representations for mean/variance and latency
  percentiles.  Their merge operation is a keyed union of per-source
  partials (exact, order-free); every floating-point reduction happens
  once, at read time, over the sorted source keys.  That makes merging
  associative and permutation-invariant *bit-for-bit*, not just
  approximately — the property the parallel-determinism suite asserts.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import Counter
from itertools import compress
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from typing import TYPE_CHECKING

from repro.analysis.stats import Summary, percentile, summarize

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
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
        from repro.core.transaction import AbortReason

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

    def abort_rate(self) -> float:
        """Aborted attempts / all attempts (update and read-only alike)."""
        attempts = self.commits + self.aborts
        if not attempts:
            return 0.0
        return self.aborts / attempts

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


# -- order-canonical merge layer (seed-sharded sweeps) --------------------------
#
# Contract: a "source" is any sortable label identifying one deterministic
# sub-computation (in sweeps: the seed).  Accumulators keep one partial per
# source; ``merge`` unions the partial maps without touching a float, and the
# read-time reduction always walks sources in sorted order with fsum-based
# arithmetic.  Two consequences the tests rely on:
#
# 1. merging is associative and permutation-invariant, byte-for-byte;
# 2. a serial run (one process observing every source) and a sharded run
#    (partials merged across workers) produce identical read-outs.


@dataclass
class _WelfordPartial:
    """Streaming count/mean/M2 for one source (Welford's algorithm)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def as_tuple(self) -> tuple[int, float, float]:
        return (self.count, self.mean, self.m2)


@dataclass
class WelfordAccumulator:
    """Mergeable streaming mean/variance, keyed by source.

    ``observe`` is O(1) per sample; ``merge`` is a keyed union of the
    per-source partials (a merge never performs float arithmetic, so it
    cannot introduce order sensitivity); ``count``/``mean``/``variance``
    combine the partials with Chan's parallel formula, folding in sorted
    source order — the one canonical reduction.
    """

    partials: dict[Any, _WelfordPartial] = field(default_factory=dict)

    def observe(self, value: float, source: Any = 0) -> None:
        partial = self.partials.get(source)
        if partial is None:
            partial = self.partials[source] = _WelfordPartial()
        partial.observe(float(value))

    def merge(self, other: "WelfordAccumulator") -> "WelfordAccumulator":
        """Union of two accumulators over disjoint source sets."""
        overlap = set(self.partials) & set(other.partials)
        if overlap:
            raise ValueError(f"sources observed on both sides: {sorted(overlap)}")
        merged = WelfordAccumulator()
        merged.partials.update(self.partials)
        merged.partials.update(other.partials)
        return merged

    def _fold(self) -> _WelfordPartial:
        folded = _WelfordPartial()
        for source in sorted(self.partials):
            part = self.partials[source]
            if part.count == 0:
                continue
            if folded.count == 0:
                folded = _WelfordPartial(part.count, part.mean, part.m2)
                continue
            total = folded.count + part.count
            delta = part.mean - folded.mean
            mean = folded.mean + delta * (part.count / total)
            m2 = math.fsum(
                [folded.m2, part.m2, delta * delta * folded.count * part.count / total]
            )
            folded = _WelfordPartial(total, mean, m2)
        return folded

    @property
    def count(self) -> int:
        return sum(self.partials[key].count for key in sorted(self.partials))

    @property
    def mean(self) -> float:
        folded = self._fold()
        return folded.mean if folded.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (0 for fewer than two observations)."""
        folded = self._fold()
        if folded.count < 2:
            return 0.0
        return folded.m2 / (folded.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)


@dataclass
class QuantileAccumulator:
    """Mergeable streaming quantiles, keyed by source.

    Samples are retained per source in observation order (append-only
    streaming; memory is bounded by the samples one source produces, which
    for sweep cells is one simulation's committed-transaction count).
    ``merge`` unions the per-source runs; ``quantile`` reduces over the
    canonical multiset — every run concatenated in sorted source order,
    then sorted — so the result is identical however the partials were
    sharded or in which order they merged.
    """

    samples: dict[Any, list[float]] = field(default_factory=dict)

    def observe(self, value: float, source: Any = 0) -> None:
        self.samples.setdefault(source, []).append(float(value))

    def merge(self, other: "QuantileAccumulator") -> "QuantileAccumulator":
        overlap = set(self.samples) & set(other.samples)
        if overlap:
            raise ValueError(f"sources observed on both sides: {sorted(overlap)}")
        merged = QuantileAccumulator()
        merged.samples.update({k: list(v) for k, v in self.samples.items()})
        merged.samples.update({k: list(v) for k, v in other.samples.items()})
        return merged

    def _canonical(self) -> list[float]:
        values: list[float] = []
        for source in sorted(self.samples):
            values.extend(self.samples[source])
        values.sort()
        return values

    @property
    def count(self) -> int:
        return sum(len(self.samples[key]) for key in sorted(self.samples))

    @property
    def mean(self) -> float:
        values = self._canonical()
        return math.fsum(values) / len(values) if values else 0.0

    def quantile(self, fraction: float) -> float:
        values = self._canonical()
        if not values:
            return 0.0
        return percentile(values, fraction)

    def summary(self) -> Summary:
        return summarize(self._canonical())


def fsum_mean(values: Iterable[float]) -> float:
    """Exactly-rounded mean; the only mean the merge layer uses."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("mean of empty sequence")
    return math.fsum(data) / len(data)


#: Scalar metrics a :class:`QuantileAccumulator`-valued measurement expands
#: into when a sweep point is folded (suffix -> fraction; mean is special).
QUANTILE_EXPANSION = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def merge_seed_measurements(
    by_seed: Mapping[int, Mapping[str, Any]]
) -> dict[str, float]:
    """Canonically reduce per-seed measurement dicts to one sweep point.

    Plain float values are averaged with :func:`math.fsum` over sorted seed
    order.  :class:`QuantileAccumulator` / :class:`WelfordAccumulator`
    values are merged across seeds and expanded into scalar metrics
    (``"<key> p50"`` ... / ``"<key> mean"``), so a scenario can report a
    whole latency distribution per seed and the sweep yields *pooled*
    percentiles instead of a mean of per-seed percentiles.
    """
    seeds = sorted(by_seed)
    keys = sorted({key for seed in seeds for key in by_seed[seed]})
    merged: dict[str, float] = {}
    for key in keys:
        values = [by_seed[seed][key] for seed in seeds if key in by_seed[seed]]
        first = values[0]
        if isinstance(first, QuantileAccumulator):
            pooled = QuantileAccumulator()
            for seed in seeds:
                value = by_seed[seed].get(key)
                if value is None:
                    continue
                # Namespace each seed's sources under the seed so identical
                # in-run source labels never collide across seeds.
                pooled.samples.update(
                    {(seed, src): list(run) for src, run in value.samples.items()}
                )
            merged[f"{key} mean"] = pooled.mean
            for suffix, fraction in QUANTILE_EXPANSION:
                merged[f"{key} {suffix}"] = pooled.quantile(fraction)
        elif isinstance(first, WelfordAccumulator):
            pooled_w = WelfordAccumulator()
            for seed in seeds:
                value = by_seed[seed].get(key)
                if value is None:
                    continue
                pooled_w.partials.update(
                    {
                        (seed, src): _WelfordPartial(*part.as_tuple())
                        for src, part in value.partials.items()
                    }
                )
            merged[f"{key} mean"] = pooled_w.mean
            merged[f"{key} stddev"] = pooled_w.stddev
        else:
            merged[key] = fsum_mean(values)
    return merged


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
