"""Post-run cluster auditing: every invariant in one sweep.

The serialization checker covers correctness of the *history*; this
auditor covers the *machine state* a clean run must leave behind:

- no locks held or queued once the system is quiescent;
- no in-flight protocol state (buffered writes, pending votes/echoes);
- store/WAL agreement (checkpoint + log tail reproduces the store);
- replica convergence and one-copy serializability (delegated);
- read-only guarantee (no protocol-level read-only aborts);
- trace completeness (a capacity-truncated trace log is flagged, so a
  truncated trace is never read as a complete history).

Tests call :func:`audit_cluster` after draining a run and assert the
finding list is empty; each finding is a human-readable sentence naming
the site and the residue, which makes protocol state leaks immediately
diagnosable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.db.serialization import replicas_converged

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import Cluster


@dataclass(frozen=True)
class Finding:
    """One audit violation."""

    site: int  # -1 for cluster-wide findings
    category: str
    detail: str

    def __str__(self) -> str:
        where = f"site {self.site}" if self.site >= 0 else "cluster"
        return f"[{self.category}] {where}: {self.detail}"


def audit_cluster(cluster: "Cluster", strict_wal: bool = True) -> list[Finding]:
    """Run every post-quiescence check; returns the (ideally empty) findings."""
    findings: list[Finding] = []
    findings.extend(_audit_trace(cluster))
    findings.extend(_audit_serialization(cluster))
    for replica in cluster.replicas:
        if not replica.alive:
            continue
        findings.extend(_audit_locks(replica))
        findings.extend(_audit_protocol_state(replica))
        if strict_wal:
            findings.extend(_audit_wal(replica))
    findings.extend(_audit_readonly(cluster))
    return findings


def _audit_trace(cluster: "Cluster") -> list[Finding]:
    """Flag truncated trace logs: any analysis over ``cluster.trace`` (and
    any test asserting on it) would otherwise silently read an incomplete
    history as a complete one — ``emit`` keeps counting past ``capacity``
    while dropping the records themselves."""
    trace = getattr(cluster, "trace", None)
    if trace is None or not getattr(trace, "dropped", 0):
        return []
    return [
        Finding(
            -1,
            "trace-truncated",
            f"trace log dropped {trace.dropped} records at capacity="
            f"{trace.capacity}; cluster.trace is an incomplete history",
        )
    ]


def _audit_serialization(cluster: "Cluster") -> list[Finding]:
    findings = []
    result = cluster.recorder.check()
    if not result.ok:
        findings.append(Finding(-1, "serialization", result.explain()))
    live = [r.store for r in cluster.replicas if r.alive]
    if not replicas_converged(live):
        findings.append(Finding(-1, "convergence", "live replicas diverge"))
    return findings


def _audit_locks(replica) -> list[Finding]:
    findings = []
    for key in sorted(replica.store.keys()):
        holders = replica.locks.holders_of(key)
        if holders:
            findings.append(
                Finding(
                    replica.site,
                    "lock-leak",
                    f"{key} still held by {sorted(map(str, holders))}",
                )
            )
        queued = replica.locks.queued(key)
        if queued:
            findings.append(
                Finding(
                    replica.site,
                    "lock-queue-leak",
                    f"{key} has {len(queued)} queued requests",
                )
            )
    cycle = replica.locks.find_cycle()
    if cycle:
        findings.append(
            Finding(replica.site, "deadlock", f"standing waits-for cycle {cycle}")
        )
    return findings


def _audit_protocol_state(replica) -> list[Finding]:
    findings = []
    # Protocol-specific in-flight state that must drain by quiescence.
    for label, residue in sorted(replica.in_flight().items()):
        if residue:
            findings.append(
                Finding(
                    replica.site,
                    "protocol-leak",
                    f"{label}: {residue[:4]}" + ("..." if len(residue) > 4 else ""),
                )
            )
    if replica.local:
        findings.append(
            Finding(
                replica.site,
                "protocol-leak",
                f"non-terminal local transactions: {sorted(replica.local)[:4]}",
            )
        )
    return findings


def _audit_wal(replica) -> list[Finding]:
    rebuilt = replica.rebuild_from_local_log()
    if rebuilt.digest() != replica.store.digest():
        return [
            Finding(
                replica.site,
                "wal-mismatch",
                "checkpoint + WAL replay does not reproduce the store",
            )
        ]
    return []


def _audit_readonly(cluster: "Cluster") -> list[Finding]:
    count = cluster.metrics.readonly_abort_count()
    if count:
        return [
            Finding(
                -1,
                "readonly-abort",
                f"{count} protocol-level read-only aborts (paper guarantees zero)",
            )
        ]
    return []


def assert_clean(cluster: "Cluster", strict_wal: bool = True) -> None:
    """Raise AssertionError listing every finding, if any."""
    findings = audit_cluster(cluster, strict_wal=strict_wal)
    if findings:
        raise AssertionError(
            "cluster audit failed:\n" + "\n".join(f"  {f}" for f in findings)
        )
