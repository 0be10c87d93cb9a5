"""One repeat of one workload, in a fresh single-threaded process.

``run.py`` starts this once per repeat and reads the one JSON object it
prints last.  Set-up is timed from before ``import repro``; the measured
window runs from the clients' ``start()`` to the ``ClusterResult`` (run,
drain, 1SR check, convergence check).  With ``--trace`` the tracer is
installed before anything is built, so every registration is seen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: Datagram kinds that carry no transaction's payload.
BACKGROUND_KINDS = ("cbp.null", "fd.heartbeat", "abcast.token")
BACKGROUND_PREFIX = "transport."


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None, help="gzipped JSON-lines file for span records")
    args = parser.parse_args()

    # HistoryRecorder.check() walks the serialization graph with a recursive
    # DFS; at these sizes the path is thousands deep (known src/ defect).
    sys.setrecursionlimit(200_000)

    setup_began = time.perf_counter()
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import workloads
    # The program's own percentile (linear interpolation), so latencies here
    # read the same as in the E-series tables.
    from repro.analysis.stats import percentile

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.BY_NAME[args.workload]
    session = workloads.build(workload, args.seed, args.scale)
    cluster = session.cluster
    if tracer is not None:
        # The completion hook is handed over by attribute, not by a call.
        for replica in cluster.replicas:
            replica.on_complete = tracer.callback(replica.on_complete)
        tracer.begin()

    run_began = time.perf_counter()
    cpu_began = time.process_time()
    session.start()
    result = session.finish()
    run_ended = time.perf_counter()
    cpu_ended = time.process_time()
    summary = tracer.end() if tracer is not None else None

    log = session.log
    attempted = session.attempted()
    unanswered = session.unanswered()
    metrics_collector = result.metrics
    readonly_aborts = metrics_collector.readonly_abort_count()
    problems = []
    if not result.serialization.ok:
        problems.append("1SR: " + result.serialization.explain())
    if not result.converged:
        problems.append("live replicas did not converge")
    if unanswered or result.incomplete_specs:
        problems.append(f"{unanswered} requests never answered")
    if readonly_aborts:
        problems.append(f"{readonly_aborts} read-only transactions aborted")

    wall_s = run_ended - run_began
    stats = result.network_stats
    commits = log.commits
    latencies = log.update_latencies
    sim_s = log.last_final / 1_000.0
    by_kind = stats["by_kind"]
    background = sum(
        count
        for kind, count in by_kind.items()
        if kind in BACKGROUND_KINDS or kind.startswith(BACKGROUND_PREFIX)
    )
    lock_stats = [replica.locks.stats for replica in cluster.replicas]
    granted = sum(s.immediate_grants + s.queue_grants for s in lock_stats)
    lock_attempts = sum(s.immediate_grants + s.queued_waits + s.denials for s in lock_stats)
    delivered = sum(
        getattr(endpoint, "delivered_count", 0)
        for endpoints in (cluster.reliables, cluster.causals, cluster.totals)
        for endpoint in endpoints
    )
    p50 = percentile(latencies, 0.50)
    values: dict[str, Any] = {
        "setup_s": run_began - setup_began,
        "wall_s": wall_s,
        "cpu_s": cpu_ended - cpu_began,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_commits_per_s": commits / sim_s,
        "sim_commit_p50_ms": p50,
        "sim_commit_p99_ms": percentile(latencies, 0.99),
        "sim_max_commit_gap_ms": log.max_commit_gap,
        "failed_frac": (log.failed + unanswered) / attempted,
        "ops_attempted": attempted,
        "ops_failed": log.failed + unanswered,
        "commits": commits,
        "update_commits": len(latencies),
        "sim_duration_ms": log.last_final,
        "sim.events": cluster.engine.events_processed,
        "sim.events_per_commit": cluster.engine.events_processed / commits,
        "sim.compactions": cluster.engine.compactions,
        "sim.events_per_s": cluster.engine.events_processed / wall_s,
        "sim.sim_s_per_wall_s": sim_s / wall_s,
        "net.datagrams_per_commit": stats["sent"] / commits,
        "net.bytes_per_commit": stats["bytes_sent"] / commits,
        "net.background_frac": background / stats["sent"],
        "net.retransmissions_per_commit": stats["retransmissions"] / commits,
        "net.dropped_loss": stats["dropped_loss"],
        "net.delays_per_commit_p50": p50 / cluster.network.latency.mean(),
        "broadcast.delivers_per_commit": delivered / commits,
        "broadcast.view_changes": max(
            (m.view.view_id for m in cluster.memberships), default=0
        ),
        "core.attempts_per_commit": metrics_collector.attempts_per_commit(),
        "core.update_abort_rate": metrics_collector.update_abort_rate(),
        "core.readonly_aborts": readonly_aborts,
        "core.rbp_write_timeouts": metrics_collector.rbp_write_timeouts,
        "core.rbp_in_doubt": metrics_collector.rbp_in_doubt,
        "core.recoveries": sum(a.transfers_completed for a in cluster.recovery_agents),
        "db.lock_acquires_per_commit": granted / commits,
        "db.lock_denied_frac": 1.0 - granted / lock_attempts,
        "db.installs_per_commit": sum(r.store.install_count for r in cluster.replicas) / commits,
        "db.wal_appends_per_commit": sum(r.wal.last_lsn for r in cluster.replicas) / commits,
    }

    report: dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "traced": tracer is not None,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": log.failed + unanswered,
        "digest": outcome_digest(cluster, result, log),
        "latency_samples": len(latencies),
    }
    if tracer is not None:
        broadcasts = 0
        for row in summary["entry_points"]:
            if row["sublayer"].startswith("broadcast.") and row["name"].endswith(".broadcast"):
                broadcasts += row["calls"]
        values["broadcast.broadcasts_per_commit"] = broadcasts / commits
        values["trace.unattributed_frac"] = summary["unattributed_frac"]
        for sublayer, row in summary["sublayers"].items():
            for key, value in row.items():
                values[f"{sublayer}.{key}"] = value
        report["entry_points"] = summary["entry_points"][:25]
        report["hooks_missing"] = summary["hooks_missing"]
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    report["metrics"] = values
    print(json.dumps(report))
    return 0


def outcome_digest(cluster: Any, result: Any, log: Any) -> str:
    """sha256 over every replica's store digest, the committed set, the
    per-kind message counts, datagrams and bytes: the projection
    ``tests/integration/test_batching_equivalence.py`` pins."""
    material = repr(
        (
            tuple(replica.store.digest() for replica in cluster.replicas),
            tuple(sorted(result.messages_by_kind.items())),
            tuple(sorted(log.committed_names)),
            result.network_stats["sent"],
            result.network_stats["bytes_sent"],
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
