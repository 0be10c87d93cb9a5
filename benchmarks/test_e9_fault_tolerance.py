"""E9 — Availability across failures: majority views keep the system live.

The paper delegates fault tolerance to the view-maintaining communication
layer [Bv94, SS94]: "As long as the view has majority membership, the
system remains operational."  Scripted fault schedules regenerate each
facet of that claim:

1. a site crash triggers a view change; the surviving majority keeps
   committing (with the departed site excluded from acknowledgment and
   echo sets);
2. a partition leaves updates available only in the majority component;
   the minority refuses them (NO_QUORUM) but still serves local reads;
3. a healed partition / recovered site rejoins through state transfer and
   converges with the survivors;
4. correctness (1SR + convergence among live replicas) holds throughout.
"""

from benchmarks.common import bench_once, make_cluster, print_experiment_table
from repro.analysis.report import Table
from repro.core.transaction import AbortReason, TransactionSpec

FD = dict(enable_failure_detector=True, fd_interval=20.0, fd_timeout=80.0)


def crash_recovery_run(protocol: str):
    cluster = make_cluster(protocol, num_sites=5, seed=66, cbp_heartbeat=20.0, **FD)
    phases = {"before": 0, "during": 0, "after": 0}

    def count_commit(status):
        if status.committed:
            phases[next(tag for tag in phases if status.spec.name.startswith(tag))] += 1

    cluster.add_spec_listener(count_commit)

    def batch(tag, count, homes, start):
        for n in range(count):
            cluster.submit(
                TransactionSpec.make(
                    f"{tag}{n}",
                    homes[n % len(homes)],
                    read_keys=[f"x{(n * 7) % 64}"],
                    writes={f"x{(n * 7) % 64}": f"{tag}{n}"},
                ),
                at=start + n * 30.0,
            )

    batch("before", 8, [0, 1, 2, 3, 4], start=100.0)
    cluster.crash_site(4, at=600.0)
    batch("during", 8, [0, 1, 2, 3], start=1200.0)
    cluster.recover_site(4, at=2500.0)
    batch("after", 8, [0, 1, 2, 3, 4], start=3500.0)

    result = cluster.run(
        max_time=200000.0, stop_when=cluster.await_specs(24)
    )
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    return result, phases


def test_e9_crash_and_recovery(benchmark):
    table = Table(
        ["protocol", "before crash", "crashed (majority)", "after recovery"],
        title="E9a: committed transactions per phase (crash site 4, recover)",
    )
    for protocol in ("rbp", "cbp"):
        result, phases = crash_recovery_run(protocol)
        table.add_row(protocol, phases["before"], phases["during"], phases["after"])
        assert phases["before"] == 8
        assert phases["during"] == 8  # majority stayed available
        assert phases["after"] == 8  # full membership restored
    print_experiment_table(table)

    bench_once(benchmark, crash_recovery_run, "rbp")


def test_e9_partition_majority_rule(benchmark):
    def partition_run():
        cluster = make_cluster("rbp", num_sites=5, seed=67, retry_aborted=False, **FD)
        cluster.engine.schedule_at(50.0, cluster.partition, [[0, 1, 2], [3, 4]])
        outcomes = {}
        statuses = {}
        cluster.add_spec_listener(lambda status: statuses.setdefault(status.spec.name, status))
        cluster.submit(
            TransactionSpec.make("maj", 0, read_keys=["x0"], writes={"x0": 1}),
            at=600.0,
        )
        cluster.submit(
            TransactionSpec.make("min", 3, read_keys=["x1"], writes={"x1": 2}),
            at=600.0,
        )
        cluster.submit(
            TransactionSpec.make("min_ro", 4, read_keys=["x2"]), at=600.0
        )
        cluster.run(max_time=30000.0)
        cluster.heal_partition()
        cluster.submit(
            TransactionSpec.make("healed", 3, read_keys=["x3"], writes={"x3": 4}),
            at=cluster.engine.now + 1000.0,
        )
        result = cluster.run(max_time=300000.0, stop_when=cluster.await_specs(4))
        outcomes["maj"] = statuses["maj"].committed
        outcomes["min"] = statuses["min"].last_outcome
        outcomes["min_ro"] = statuses["min_ro"].committed
        outcomes["healed"] = statuses["healed"].committed
        return result, outcomes

    result, outcomes = bench_once(benchmark, partition_run)
    table = Table(
        ["transaction", "where", "outcome"],
        title="E9b: partition {0,1,2} | {3,4} of five sites",
    )
    table.add_row("maj (update)", "majority side", "committed" if outcomes["maj"] else "FAILED")
    table.add_row("min (update)", "minority side", str(outcomes["min"].value))
    table.add_row("min_ro (read-only)", "minority side", "committed" if outcomes["min_ro"] else "FAILED")
    table.add_row("healed (update)", "after heal", "committed" if outcomes["healed"] else "FAILED")
    print_experiment_table(table)

    assert outcomes["maj"] is True
    assert outcomes["min"] is AbortReason.NO_QUORUM
    assert outcomes["min_ro"] is True
    assert outcomes["healed"] is True
    assert result.serialization.ok
    assert result.converged


def test_e9_view_change_cost(benchmark):
    """Latency of re-establishing availability after a crash: the gap
    between the crash and the first post-crash commit is bounded by the
    failure detector timeout plus one view installation."""

    def measure():
        cluster = make_cluster("rbp", num_sites=5, seed=68, **FD)
        cluster.crash_site(4, at=500.0)
        commits = []
        cluster.add_spec_listener(
            lambda status: status.committed and commits.append(cluster.engine.now)
        )
        # Submit a stream of updates through the crash window.
        for n in range(40):
            cluster.submit(
                TransactionSpec.make(f"t{n}", n % 4, writes={f"x{n % 32}": n}),
                at=400.0 + n * 10.0,
            )
        result = cluster.run(max_time=100000.0, stop_when=cluster.await_specs(40))
        assert result.serialization.ok and result.converged
        commits.sort()
        # Largest commit gap in the stream = the unavailability window.
        gaps = [b - a for a, b in zip(commits, commits[1:])]
        return max(gaps)

    window = bench_once(benchmark, measure)
    print(f"\nE9c: unavailability window after crash: {window:.1f} ms "
          f"(fd timeout {FD['fd_timeout']} + view install)")
    assert window < FD["fd_timeout"] * 4
