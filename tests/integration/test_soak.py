"""Soak test: sustained load with faults injected mid-flight.

One long scenario per protocol: a closed-loop workload runs continuously
while a fault schedule crashes a site, partitions the network, heals it
and recovers the site.  At the end every invariant must hold and the
system must have made progress through every phase.
"""

from unittest import mock

import pytest

import repro.db.serialization

from repro.core.cluster import Cluster, ClusterConfig
from repro.db.wal import CHUNK
from repro.sim.faults import FaultSchedule
from repro.workload.generator import WorkloadConfig
from repro.workload.runner import ClosedLoopRunner, run_standard_mix


@pytest.mark.parametrize("protocol", ["rbp", "cbp"])
def test_soak_with_fault_timeline(protocol):
    cluster = Cluster(
        ClusterConfig(
            protocol=protocol,
            num_sites=5,
            num_objects=48,
            seed=404,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            relay=True,
            cbp_heartbeat=20.0,
            max_attempts=60,
            retry_backoff=8.0,
        )
    )
    for replica in cluster.replicas:
        replica.every(500.0, replica.checkpoint)
    schedule = FaultSchedule(cluster).crash(4, at=800.0).recover(4, at=2500.0)
    # Site 4's checkpoint count once its state transfer has settled.
    settled: list[int] = []
    cluster.engine.schedule_at(
        3500.0, lambda: settled.append(cluster.replicas[4].checkpoints_taken)
    )
    expected_actions = ["crash", "recover"]
    if protocol == "rbp":
        # Partition-with-live-traffic is exercised only for RBP: its
        # reliable layer keeps no ordering state, so a healed partition
        # needs no flush.  CBP/ABP sequence expectations across a healed
        # partition require a view-synchronous flush the simulation only
        # approximates for crash recovery (see DESIGN.md).
        schedule.partition([[0, 1, 2], [3, 4]], at=4500.0).heal(at=6000.0)
        expected_actions += ["partition", "heal"]
    runner = ClosedLoopRunner(
        cluster,
        WorkloadConfig(
            num_objects=48,
            num_sites=5,
            read_ops=2,
            write_ops=2,
            zipf_theta=0.4,
            readonly_fraction=0.2,
        ),
        mpl=4,
        transactions=80,
        think_time=320.0,  # stretch the run across the fault timeline
    )
    commit_times = []
    cluster.add_spec_listener(
        lambda status: status.committed and commit_times.append(cluster.engine.now)
    )
    runner.start()
    result = cluster.run(
        max_time=2_000_000.0, stop_when=cluster.await_specs(80)
    )

    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    # Through crash + partition + heal + recovery the vast majority of the
    # workload commits (transactions homed at faulty/minority sites during
    # their windows may exhaust retries).
    assert result.committed_specs >= 70
    assert result.metrics.readonly_abort_count() == 0
    # The schedule really ran every phase.
    assert [
        e.action for e in sorted(schedule.log, key=lambda e: e.time)
    ] == expected_actions
    # Commits happened after the final fault event: the system recovered.
    last_fault = max(e.time for e in schedule.log)
    last_commit = max(commit_times)
    assert last_commit > last_fault
    # Checkpoints kept running through the faults on the surviving sites,
    # and the recovered site's loop was re-armed by its recovery.
    assert all(r.checkpoints_taken > 0 for r in cluster.replicas if r.alive)
    assert cluster.replicas[4].checkpoints_taken >= settled[0] + 2


def test_soak_open_loop_abp():
    """ABP under a long open-loop arrival stream (no faults; throughput
    discipline): everything certifies deterministically."""
    from repro.workload.runner import OpenLoopRunner

    cluster = Cluster(
        ClusterConfig(protocol="abp", num_sites=4, num_objects=96, seed=505)
    )
    runner = OpenLoopRunner(
        cluster,
        WorkloadConfig(
            num_objects=96, num_sites=4, read_ops=2, write_ops=2, readonly_fraction=0.3
        ),
        rate=0.05,
        count=150,
    )
    runner.start()
    result = cluster.run(max_time=5_000_000.0)
    assert result.ok
    assert result.committed_specs + result.failed_specs == 150
    assert result.failed_specs == 0
    # Certification decisions were identical at every site.
    commits = {r.certified_commits for r in cluster.replicas}
    aborts = {r.certified_aborts for r in cluster.replicas}
    assert len(commits) == 1 and len(aborts) == 1


#: The 1SR recorder's retirement cadence in :func:`retained_state`, shorter
#: than the 1024 records of a run, so the shorter run retires too.
RECORDER_CHUNK = 128


def retained_state(protocol, transactions):
    """What each site of a 4-site ``protocol`` cluster holds once
    ``transactions`` updates have run: dedup ints, the longest per-key
    history, WAL rows (and whether the log has crossed its chunk), WAL
    image entries, and the total order's queues (ABP only); and what the
    run's own record holds: the 1SR recorder's records (fewer than a chunk
    once more than a chunk came in), the cluster's unfinished specs, and
    the metrics' per-outcome rows (none: counters and latency samples)."""
    cluster = Cluster(ClusterConfig(protocol=protocol, num_sites=4, num_objects=8, seed=17))
    workload = WorkloadConfig(num_objects=8, num_sites=4, read_ops=1, write_ops=2)
    with mock.patch.object(repro.db.serialization, "CHUNK", RECORDER_CHUNK):
        assert run_standard_mix(cluster, workload, transactions=transactions, mpl=4).ok
    wals = [replica.wal for replica in cluster.replicas]
    recorder = cluster.recorder
    return {
        "dedup": [reliable.seen.footprint() for reliable in cluster.reliables],
        "history": max(
            len(replica.store._objects[key]) for replica in cluster.replicas for key in cluster.keys
        ),
        "wal rows": max(len(wal) for wal in wals) < CHUNK <= min(wal.last_lsn for wal in wals),
        "wal image": [len(wal.image) for wal in wals],
        "total order": [
            len(total._unordered) + len(total._ready) + len(total._delivery_order)
            for total in cluster.totals
        ],
        "records held": len(recorder.held()) < RECORDER_CHUNK < len(recorder),
        "unfinished specs": len(cluster._specs),
        "outcome rows": [
            name for name, value in vars(cluster.metrics).items() if isinstance(value, list)
        ],
    }


def test_retained_state_does_not_grow_with_run_length():
    """Doubling the run leaves every per-site structure the same size: one
    dedup watermark per sender, histories at ``history_limit`` (a run this
    long writes every key past it), less than a chunk of WAL rows after
    more than a chunk was logged, one image entry per key, and, under ABP,
    empty total-order queues; and the run's own record likewise: the 1SR
    recorder holds less than its chunk, no spec is left in the cluster's
    table, and the metrics keep no row per outcome.  Structure sizes, not
    RSS: a per-site
    structure that grows with the run, as a set of every delivered id did,
    stays far below any RSS ceiling a test can set."""
    for protocol, total_order in (("rbp", []), ("abp", [0, 0, 0, 0])):
        short, long = retained_state(protocol, 400), retained_state(protocol, 800)
        assert short == long == {
            "dedup": [4, 4, 4, 4],
            "history": 16,
            "wal rows": True,
            "wal image": [8, 8, 8, 8],
            "total order": total_order,
            "records held": True,
            "unfinished specs": 0,
            "outcome rows": [],
        }
