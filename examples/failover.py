#!/usr/bin/env python3
"""Failover walk-through: crashes, partitions, majority views, recovery.

A narrated tour of the fault-tolerance machinery the paper delegates to
the group-communication layer [Bv94, SS94]: the view is restructured as
sites fail and recover, and the system stays available while a majority
view exists.

Timeline (5 sites, RBP):

  t=0      normal operation, updates from every site
  t=1000   site 4 crashes            -> view {0,1,2,3}, work continues
  t=3000   partition {0,1} | {2,3}   -> NO majority anywhere: updates block
  t=5000   partition heals           -> view reforms, updates resume
  t=7000   site 4 recovers           -> state transfer, full membership

Run:  python examples/failover.py
"""

from repro import Cluster, ClusterConfig, TransactionSpec
from repro.core.transaction import AbortReason

NUM_SITES = 5


def main() -> None:
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=NUM_SITES,
            num_objects=32,
            seed=99,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            retry_aborted=False,
        )
    )
    counter = [0]
    finals = []  # every spec's final status, as the cluster reports it
    cluster.add_spec_listener(finals.append)

    def submit_round(label, homes, at):
        for home in homes:
            counter[0] += 1
            cluster.submit(
                TransactionSpec.make(
                    f"{label}{counter[0]}",
                    home=home,
                    read_keys=[f"x{counter[0] % 32}"],
                    writes={f"x{counter[0] % 32}": f"{label}-{counter[0]}"},
                ),
                at=at,
            )

    print("t=0     submitting updates from all 5 sites (normal operation)")
    submit_round("normal", range(NUM_SITES), at=100.0)

    print("t=1000  crashing site 4")
    cluster.crash_site(4, at=1000.0)
    print("t=1500  submitting updates from surviving sites {0,1,2,3}")
    submit_round("afterCrash", range(4), at=1500.0)

    print("t=3000  partitioning {0,1} | {2,3}: no side has 3 of 5 sites")
    cluster.engine.schedule_at(3000.0, cluster.partition, [[0, 1], [2, 3]])
    print("t=3800  submitting updates on both sides (expected: refused)")
    submit_round("splitA", [0], at=3800.0)
    submit_round("splitB", [2], at=3800.0)

    print("t=5000  healing the partition")
    cluster.engine.schedule_at(5000.0, cluster.heal_partition)
    print("t=6000  submitting updates again (expected: committed)")
    submit_round("healed", range(4), at=6000.0)

    cluster.run(max_time=7000.0, stop_when=lambda: False, drain=False)

    print("t=7000  recovering site 4 (state transfer + rejoin)")
    cluster.recover_site(4)
    submit_round("recovered", range(NUM_SITES), at=8500.0)
    result = cluster.run(max_time=100000.0)

    print()
    print("outcomes:")
    refused = committed = 0
    for status in sorted(finals, key=lambda status: status.spec.name):
        if status.committed:
            committed += 1
        elif status.last_outcome is AbortReason.NO_QUORUM:
            refused += 1
            print(f"  {status.spec.name:14s} refused: submitted in a minority view")
    print(f"  {committed} committed, {refused} refused by quorum check")

    views = sorted({(m.view.view_id, tuple(m.view.members)) for m in cluster.memberships})
    print()
    print("view history (final state at each site):")
    for view_id, members in views:
        print(f"  view#{view_id}: members={list(members)}")

    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    print()
    print(result.serialization.explain())
    print("replicas converged:", result.converged)
    assert refused == 2, "both minority-side updates should have been refused"


if __name__ == "__main__":
    main()
