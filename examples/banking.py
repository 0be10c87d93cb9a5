#!/usr/bin/env python3
"""Banking workload: concurrent transfers over a replicated account table.

The motivating scenario for replicated databases: a bank with branches
(sites) that each accept transfers against fully replicated accounts.
Every transfer reads two balances and writes two balances — the canonical
read-modify-write conflict pattern — while auditors run large read-only
sweeps that must never abort or block the tellers for long.

The example checks an end-to-end *application* invariant on top of the
library's 1SR checker: money is conserved — the sum of all balances after
every committed transfer equals the initial total.

Run:  python examples/banking.py [protocol]   (default: cbp)
"""

import sys

from repro import Cluster, ClusterConfig, Table, TransactionSpec

NUM_SITES = 4
NUM_ACCOUNTS = 20
INITIAL_BALANCE = 1000
TRANSFERS = 40


def account(i: int) -> str:
    return f"x{i}"


def main() -> None:
    protocol = sys.argv[1] if len(sys.argv) > 1 else "cbp"
    cluster = Cluster(
        ClusterConfig(
            protocol=protocol,
            num_sites=NUM_SITES,
            num_objects=NUM_ACCOUNTS,
            seed=2024,
        )
    )
    # Fund the accounts with a setup transaction.
    cluster.submit(
        TransactionSpec.make(
            "setup",
            home=0,
            writes={account(i): INITIAL_BALANCE for i in range(NUM_ACCOUNTS)},
        )
    )
    cluster.run(max_time=100000)

    # Tellers at every branch issue transfers concurrently.  Amounts are
    # deterministic functions of the transfer id so reruns are identical.
    rng = cluster.rng.stream("transfers")
    plans = []
    for n in range(TRANSFERS):
        src, dst = rng.sample(range(NUM_ACCOUNTS), 2)
        amount = rng.randrange(1, 50)
        plans.append((n, src, dst, amount))

    # A transfer must be expressed as read-then-write with values computed
    # from the read; our specs carry static values, so we model each
    # transfer as a retried closure: the client reads current balances via
    # a read-only probe and submits the update with computed values.  For
    # the example we instead serialize value computation through the
    # library's retry loop: each attempt re-reads at submission.  The
    # simplest faithful pattern is submit-time computation:
    def submit_transfer(n, src, dst, amount, at):
        def build_and_submit():
            store = cluster.replicas[n % NUM_SITES].store
            src_balance = store.read(account(src)).value
            dst_balance = store.read(account(dst)).value
            cluster.submit(
                TransactionSpec.make(
                    f"transfer{n}",
                    home=n % NUM_SITES,
                    read_keys=[account(src), account(dst)],
                    writes={
                        account(src): src_balance - amount,
                        account(dst): dst_balance + amount,
                    },
                ),
                at=cluster.engine.now,
            )

        cluster.engine.schedule_at(at, build_and_submit)

    # Stagger transfers so most are sequential (bank traffic), with some
    # overlap for realism.  Overlapping transfers computed from stale reads
    # are exactly what the protocols must abort (lost updates!): the
    # certification/NACK/negative-ack machinery protects the invariant.
    at = cluster.engine.now + 10.0
    for n, src, dst, amount in plans:
        submit_transfer(n, src, dst, amount, at)
        at += 40.0

    # Auditors run read-only sweeps concurrently at every site.
    for a in range(NUM_SITES):
        cluster.submit(
            TransactionSpec.make(
                f"audit{a}",
                home=a,
                read_keys=[account(i) for i in range(NUM_ACCOUNTS)],
            ),
            at=cluster.engine.now + 200.0 + a * 300.0,
        )

    expected_specs = 1 + TRANSFERS + NUM_SITES  # setup + transfers + audits
    result = cluster.run(
        max_time=2_000_000, stop_when=cluster.await_specs(expected_specs)
    )
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged, "replicas diverged!"

    # Application invariant: money conserved at every replica.
    expected_total = NUM_ACCOUNTS * INITIAL_BALANCE
    for replica in cluster.replicas:
        total = sum(
            replica.store.read(account(i)).value for i in range(NUM_ACCOUNTS)
        )
        assert total == expected_total, (
            f"site {replica.site}: {total} != {expected_total} — money leaked!"
        )

    # Auditors never aborted (the paper's read-only guarantee).
    assert result.metrics.readonly_abort_count() == 0

    table = Table(["metric", "value"], title=f"Banking on {protocol} ({NUM_SITES} sites)")
    metrics = result.metrics
    table.add_row("committed transfers", metrics.committed_update_count() - 1)
    table.add_row("audits (read-only)", metrics.committed_readonly_count())
    table.add_row("aborted attempts (retried)", metrics.aborts)
    table.add_row("attempts per commit", metrics.attempts_per_commit())
    table.add_row("update latency p50 (ms)", metrics.commit_latency(read_only=False).p50)
    table.add_row("update latency p99 (ms)", metrics.commit_latency(read_only=False).p99)
    table.add_row("total messages", result.network_stats["sent"])
    table.add_row("money conserved", f"yes ({expected_total})")
    print(table)
    print()
    print(result.serialization.explain())


if __name__ == "__main__":
    main()
