#!/usr/bin/env python3
"""Inventory/reservation workload: hot-spot contention and protocol choice.

An online store replicates its inventory across regional sites.  Orders
decrement stock for a handful of *hot* products (a Zipfian 80/20 pattern),
so concurrent transactions collide constantly — the regime in which the
paper's three protocols behave most differently:

- RBP aborts the conflicting writer on the spot (no-wait negative acks);
- CBP NACKs concurrent conflicting writers (often both) and relies on
  client retries;
- ABP certifies in total order: the first requester wins, the stale one
  aborts and retries.

The example runs the same order stream under all three (plus the baseline)
and prints commits, retry overhead, abort taxonomy and latency — the
practical "which protocol should my store use" table.  An application
invariant is checked too: stock never goes negative and every unit sold is
accounted for at every replica.

Run:  python examples/inventory.py
"""

from repro import Cluster, ClusterConfig, Table, TransactionSpec
from repro.workload.zipf import ZipfSampler

NUM_SITES = 4
NUM_PRODUCTS = 12
INITIAL_STOCK = 500
ORDERS = 60
HOT_SKEW = 1.2


def product(i: int) -> str:
    return f"x{i}"


def run(protocol: str) -> dict:
    cluster = Cluster(
        ClusterConfig(
            protocol=protocol,
            num_sites=NUM_SITES,
            num_objects=NUM_PRODUCTS,
            seed=777,
            retry_backoff=8.0,
            max_attempts=40,
        )
    )
    cluster.submit(
        TransactionSpec.make(
            "restock",
            home=0,
            writes={product(i): INITIAL_STOCK for i in range(NUM_PRODUCTS)},
        )
    )
    cluster.run(max_time=100000)
    committed_orders = []
    cluster.add_spec_listener(
        lambda status: status.committed and committed_orders.append(status.spec.name)
    )

    sampler = ZipfSampler(NUM_PRODUCTS, HOT_SKEW)
    rng = cluster.rng.stream("orders")
    # Precompute the order stream (deterministic per seed); quantities are
    # small so stock never runs out — the contention is the point, not
    # out-of-stock handling.
    stream = [
        (n, sampler.sample(rng), rng.randrange(1, 4), rng.uniform(0, 600.0))
        for n in range(ORDERS)
    ]

    def submit_order(n, item, quantity, at):
        def build():
            store = cluster.replicas[n % NUM_SITES].store
            stock = store.read(product(item)).value
            cluster.submit(
                TransactionSpec.make(
                    f"order{n}",
                    home=n % NUM_SITES,
                    read_keys=[product(item)],
                    writes={product(item): stock - quantity},
                ),
                at=cluster.engine.now,
            )

        cluster.engine.schedule_at(at, build)

    start = cluster.engine.now
    for n, item, quantity, offset in stream:
        submit_order(n, item, quantity, start + offset)

    result = cluster.run(
        max_time=5_000_000, stop_when=cluster.await_specs(1 + ORDERS)
    )
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged

    # Application invariants: non-negative stock, and replicas agree on the
    # exact remaining stock of every product.
    remaining = {}
    for replica in cluster.replicas:
        for i in range(NUM_PRODUCTS):
            value = replica.store.read(product(i)).value
            assert value >= 0, f"negative stock for {product(i)}!"
            remaining.setdefault(i, set()).add(value)
    assert all(len(values) == 1 for values in remaining.values())

    committed_orders = len(committed_orders)
    sold = ORDERS and sum(
        INITIAL_STOCK - next(iter(remaining[i])) for i in range(NUM_PRODUCTS)
    )
    metrics = result.metrics
    return {
        "protocol": protocol,
        "orders": committed_orders,
        "units_sold": sold,
        "attempts_per_commit": metrics.attempts_per_commit(),
        "aborts": dict(
            (reason.value, count) for reason, count in metrics.aborts_by_reason.items()
        ),
        "p99_latency": metrics.commit_latency(read_only=False).p99,
    }


def main() -> None:
    table = Table(
        ["protocol", "orders ok", "attempts/commit", "p99 latency (ms)", "aborts"],
        title=f"Inventory: {ORDERS} Zipf({HOT_SKEW}) orders on {NUM_PRODUCTS} products",
    )
    for protocol in ("p2p", "rbp", "cbp", "abp"):
        row = run(protocol)
        aborts = ", ".join(f"{k}:{v}" for k, v in sorted(row["aborts"].items())) or "-"
        table.add_row(
            row["protocol"],
            row["orders"],
            row["attempts_per_commit"],
            row["p99_latency"],
            aborts,
        )
    print(table)


if __name__ == "__main__":
    main()
