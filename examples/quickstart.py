#!/usr/bin/env python3
"""Quickstart: run one replicated transaction under each protocol.

Builds a four-site replicated database, submits a read-modify-write
transaction plus a read-only one, and prints what each protocol cost in
messages and time.  This is the 60-second tour of the library.

Run:  python examples/quickstart.py
"""

from repro import Cluster, ClusterConfig, Table, TransactionSpec


def run_protocol(protocol: str) -> dict:
    cluster = Cluster(ClusterConfig(protocol=protocol, num_sites=4, seed=7))

    # A read-modify-write "bank transfer": read both balances, write both.
    cluster.submit(
        TransactionSpec.make(
            "transfer",
            home=0,
            read_keys=["x0", "x1"],
            writes={"x0": 900, "x1": 1100},
        )
    )
    # A read-only audit at another site: commits locally, never aborts,
    # sends zero messages (the paper's guarantee in all three protocols).
    cluster.submit(
        TransactionSpec.make("audit", home=2, read_keys=["x0", "x1"]),
        at=300.0,
    )

    result = cluster.run()
    assert result.ok, "one-copy serializability or convergence violated!"
    assert result.committed_specs == 2

    # Separate per-transaction protocol messages from background traffic
    # (CBP null messages: the implicit acknowledgments a site owes after
    # delivering a commit request, sent at its next tick; heartbeats).
    background = {"cbp.null", "fd.heartbeat", "abcast.token"}
    protocol_msgs = sum(
        count
        for kind, count in result.messages_by_kind.items()
        if kind not in background
    )
    return {
        "protocol": protocol,
        "messages": protocol_msgs,
        "background": result.network_stats["sent"] - protocol_msgs,
        "update_latency": result.metrics.commit_latency(read_only=False).mean,
        "readonly_latency": result.metrics.commit_latency(read_only=True).mean,
    }


def main() -> None:
    table = Table(
        [
            "protocol",
            "protocol msgs",
            "background msgs",
            "update latency (ms)",
            "read-only latency (ms)",
        ],
        title="Quickstart: one transfer + one audit, 4 sites",
    )
    for protocol in ("p2p", "rbp", "cbp", "abp"):
        row = run_protocol(protocol)
        table.add_row(
            row["protocol"],
            row["messages"],
            row["background"],
            row["update_latency"],
            row["readonly_latency"],
        )
    print(table)
    print()
    print("p2p = point-to-point ROWA + centralized 2PC (baseline)")
    print("rbp = reliable broadcast + explicit acks + decentralized 2PC (paper S3)")
    print("cbp = causal broadcast + implicit acknowledgments (paper S4)")
    print("abp = atomic broadcast + certification, no acknowledgments (paper S5)")


if __name__ == "__main__":
    main()
