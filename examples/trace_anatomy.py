#!/usr/bin/env python3
"""Anatomy of a commit: sequence diagrams and timelines per protocol.

Runs ONE update transaction under each protocol and prints exactly what
crossed the wire, in order — the fastest way to *see* the difference
between explicit acknowledgments (RBP), implicit acknowledgments (CBP)
and acknowledgment-free certification (ABP):

- the message sequence diagram (who sent what to whom, when);
- the per-site message matrix;
- the transaction's lifecycle timeline.

Run:  python examples/trace_anatomy.py [protocol ...]
"""

import sys

from repro.analysis.sequence import attach_capture, message_matrix, render_sequence
from repro.analysis.timeline import render_timeline
from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec

NUM_SITES = 3

EXPLANATIONS = {
    "p2p": "point-to-point writes+acks, then centralized prepare/vote/decision",
    "rbp": "broadcast writes, explicit acks back to the home, then the\n"
    "         decentralized 2PC vote storm (every site to every site)",
    "cbp": "ONE write set + ONE commit request; the echo transactions from\n"
    "         other sites double as implicit acknowledgments — no acks exist",
    "abp": "ONE commit request + the sequencer's order assignment; every\n"
    "         site certifies alone, nothing flows back",
}


def anatomize(protocol: str) -> None:
    cluster = Cluster(
        ClusterConfig(
            protocol=protocol,
            num_sites=NUM_SITES,
            seed=99,
            trace=True,
            # A slow heartbeat keeps null messages out of the anatomy
            # transaction's part of the trace; the cbp.null lines at the
            # first tick come from the one site still owing the last echo
            # update its implicit acknowledgment.
            cbp_heartbeat=500.0,
        )
    )
    capture = attach_capture(cluster.network)
    cluster.submit(
        TransactionSpec.make(
            "anatomy", 0, read_keys=["x0", "x1"], writes={"x0": 1, "x1": 2}
        )
    )
    if protocol == "cbp":
        # Before the first heartbeat, CBP needs real traffic for its
        # implicit acknowledgments: one tiny unrelated update per other site.
        for site in range(1, NUM_SITES):
            cluster.submit(
                TransactionSpec.make(f"echo{site}", site, writes={f"x{5 + site}": 0}),
                at=50.0 * site,
            )
    result = cluster.run(max_time=100000)
    assert result.ok, result.serialization.explain()

    print(f"\n{'=' * 68}\n{protocol.upper()}  —  {EXPLANATIONS[protocol]}\n{'=' * 68}")
    print("\nwire sequence:")
    print(render_sequence(capture.messages, max_lines=40))
    print("\nmessage matrix (row=sender, column=receiver):")
    matrix = message_matrix(capture.messages, NUM_SITES)
    header = "      " + "".join(f"s{dst:<5}" for dst in range(NUM_SITES))
    print(header)
    for src, row in enumerate(matrix):
        print(f"  s{src}  " + "".join(f"{count:<6}" for count in row))
    print("\ntransaction timeline:")
    print(render_timeline(cluster.trace, width=48))


def main() -> None:
    protocols = sys.argv[1:] or ["p2p", "rbp", "cbp", "abp"]
    for protocol in protocols:
        anatomize(protocol)


if __name__ == "__main__":
    main()
