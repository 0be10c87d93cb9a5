"""E11 (extension) — Byte cost and bandwidth sensitivity.

The paper counts messages; real links carry bytes.  This extension uses
the wire-size accounting to separate the protocols along a second axis:

- RBP's extra messages are *small* (acks and votes carry a boolean), so
  its byte overhead is milder than its message count suggests;
- CBP ships the write values once, ABP once more from every home that
  is not the sequencer (the hop to it); their byte cost is dominated by
  the payload itself, so at large payloads ABP's extra copy costs more
  than RBP's acks and votes;
- under a constrained-bandwidth link (transmission delay = size /
  bandwidth) the protocols' latency ordering is preserved, and payload
  size starts to matter more than message count.
"""

from benchmarks.common import (
    PROTOCOLS,
    bench_once,
    make_cluster,
    print_experiment_table,
)
from repro.analysis.report import Table

PAYLOAD_SIZES = (8, 256, 2048)  # bytes of value payload per write


def byte_run(protocol: str, payload_bytes: int, bandwidth=None):
    cluster = make_cluster(
        protocol,
        num_objects=128,
        cbp_heartbeat=25.0,
        seed=73,
        bandwidth=bandwidth,
    )
    # Pad write values to the requested size via the workload's value
    # strings: substitute a custom spec stream.
    from repro.core.transaction import TransactionSpec

    pad = "v" * payload_bytes
    for n in range(24):
        keys = [f"x{(n * 5 + i) % 128}" for i in range(2)]
        cluster.submit(
            TransactionSpec.make(
                f"T{n}",
                n % 4,
                read_keys=keys,
                writes={key: f"{pad}{n}" for key in keys},
            ),
            at=n * 40.0,
        )
    result = cluster.run(max_time=1_000_000.0, stop_when=cluster.await_specs(24))
    assert result.serialization.ok and result.converged
    updates = result.metrics.committed_update_count()
    background = ("cbp.null", "fd.heartbeat", "abcast.token")
    proto_bytes = sum(
        count
        for kind, count in sorted(cluster.network.stats.bytes_by_kind.items())
        if not kind.startswith(background)
    )
    return (
        proto_bytes / max(updates, 1),
        result.metrics.commit_latency(read_only=False).mean,
    )


def test_e11_bytes_per_update(benchmark):
    table = Table(
        ["payload (B)"] + [f"{p} KB/update" for p in PROTOCOLS],
        title="E11a: wire bytes per committed update vs payload size",
    )
    measured = {}
    for payload in PAYLOAD_SIZES:
        row = []
        for protocol in PROTOCOLS:
            kb = byte_run(protocol, payload)[0] / 1024.0
            measured[(protocol, payload)] = kb
            row.append(kb)
        table.add_row(payload, *row)
    print_experiment_table(table)

    for costly in ("rbp", "p2p"):
        # CBP (one write set, a tiny commit request) undercuts the
        # ack/vote-laden protocols at every payload size.
        for payload in PAYLOAD_SIZES:
            assert measured[("cbp", payload)] < measured[(costly, payload)]
        # ABP does while the payload is small.  At 2 KB the hop to the
        # sequencer, a fourth copy of the values from the three homes in four
        # that are not the sequencer, puts it above both.
        for payload in (8, 256):
            assert measured[("abp", payload)] < measured[(costly, payload)]
        assert measured[("abp", 2048)] > measured[(costly, 2048)]
    # At tiny payloads RBP's vote storm dominates; at huge payloads the
    # data dominates and the protocols converge (ratio shrinks).
    small_ratio = measured[("rbp", 8)] / measured[("abp", 8)]
    large_ratio = measured[("rbp", 2048)] / measured[("abp", 2048)]
    assert small_ratio > large_ratio

    bench_once(benchmark, byte_run, "abp", 256)


def test_e11_bandwidth_constrained_latency(benchmark):
    table = Table(
        ["protocol", "infinite bw (ms)", "50 B/ms link (ms)"],
        title="E11b: commit latency with 2 KB payloads, bandwidth-limited",
    )
    slow_by_protocol = {}
    for protocol in PROTOCOLS:
        fast = byte_run(protocol, 2048, bandwidth=None)[1]
        slow = slow_by_protocol[protocol] = byte_run(protocol, 2048, bandwidth=50.0)[1]
        table.add_row(protocol, fast, slow)
        assert slow > fast  # transmission delay is real
    print_experiment_table(table)
    # The per-write-round protocols pay transmission delay once per round:
    # ABP keeps its latency lead on the constrained link.
    assert min(slow_by_protocol, key=slow_by_protocol.get) == "abp"

    bench_once(benchmark, byte_run, "cbp", 2048, 50.0)
