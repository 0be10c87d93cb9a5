"""E10 — Ablations over the design choices DESIGN.md calls out.

1. **ABP dissemination**: bundled write sets (one atomic broadcast) vs
   causally pre-shipped writes + slim atomic commit request (the paper's
   ISIS-style presentation).  Same decisions, different message counts.
2. **Total-order construction**: fixed sequencer vs Totem-style token
   ring — the token ring trades latency (wait for the token) for
   sequencer-less symmetry and adds steady token traffic.
3. **CBP write dissemination**: batched vs per-operation (covered in E8b,
   summarized here at one point).
4. **RBP local-reader wounding**: aborting an invisible local reader
   instead of the remote writer that hit its lock.
"""

from benchmarks.common import (
    bench_once,
    make_cluster,
    messages_per_committed_update,
    print_experiment_table,
    run_mix,
    standard_workload,
)
from repro.analysis.report import Table
from repro.core.transaction import AbortReason


def abp_run(variant: str, order_mode: str):
    cluster = make_cluster(
        "abp",
        num_objects=128,
        abp_variant=variant,
        abp_order_mode=order_mode,
        seed=88,
    )
    workload = standard_workload(num_objects=128, read_ops=2, write_ops=2)
    result = run_mix(cluster, workload, transactions=40, mpl=4)
    return (
        messages_per_committed_update(result),
        result.metrics.commit_latency(read_only=False).mean,
    )


def test_e10_abp_variants(benchmark):
    table = Table(
        ["variant", "order", "msgs/update", "mean latency (ms)"],
        title="E10a: ABP ablations (dissemination x total-order construction)",
    )
    results = {}
    for variant in ("bundled", "shipped", "locked"):
        for order_mode in ("sequencer", "token"):
            cost, latency = abp_run(variant, order_mode)
            results[(variant, order_mode)] = (cost, latency)
            table.add_row(variant, order_mode, cost, latency)
    print_experiment_table(table)

    # Shipped pays one extra causal broadcast per update.
    assert (
        results[("shipped", "sequencer")][0]
        > results[("bundled", "sequencer")][0]
    )
    # The token ring waits for the token: higher latency than a sequencer.
    assert (
        results[("bundled", "token")][1] > results[("bundled", "sequencer")][1]
    )

    bench_once(benchmark, abp_run, "bundled", "sequencer")


def test_e10_rbp_wounding(benchmark):
    """Wounding invisible local readers lets more broadcast writers
    survive their first attempt (fewer WRITE_CONFLICT negative acks)."""

    def rbp_run(wound: bool):
        cluster = make_cluster(
            "rbp",
            num_objects=24,
            rbp_wound_local_readers=wound,
            seed=89,
            max_attempts=60,
        )
        workload = standard_workload(
            num_objects=24, read_ops=3, write_ops=1, zipf_theta=0.9
        )
        result = run_mix(cluster, workload, transactions=50, mpl=8)
        return (
            result.metrics.aborts_by_reason[AbortReason.WRITE_CONFLICT],
            result.metrics.aborts_by_reason[AbortReason.READER_PREEMPTED],
            result.metrics.attempts_per_commit(),
        )

    plain = rbp_run(False)
    wounded = rbp_run(True)
    table = Table(
        ["policy", "write-conflict aborts", "readers preempted", "attempts/commit"],
        title="E10b: RBP conflict policy, abort-writer vs wound-local-reader",
    )
    table.add_row("abort writer (paper)", *plain)
    table.add_row("wound local reader", *wounded)
    print_experiment_table(table)

    assert wounded[0] <= plain[0]  # fewer negative acks for writers
    assert wounded[1] >= 0

    bench_once(benchmark, rbp_run, True)


def test_e10_cbp_dissemination_summary(benchmark):
    def cbp_run(per_op: bool):
        cluster = make_cluster(
            "cbp", num_objects=128, cbp_per_op=per_op, cbp_heartbeat=20.0, seed=90
        )
        workload = standard_workload(num_objects=128, read_ops=3, write_ops=3)
        result = run_mix(cluster, workload, transactions=30, mpl=4)
        return messages_per_committed_update(result)

    batched = cbp_run(False)
    per_op = cbp_run(True)
    table = Table(
        ["dissemination", "msgs/update"],
        title="E10c: CBP batched vs per-operation (3 writes/txn)",
    )
    table.add_row("batched write set", batched)
    table.add_row("per operation (paper text)", per_op)
    print_experiment_table(table)
    assert per_op > batched * 1.5

    bench_once(benchmark, cbp_run, False)


def test_e10_rbp_pipelined_writes(benchmark):
    """Broadcasting all writes at once removes RBP's per-write blocked
    round: latency flattens in the write count, message cost unchanged."""

    def rbp_latency(pipeline: bool, writes: int):
        cluster = make_cluster(
            "rbp", num_objects=128, rbp_pipeline_writes=pipeline, seed=91
        )
        workload = standard_workload(
            num_objects=128, read_ops=writes, write_ops=writes
        )
        result = run_mix(cluster, workload, transactions=30, mpl=3)
        return (
            result.metrics.commit_latency(read_only=False).mean,
            messages_per_committed_update(result),
        )

    table = Table(
        ["writes/txn", "sequential lat", "pipelined lat", "seq msgs", "pipe msgs"],
        title="E10d: RBP sequential (paper) vs pipelined write rounds",
    )
    for writes in (1, 2, 4, 8):
        seq_lat, seq_msgs = rbp_latency(False, writes)
        pipe_lat, pipe_msgs = rbp_latency(True, writes)
        table.add_row(writes, seq_lat, pipe_lat, seq_msgs, pipe_msgs)
        if writes >= 4:
            assert pipe_lat < seq_lat / 2
        assert abs(pipe_msgs - seq_msgs) < seq_msgs * 0.25
    print_experiment_table(table)

    bench_once(benchmark, rbp_latency, True, 4)


def test_e10_abp_uniform_delivery(benchmark):
    """Uniform (stable) delivery closes the durability window of
    sequencer-local commits at the price of waiting for global receipt."""

    def abp_latency(uniform: bool):
        cluster = make_cluster(
            "abp",
            num_objects=128,
            abp_uniform=uniform,
            seed=92,
        )
        workload = standard_workload(num_objects=128)
        result = run_mix(cluster, workload, transactions=30, mpl=3)
        return result.metrics.commit_latency(read_only=False).mean

    plain = abp_latency(False)
    uniform = abp_latency(True)
    table = Table(
        ["delivery", "mean commit latency (ms)"],
        title="E10e: ABP non-uniform vs uniform (stable) delivery",
    )
    table.add_row("non-uniform (deliver on order)", plain)
    table.add_row("uniform (deliver when stable)", uniform)
    print_experiment_table(table)
    assert uniform > plain * 1.5

    bench_once(benchmark, abp_latency, True)
