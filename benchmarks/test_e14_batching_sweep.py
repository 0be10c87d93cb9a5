"""E14 (extension) — Broadcast batching: flush-window sweep.

The paper's protocols pay a fixed per-datagram price — framing bytes on
the wire, one loss trial per datagram on a lossy link.  E14 measures what
coalescing a flush window's traffic into shared envelopes (plus group
commit) buys along both axes, sweeping the flush
window for all four protocols on lossy links, where the per-datagram loss
trials make the price visible:

- **physical datagrams per committed update** fall for every protocol as
  the window widens (the headline: each datagram that never exists is a
  loss trial that never happens and a header never paid);
- **throughput** (committed txns per simulated second) *rises* for RBP
  and ABP at moderate windows — fewer datagrams mean fewer loss-repair
  round trips, which shortens the commit-latency tail more than the
  window delays commits; CBP's commit waits for a null-message period
  either way, so its throughput moves by no more than run noise;
- past the sweet spot the window delay itself dominates and throughput
  falls again: batching is a knob, not a free lunch.

Passthrough (``batching=None``) runs bit-identically to the historical
wire traffic — asserted by tests/integration/test_batching_equivalence.py,
so this file only measures the enabled configurations against it.
"""

from benchmarks.common import (
    PROTOCOLS,
    bench_once,
    make_cluster,
    print_experiment_table,
    run_mix,
    standard_workload,
)
from repro.analysis.report import Table

#: None = passthrough; numbers are flush windows in simulated ms.
WINDOWS = (None, 0.0, 2.0, 5.0)
LOSS = 0.05
TX_PER_POINT = 60


def batching_run(protocol: str, window):
    cluster = make_cluster(
        protocol,
        num_objects=256,
        seed=21,
        loss_rate=LOSS,
        batching=window,
    )
    workload = standard_workload(num_objects=256, zipf_theta=0.0)
    result = run_mix(cluster, workload, transactions=TX_PER_POINT, mpl=8)
    assert result.committed_specs == TX_PER_POINT
    updates = result.metrics.committed_update_count()
    return {
        "txn_s": result.metrics.throughput(result.duration) * 1000.0,
        "datagrams_per_update": result.network_stats["sent"] / updates,
        "bytes_per_update": result.network_stats["bytes_sent"] / updates,
    }


def test_e14_batching_sweep(benchmark):
    measured = {}
    for protocol in PROTOCOLS:
        for window in WINDOWS:
            measured[(protocol, window)] = batching_run(protocol, window)

    for title, metric in (
        ("E14a: committed txn/s vs flush window (5% loss)", "txn_s"),
        ("E14b: physical datagrams per committed update", "datagrams_per_update"),
        ("E14c: wire bytes per committed update", "bytes_per_update"),
    ):
        table = Table(["window (ms)"] + list(PROTOCOLS), title=title)
        for window in WINDOWS:
            table.add_row(
                "off" if window is None else window,
                *(measured[(p, window)][metric] for p in PROTOCOLS),
            )
        print_experiment_table(table)

    for protocol in PROTOCOLS:
        base = measured[(protocol, None)]
        swept = measured[(protocol, 2.0)]
        # Coalescing really coalesces: fewer physical datagrams per update
        # for every protocol at the moderate window.
        assert swept["datagrams_per_update"] < base["datagrams_per_update"]
    for protocol in ("rbp", "cbp", "abp"):
        # The moderate window is cheaper on the wire: shared headers +
        # group commit.
        base = measured[(protocol, None)]
        assert measured[(protocol, 2.0)]["bytes_per_update"] < base["bytes_per_update"]
    for protocol in ("rbp", "abp"):
        # Fewer datagrams = fewer loss-repair rounds: RBP and ABP have a
        # window setting that commits *faster* than passthrough despite the
        # added delay (the sweet spot differs — RBP's vote storms coalesce
        # best at zero window, ABP's sequencer traffic tolerates a wider
        # one).
        best_txn_s = max(
            measured[(protocol, window)]["txn_s"] for window in WINDOWS[1:]
        )
        assert best_txn_s > measured[(protocol, None)]["txn_s"]
    # CBP commits one null-message period after its commit request whatever
    # the window, so the window moves its throughput by no more than run
    # noise (a window wins at 7 of 11 seeds, passthrough at 4, seed 21 among
    # them; EXPERIMENTS.md, E14).  What batching reliably buys CBP is the
    # wire: every window sends fewer datagrams per update than passthrough.
    for window in WINDOWS[1:]:
        assert (
            measured[("cbp", window)]["datagrams_per_update"]
            < measured[("cbp", None)]["datagrams_per_update"]
        )
    # The step change the batching layer exists for: ABP (the paper's
    # throughput winner) gains at least 1.5x committed txn/s.
    assert measured[("abp", 2.0)]["txn_s"] >= 1.5 * measured[("abp", None)]["txn_s"]

    bench_once(benchmark, batching_run, "abp", 2.0)
