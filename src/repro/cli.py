"""Command-line interface: ``python -m repro <command> ...``.

Commands:

- ``run``      run a closed-loop workload on one protocol and print the
               outcome summary (commits, aborts, latency, messages);
- ``compare``  run the same workload under all four protocols side by side;
- ``sweep``    sweep one parameter (sites | mpl | theta | writes) for one
               or more protocols and print the paper-style table.

Every invocation is deterministic given ``--seed`` and always verifies the
one-copy-serializability and convergence invariants before printing.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Optional, Sequence

from repro.analysis.experiment import ExperimentSweep
from repro.analysis.report import Table
from repro.core.cluster import Cluster, ClusterConfig, ClusterResult
from repro.workload.generator import WorkloadConfig
from repro.workload.runner import ClosedLoopRunner
from repro.workload.scenarios import get_scenario, scenario_names

PROTOCOL_CHOICES = ("rbp", "cbp", "abp", "p2p")

SWEEPABLE = {
    "sites": (2, 4, 8, 12),
    "mpl": (1, 2, 4, 8),
    "theta": (0.0, 0.5, 0.9, 1.2),
    "writes": (1, 2, 4, 8),
}


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (exposed for tests and docs tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Using Broadcast Primitives in Replicated "
            "Databases' (Stanoi, Agrawal, El Abbadi, ICDCS 1998)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sites", type=int, default=4, help="number of replicas")
        p.add_argument("--objects", type=int, default=64, help="database size")
        p.add_argument("--transactions", type=int, default=60)
        p.add_argument("--mpl", type=int, default=6, help="concurrent clients")
        p.add_argument("--reads", type=int, default=2, help="read ops per txn")
        p.add_argument("--writes", type=int, default=2, help="write ops per txn")
        p.add_argument("--readonly", type=float, default=0.0, help="read-only fraction")
        p.add_argument("--theta", type=float, default=0.0, help="Zipf skew")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--heartbeat", type=float, default=25.0, help="CBP null-message interval (ms)")
        p.add_argument("--loss", type=float, default=0.0, help="network loss rate")
        p.add_argument(
            "--scenario",
            choices=scenario_names(),
            default=None,
            help="named workload shape (overrides reads/writes/theta/readonly)",
        )

    run_p = sub.add_parser("run", help="run one protocol")
    run_p.add_argument("protocol", choices=PROTOCOL_CHOICES)
    run_p.add_argument(
        "--timeline",
        action="store_true",
        help="print the per-transaction lifecycle gantt after the run",
    )
    run_p.add_argument(
        "--sequence",
        type=int,
        default=0,
        metavar="N",
        help="print the first N wire messages as a sequence diagram",
    )
    common(run_p)

    compare_p = sub.add_parser("compare", help="all four protocols side by side")
    common(compare_p)

    sweep_p = sub.add_parser("sweep", help="sweep one parameter")
    sweep_p.add_argument("axis", choices=sorted(SWEEPABLE))
    sweep_p.add_argument(
        "--protocols",
        default="rbp,cbp,abp,p2p",
        help="comma-separated protocol list",
    )
    sweep_p.add_argument("--values", default=None, help="comma-separated axis values")
    sweep_p.add_argument(
        "--chart", action="store_true", help="also render ASCII charts per metric"
    )
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the sweep grid (each cell is an independent "
            "deterministic simulation; results are identical to --jobs 1)"
        ),
    )
    common(sweep_p)

    anatomy_p = sub.add_parser(
        "anatomy",
        help="trace one commit: wire sequence diagram + lifecycle timeline",
    )
    anatomy_p.add_argument("protocol", choices=PROTOCOL_CHOICES)
    anatomy_p.add_argument("--sites", type=int, default=3)
    anatomy_p.add_argument("--seed", type=int, default=0)

    return parser


def _run_once(
    protocol: str,
    args: argparse.Namespace,
    _return_cluster: bool = False,
    **overrides: Any,
):
    params: dict[str, Any] = dict(
        protocol=protocol,
        num_sites=args.sites,
        num_objects=args.objects,
        seed=args.seed,
        cbp_heartbeat=args.heartbeat,
        loss_rate=args.loss,
    )
    if getattr(args, "scenario", None):
        scenario = get_scenario(args.scenario)
        base = scenario.for_sites(args.sites)
        workload_params: dict[str, Any] = dict(
            num_objects=base.num_objects,
            num_sites=base.num_sites,
            read_ops=base.read_ops,
            write_ops=base.write_ops,
            readonly_fraction=base.readonly_fraction,
            readonly_read_ops=base.readonly_read_ops,
            zipf_theta=base.zipf_theta,
        )
        params["num_objects"] = base.num_objects
    else:
        workload_params = dict(
            num_objects=args.objects,
            num_sites=args.sites,
            read_ops=args.reads,
            write_ops=args.writes,
            readonly_fraction=args.readonly,
            zipf_theta=args.theta,
        )
    mpl = overrides.pop("mpl", args.mpl)
    for key, value in overrides.items():
        if key in params:
            params[key] = value
        if key in workload_params:
            workload_params[key] = value
    params["num_objects"] = max(
        params["num_objects"],
        workload_params["read_ops"] + workload_params["write_ops"],
    )
    workload_params["num_objects"] = params["num_objects"]
    if overrides.pop("trace", False):
        params["trace"] = True
    cluster = Cluster(ClusterConfig(**params))
    if getattr(args, "sequence", 0):
        from repro.analysis.sequence import attach_capture

        cluster._cli_capture = attach_capture(cluster.network)
    runner = ClosedLoopRunner(
        cluster,
        WorkloadConfig(**workload_params),
        mpl=min(mpl, args.transactions),
        transactions=args.transactions,
    )
    runner.start()
    result = cluster.run(max_time=10_000_000.0)
    if not result.serialization.ok:
        raise SystemExit(f"INVARIANT VIOLATION: {result.serialization.explain()}")
    if not result.converged:
        raise SystemExit("INVARIANT VIOLATION: replicas diverged")
    if _return_cluster:
        return result, cluster
    return result


def _summary_row(protocol: str, result: ClusterResult) -> list[Any]:
    metrics = result.metrics
    return [
        protocol,
        result.committed_specs,
        metrics.aborts,
        metrics.attempts_per_commit(),
        metrics.commit_latency(read_only=False).p50,
        metrics.commit_latency(read_only=False).p99,
        result.network_stats["sent"],
    ]


SUMMARY_COLUMNS = [
    "protocol",
    "commits",
    "aborted attempts",
    "attempts/commit",
    "p50 lat (ms)",
    "p99 lat (ms)",
    "messages",
]


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run <protocol>``: one workload, one protocol, full summary."""
    extras = {}
    if args.timeline:
        extras["trace"] = True
    capture_n = args.sequence
    result, cluster = _run_once(args.protocol, args, _return_cluster=True, **extras)
    table = Table(SUMMARY_COLUMNS, title=f"repro run: {args.protocol}")
    table.add_row(*_summary_row(args.protocol, result))
    print(table)
    print()
    print(result.serialization.explain())
    if args.timeline:
        from repro.analysis.timeline import render_timeline

        print()
        print(render_timeline(cluster.trace))
    if capture_n:
        from repro.analysis.sequence import render_sequence

        print()
        print(render_sequence(cluster._cli_capture.messages, max_lines=capture_n))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: the same workload under all four protocols."""
    table = Table(SUMMARY_COLUMNS, title="repro compare")
    for protocol in PROTOCOL_CHOICES:
        result = _run_once(protocol, args)
        table.add_row(*_summary_row(protocol, result))
    print(table)
    return 0


class _SweepScenario:
    """Picklable sweep cell runner (``--jobs`` sends it to worker processes,
    so it must be a module-level class, not a closure)."""

    def __init__(self, args: argparse.Namespace, axis_override: str):
        self.args = args
        self.axis_override = axis_override

    def __call__(self, protocol: str, parameter: Any, seed: int) -> dict[str, float]:
        result = _run_once(protocol, self.args, **{self.axis_override: parameter})
        return {
            "p50 latency (ms)": result.metrics.commit_latency(read_only=False).p50,
            "messages/commit": (
                result.network_stats["sent"] / max(result.committed_specs, 1)
            ),
            "attempts/commit": result.metrics.attempts_per_commit(),
        }


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep <axis>``: paper-style tables over one parameter."""
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    unknown = [p for p in protocols if p not in PROTOCOL_CHOICES]
    if unknown:
        raise SystemExit(f"unknown protocols: {unknown}")
    if args.values:
        raw = [v.strip() for v in args.values.split(",")]
        cast = int if args.axis in ("sites", "mpl", "writes") else float
        values: Sequence[Any] = [cast(v) for v in raw]
    else:
        values = SWEEPABLE[args.axis]

    axis_override = {
        "sites": "num_sites",
        "mpl": "mpl",
        "theta": "zipf_theta",
        "writes": "write_ops",
    }[args.axis]

    sweep = ExperimentSweep(
        name=f"sweep {args.axis}",
        scenario=_SweepScenario(args, axis_override),
        parameters=values,
        protocols=protocols,
        seeds=(args.seed,),
    ).run(
        progress=lambda line: print(f"  {line}", file=sys.stderr),
        jobs=getattr(args, "jobs", 1),
    )
    print(sweep.render_all(parameter_label=args.axis))
    if args.chart:
        from repro.analysis.charts import chart_sweep

        for metric in sweep.metrics():
            print()
            print(chart_sweep(sweep, metric))
    return 0


def cmd_anatomy(args: argparse.Namespace) -> int:
    """``repro anatomy <protocol>``: one traced commit, fully dissected."""
    from repro.analysis.sequence import attach_capture, render_sequence
    from repro.analysis.timeline import render_timeline
    from repro.core.transaction import TransactionSpec

    cluster = Cluster(
        ClusterConfig(
            protocol=args.protocol,
            num_sites=args.sites,
            seed=args.seed,
            trace=True,
            cbp_heartbeat=None,
        )
    )
    capture = attach_capture(cluster.network)
    cluster.submit(
        TransactionSpec.make(
            "anatomy", 0, read_keys=["x0", "x1"], writes={"x0": 1, "x1": 2}
        )
    )
    if args.protocol == "cbp":
        for site in range(1, args.sites):
            cluster.submit(
                TransactionSpec.make(f"echo{site}", site, writes={f"x{5 + site}": 0}),
                at=50.0 * site,
            )
    result = cluster.run(max_time=100_000.0)
    if not result.ok:
        raise SystemExit(f"INVARIANT VIOLATION: {result.serialization.explain()}")
    print(f"{args.protocol.upper()} — wire sequence:")
    print(render_sequence(capture.messages, max_lines=40))
    print()
    print("lifecycle timeline:")
    print(render_timeline(cluster.trace, width=48))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "anatomy": cmd_anatomy,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
