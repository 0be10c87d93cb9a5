#!/usr/bin/env python3
"""The repository benchmark: six protocol workloads, end to end and by layer.

    python3 bench/run.py                      all six workloads: 3 timed repeats
                                              and one traced repeat each; prints
                                              every metric, writes results JSON
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                              one workload, as the driver runs
                                              it; last line is one JSON object
    python3 bench/run.py --check              every workload at 1/20 size, twice:
                                              correctness, names, repeatability
    python3 bench/run.py --compare A.json B.json
                                              two results files, row by row

Each repeat is one fresh single-threaded child process (``child.py``); the
children run strictly one after another, so nothing contends for the two
cores.  See ``README.md`` beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH_DIR)

import metrics  # noqa: E402
import workloads  # noqa: E402

CHECK_SCALE = 1 / 20
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def run_child(workload: str, seed: int, scale: float, trace: bool) -> dict[str, Any]:
    """One repeat in a fresh process; returns the report it printed."""
    command = [
        sys.executable,
        os.path.join(BENCH_DIR, "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", repr(scale),
    ]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans_{workload}.jsonl.gz")
        command += ["--trace", "--spans-out", spans]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(
            f"{workload}: child exited {done.returncode}\n{done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(
    workload: str,
    seed: int,
    scale: float = 1.0,
    repeats: Optional[int] = None,
    seconds: float = 0.0,
    traced: bool = False,
) -> dict[str, Any]:
    """Timed repeats of one workload, then optionally one traced repeat.

    With ``repeats`` exactly that many timed repeats run; otherwise they
    run until ``seconds`` have passed (at least two, so the digest check
    has something to compare).  Every repeat uses the same seed: a host
    metric is the best of the timed repeats, and everything else must
    be identical across all of them, the traced one included -- which is
    the proof that neither timing nor tracing perturbed the simulation.
    """
    began = time.perf_counter()
    timed: list[dict[str, Any]] = []

    def enough() -> bool:
        if repeats is not None:
            return len(timed) >= repeats
        return len(timed) >= 2 and time.perf_counter() - began >= seconds

    while not enough():
        timed.append(run_child(workload, seed, scale, trace=False))
    children = timed + ([run_child(workload, seed, scale, trace=True)] if traced else [])

    first = timed[0]
    problems = [p for child in children for p in child["problems"]]
    for child in children[1:]:
        label = "traced repeat" if child["traced"] else "repeat"
        if child["digest"] != first["digest"]:
            problems.append(f"{label}: outcome digest {child['digest']} != {first['digest']}")
        for name, value in child["metrics"].items():
            if metrics.BY_NAME[name].kind != "host" and name in first["metrics"]:
                if value != first["metrics"][name]:
                    problems.append(f"{label}: {name} {value!r} != {first['metrics'][name]!r}")

    values: dict[str, dict[str, Any]] = {}
    for name, metric in metrics.BY_NAME.items():
        sources = [children[-1]] if name in metrics.TRACED_ONLY else timed
        samples = [c["metrics"][name] for c in sources if name in c["metrics"]]
        if not samples:
            continue
        entry: dict[str, Any] = {"unit": metric.unit, "kind": metric.kind}
        if metric.kind == "host":
            # Interference on the box only ever slows a repeat down (bursts of
            # +10-65% lasting seconds to minutes), so the best repeat is the
            # steadiest estimate of what the code costs; the rest is shown.
            best = min if metric.better == "lower" else max
            entry.update(
                value=best(samples),
                median=statistics.median(samples),
                min=min(samples),
                max=max(samples),
                n=len(samples),
            )
        else:
            entry["value"] = samples[0]
        values[name] = entry
    if traced:
        traced_wall = children[-1]["metrics"]["wall_s"]
        values["trace.overhead_x"] = {
            "value": traced_wall / values["wall_s"]["value"], "unit": "x", "kind": "host", "n": 1,
        }
    summary = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "repeats": len(timed),
        "correct": not problems,
        "problems": problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "digest": first["digest"],
        "latency_samples": first["latency_samples"],
        "metrics": values,
    }
    if traced:
        summary["entry_points"] = children[-1]["entry_points"]
        summary["hooks_missing"] = children[-1]["hooks_missing"]
    return summary


# -- printing -----------------------------------------------------------------


def format_value(entry: dict[str, Any]) -> str:
    value = entry["value"]
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    text = f"{text} {entry['unit']}"
    if entry.get("n", 1) > 1:
        text += (
            f"  (best of {entry['n']}: median {entry['median']:.6g},"
            f" min {entry['min']:.6g}, max {entry['max']:.6g})"
        )
    return text


def print_summary(summary: dict[str, Any]) -> None:
    values = summary["metrics"]
    print(
        f"\n== {summary['workload']}  seed={summary['seed']} scale={summary['scale']:g} "
        f"repeats={summary['repeats']} digest={summary['digest']} "
        f"{'correct' if summary['correct'] else 'INCORRECT'}",
    )
    for problem in summary["problems"]:
        print(f"   PROBLEM: {problem}")
    groups = (
        ("end to end", metrics.END_TO_END + metrics.SAME_SEED_END_TO_END + metrics.INFO),
        ("per layer", metrics.PER_LAYER),
    )
    for title, group in groups:
        print(f"  -- {title}")
        for metric in group:
            entry = values.get(metric.name)
            if entry is None:
                continue
            if metric.name.endswith(".self_s") and entry["value"] == 0:
                continue  # a sublayer this workload never enters: skip its three rows
            if metric.name.endswith((".self_frac", ".calls")):
                continue  # shown on the .self_s row
            text = format_value(entry)
            if metric.name.endswith(".self_s"):
                stem = metric.name[: -len("self_s")]
                text += (
                    f"  frac {values[stem + 'self_frac']['value']:.4f}"
                    f"  calls {values[stem + 'calls']['value']}"
                )
            if metric.name == "sim_commit_p50_ms":
                text += f"  ({summary['latency_samples']} samples)"
            print(f"     {metric.name:<34} [{metric.kind:<5}] {text}")


# -- modes --------------------------------------------------------------------


def driver_run(args: argparse.Namespace) -> int:
    """One workload, one JSON object on the last line, as the driver asks."""
    trace = args.trace == 1
    summary = measure(
        args.workload,
        args.seed,
        repeats=1 if trace else None,
        seconds=args.seconds,
        traced=trace,
    )
    print_summary(summary)
    wanted = metrics.DRIVER_PER_LAYER if trace else metrics.END_TO_END
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {
                    m.name: {"value": summary["metrics"][m.name]["value"], "unit": m.unit}
                    for m in wanted
                },
            }
        )
    )
    return 0


def full_run(args: argparse.Namespace) -> int:
    results = {}
    for workload in workloads.WORKLOADS:
        summary = measure(workload.name, args.seed, repeats=args.repeats, traced=True)
        print_summary(summary)
        summary["sizes"] = dataclasses.asdict(workload)
        results[workload.name] = summary
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump({"seed": args.seed, "repeats": args.repeats, "workloads": results}, out, indent=1)
    print(f"\nresults written to {args.out}")
    wrong = [name for name, summary in results.items() if not summary["correct"]]
    if wrong:
        print(f"INCORRECT: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


def check(args: argparse.Namespace) -> int:
    """Small, fast self-test of the benchmark itself."""
    failures = contract_mismatches()
    expected = [m.name for m in metrics.END_TO_END + metrics.DRIVER_PER_LAYER]
    for workload in workloads.WORKLOADS:
        pair = [
            measure(workload.name, args.seed, scale=CHECK_SCALE, repeats=1, traced=True)
            for _ in range(2)
        ]
        first, second = pair
        for summary in pair:
            failures += [f"{workload.name}: {p}" for p in summary["problems"]]
            failures += [
                f"{workload.name}: metric {name} missing"
                for name in expected
                if name not in summary["metrics"]
            ]
            failures += [
                f"{workload.name}: bad metric name {name!r}"
                for name in summary["metrics"]
                if not NAME_PATTERN.fullmatch(name)
            ]
            if summary["hooks_missing"]:
                failures.append(f"{workload.name}: tracer hooks missing {summary['hooks_missing']}")
        if first["digest"] != second["digest"]:
            failures.append(f"{workload.name}: digest differs between two runs")
        for name, entry in first["metrics"].items():
            other = second["metrics"].get(name)
            if entry["kind"] != "host" and other is not None and other["value"] != entry["value"]:
                failures.append(
                    f"{workload.name}: {name} {entry['value']!r} then {other['value']!r}"
                )
        print(f"checked {workload.name}: digest {first['digest']}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("check failed" if failures else "check passed")
    return 1 if failures else 0


def contract_mismatches() -> list[str]:
    """Where ``BENCHMARK.json`` and the tables in this directory disagree."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        contract = json.load(handle)
    mismatches = []
    if [w["name"] for w in contract["workloads"]] != [w.name for w in workloads.WORKLOADS]:
        mismatches.append("BENCHMARK.json: workloads differ from workloads.WORKLOADS")
    for key, table in (
        ("end_to_end", metrics.END_TO_END),
        ("per_layer", metrics.DRIVER_PER_LAYER),
    ):
        listed = {m["name"]: m for m in contract[key]}
        if list(listed) != [m.name for m in table]:
            mismatches.append(f"BENCHMARK.json: {key} names differ from metrics.py")
            continue
        for metric in table:
            row = listed[metric.name]
            bound = metric.bound if key == "end_to_end" else None
            if (row["unit"], row["better"], row.get("bound")) != (metric.unit, metric.better, bound):
                mismatches.append(f"BENCHMARK.json: {key} {metric.name} differs from metrics.py")
    return mismatches


def compare(args: argparse.Namespace) -> int:
    """Row per workload x end-to-end metric; exit 1 if any row is worse."""
    with open(args.compare[0], encoding="utf-8") as handle:
        base = json.load(handle)["workloads"]
    with open(args.compare[1], encoding="utf-8") as handle:
        change = json.load(handle)["workloads"]
    worse = 0
    print(f"{'workload':<12} {'metric':<22} {'A':>12} {'B':>12}  {'B/A':<22} {'bound':<8} verdict")
    for name in base:
        if name not in change:
            print(f"{name:<12} missing from {args.compare[1]}")
            worse += 1
            continue
        for metric in metrics.END_TO_END + metrics.SAME_SEED_END_TO_END:
            a = base[name]["metrics"][metric.name]
            b = change[name]["metrics"][metric.name]
            verdict = judge(metric, a, b)
            worse += verdict == "worse"
            ratio = f"{b['value'] / a['value']:.4f}x of {a['value']:.6g}" if a["value"] else "-"
            bound = f"{metric.bound:.0%}" + (f"|{metric.floor:g}" if metric.floor else "")
            print(
                f"{name:<12} {metric.name:<22} {a['value']:>12.6g} {b['value']:>12.6g}  "
                f"{ratio:<22} {bound:<9} {verdict}"
            )
        if base[name]["digest"] != change[name]["digest"]:
            print(f"{name:<12} outcome digest differs: {base[name]['digest']} -> {change[name]['digest']}")
        for metric in metrics.PER_LAYER:
            a = base[name]["metrics"].get(metric.name)
            b = change[name]["metrics"].get(metric.name)
            if metric.kind != "host" and a and b and a["value"] != b["value"]:
                print(f"{name:<12} {metric.name}: {a['value']!r} -> {b['value']!r} ({metric.kind})")
    return 1 if worse else 0


def judge(metric: metrics.Metric, a: dict[str, Any], b: dict[str, Any]) -> str:
    """``same`` / ``worse`` / ``unresolved`` for a host metric (unresolved:
    either side's own run-to-run spread is wider than the bound); sim
    metrics repeat exactly, so anything but equality is ``differs`` or,
    beyond the bound, ``worse``."""
    allowed = max((metric.bound or 0.0) * abs(a["value"]), metric.floor)
    loss = b["value"] - a["value"] if metric.better == "lower" else a["value"] - b["value"]
    if metric.kind != "host":
        if a["value"] == b["value"]:
            return "same"
        return "worse" if loss > allowed else "differs"
    if any(side["max"] - side["min"] > allowed for side in (a, b)):
        return "unresolved"
    return "worse" if loss > allowed else "same"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[w.name for w in workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3, help="timed repeats (full run)")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"))
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    try:
        if args.check:
            return check(args)
        if args.workload:
            return driver_run(args)
        return full_run(args)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
