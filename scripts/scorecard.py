#!/usr/bin/env python3
"""Print the size scorecard ROADMAP's Standing bullet asks every PR to quote.

One line, suitable for CHANGES.md::

    python scripts/scorecard.py        # or: make scorecard

- lines of Python under ``src/`` (and, of those, the static checker);
- the largest module under ``src/repro`` outside the checker (``path lines``);
- ``detcheck: ignore`` pragmas outside the checker;
- ``ClusterConfig`` fields;
- commit tails (``record_commit_provisional(`` call sites under
  ``src/repro`` outside ``db/``) and ``in_flight`` definitions: how many
  copies of the per-transaction lifecycle the protocols keep;
- view-change defs: ``def on_view_change(`` under ``src/repro`` (how many
  hand-written rules decide what a view change means for an open
  transaction; the one walk on ``Replica`` is meant to be the only one);
- tick loops: functions under ``src/repro`` that re-``schedule`` themselves
  with no argument, so nothing tells one firing from the next (hand-rolled
  periodic work; the one inside ``Process.every`` is meant to be the only
  one -- a watchdog that re-arms itself with its transaction id is not one);
- recovery backlogs: distinct ``self.*backlog*`` attributes per module
  under ``src/repro`` (hand-rolled holds of traffic a site in state
  transfer receives; the router's hold is meant to be the only one);
- test-only lines: body lines of the functions listed in DESIGN.md's
  "Functions the drivers do not reach" (``scripts/reach.py`` holds the
  list to the census; this reads the list and does not run it);
- detcheck rules;
- collected tier-1 tests;
- startup modules: the ``repro`` modules (packages included) a fresh
  interpreter holds after building an RBP ``Cluster`` through the
  ``repro`` facade -- what every run pays for before its first event;
- calls per datagram: the Python calls (functions and builtins) cProfile
  counts while a fixed small RBP cell, and then a fixed small P2P cell,
  runs to its result, over the datagrams it sends (``NetworkStats.sent``),
  in a child process.  The per-datagram path sets a long run's wall time,
  and unlike the wall time this count repeats exactly on one interpreter,
  so a change to that path can quote it before and after.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHECKER = SRC / "repro" / "analysis" / "staticcheck"
sys.path.insert(0, str(SRC))

from repro.analysis.staticcheck.rules import ALL_RULE_IDS  # noqa: E402  (path bootstrap above)
from repro.core.cluster import ClusterConfig  # noqa: E402
from reach import listed_lines  # noqa: E402  (scripts/reach.py)

PRAGMA = r"detcheck: ignore"
COMMIT_TAIL = r"\.record_commit_provisional\("
IN_FLIGHT_DEF = r"^\s*def in_flight\("
VIEW_CHANGE_DEF = r"^\s*def on_view_change\("
BACKLOG_ATTR = r"\bself\.(\w*backlog\w*)"


def tick_loops(source: str) -> int:
    """Functions containing ``x.schedule(delay, <the function itself>)``."""
    count = 0
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        count += any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "schedule"
            and len(call.args) == 2
            and getattr(call.args[1], "attr", getattr(call.args[1], "id", None)) == func.name
            for call in ast.walk(func)
        )
    return count


def collected_tests() -> int:
    """Tests pytest collects for the tier-1 command (ROADMAP.md)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return int(re.search(r"(\d+) tests? collected", proc.stdout).group(1))


def startup_modules() -> int:
    """``repro`` modules an RBP ``Cluster`` build imports, in a child
    process (this one has imported more)."""
    code = (
        "import sys\n"
        "from repro import Cluster, ClusterConfig\n"
        "Cluster(ClusterConfig(protocol='rbp'))\n"
        "print(sum(name == 'repro' or name.startswith('repro.') for name in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return int(proc.stdout)


#: The cells ``calls_per_datagram`` profiles: ``ClusterConfig`` and
#: closed-loop overrides, each a few seconds' worth of a bench workload.
CALL_CELLS = {
    "rbp": dict(protocol="rbp", num_sites=8, num_objects=4096, transactions=200, mpl=8),
    "p2p": dict(protocol="p2p", num_sites=8, num_objects=4096, transactions=200, mpl=8),
}

_CALLS_CHILD = """
import cProfile, gc, json, pstats
from repro.core.cluster import Cluster, ClusterConfig
from repro.workload.generator import WorkloadConfig
from repro.workload.runner import ClosedLoopRunner
counts = {{}}
for name, cell in {cells!r}.items():
    cell = dict(cell)
    transactions, mpl = cell.pop("transactions"), cell.pop("mpl")
    workload = WorkloadConfig(num_objects=cell["num_objects"], num_sites=cell["num_sites"])
    # A short unprofiled run first: what a run imports or resolves once
    # (lazy imports, first-sight sizers) is not counted against a datagram.
    # The collector is off while profiling: when it runs depends on what
    # the interpreter allocated before, and what it frees can make calls.
    for count in (mpl, transactions):
        cluster = Cluster(ClusterConfig(seed=1, **cell))
        runner = ClosedLoopRunner(cluster, workload, mpl=mpl, transactions=count)
        profile = cProfile.Profile()
        gc.collect()
        gc.disable()
        if count == transactions:
            profile.enable()
        runner.start()
        result = cluster.run()
        profile.disable()
        gc.enable()
        assert result.ok and not result.incomplete_specs, name
    counts[name] = pstats.Stats(profile).total_calls / cluster.network.stats.sent
print(json.dumps(counts))
"""


def calls_per_datagram() -> dict[str, float]:
    """Python calls per datagram sent on each ``CALL_CELLS`` cell.  The
    hash seed is pinned: with it free, the P2P count (never a simulated
    number) moved by up to 0.6 % between interpreters."""
    proc = subprocess.run(
        [sys.executable, "-c", _CALLS_CHILD.format(cells=CALL_CELLS)],
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def main() -> None:
    paths = sorted(SRC.rglob("*.py"))
    everything = [path.read_text() for path in paths]
    simulator = [path.read_text() for path in paths if CHECKER not in path.parents]
    outside_db = [path.read_text() for path in paths if SRC / "repro" / "db" not in path.parents]

    def lines(texts: list[str]) -> int:
        return sum(text.count("\n") for text in texts)

    def matches(pattern: str, texts: list[str]) -> int:
        return sum(len(re.findall(pattern, text, re.MULTILINE)) for text in texts)

    size, largest = max(
        (lines([path.read_text()]), path) for path in paths if CHECKER not in path.parents
    )
    print(
        f"src/ lines {lines(everything)} "
        f"(staticcheck {lines(everything) - lines(simulator)}), "
        f"largest module {largest.relative_to(SRC)} {size}, "
        f"pragmas {matches(PRAGMA, simulator)}, "
        f"ClusterConfig fields {len(dataclasses.fields(ClusterConfig))}, "
        f"commit tails {matches(COMMIT_TAIL, outside_db)}, "
        f"in_flight defs {matches(IN_FLIGHT_DEF, everything)}, "
        f"view-change defs {matches(VIEW_CHANGE_DEF, everything)}, "
        f"tick loops {sum(tick_loops(text) for text in everything)}, "
        f"recovery backlogs {sum(len(set(re.findall(BACKLOG_ATTR, t))) for t in everything)}, "
        f"test-only lines {listed_lines()}, "
        f"lint rules {len(ALL_RULE_IDS)}, "
        f"tests {collected_tests()}, "
        f"startup modules {startup_modules()}, "
        "calls per datagram "
        + " / ".join(f"{name} {calls:.2f}" for name, calls in calls_per_datagram().items())
    )


if __name__ == "__main__":
    main()
