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
- collected tier-1 tests.
"""

from __future__ import annotations

import ast
import dataclasses
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
        f"tests {collected_tests()}"
    )


if __name__ == "__main__":
    main()
