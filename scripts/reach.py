#!/usr/bin/env python3
"""Reachability census: which ``src/repro`` functions the drivers run.

The drivers are what produce the repository's numbers: the E1-E14
experiments (``pytest benchmarks``), the six bench workloads at full scale
(driven through ``bench/child.py`` and ``bench/workloads.py``, seed 1) and
the six examples.  Each driver runs in a child process under
``sys.setprofile`` and ``threading.setprofile``, which record every
``src/repro`` code object entered, keyed by ``(file, first line)``; the
first line of a decorated function is its first decorator's, as in
``co_firstlineno``.  An AST walk lists every function definition (the
static checker excluded; a nested function's lines count inside its
parent too; an ``@abstractmethod`` declares and never runs, so it is not
counted), and the census compares the two.

    python scripts/reach.py            # drivers + tier-1, per-module report (make reach)
    python scripts/reach.py --check    # drivers only, held to the DESIGN.md list

The report splits what the drivers leave into *test-only* (tier-1 enters
it) and *reached by nothing*.  Both modes hold the drivers' result to the
committed list, the "Functions the drivers do not reach" section of
DESIGN.md, and fail when an unreached function is missing from it, when a
listed function is reached, or when a listed one no longer exists, so the
surplus can only shrink.  Sweep workers and ``atexit`` hooks run where the
hook does not follow; the list marks them ``entry``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
CHECKER = PACKAGE / "analysis" / "staticcheck"
BENCH = ROOT / "bench"
DESIGN = ROOT / "DESIGN.md"
LIST_HEADING = "## Functions the drivers do not reach"
#: The reasons a function may stay unreached (defined in the DESIGN.md section).
REASONS = ("check", "fake", "fault-injector", "shell", "fault-path", "test-body", "entry")
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
WORKLOADS = ("rbp_wide", "cbp_steady", "abp_hot_mix", "p2p_steady", "abp_lossy", "abp_churn")
DRIVERS = ["experiments", "examples"] + [f"workload:{name}" for name in WORKLOADS]
ROW = re.compile(r"^\| `([^`]+)` \| (\S+) \|")


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (name, body lines)`` for every function
    definition under ``src/repro`` outside the checker.  The name is
    ``module:Class.method`` (``outer.inner`` when nested); a second
    definition of one name (a property setter) gets ``#2``."""
    table: dict[tuple[str, int], tuple[str, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if CHECKER in path.parents:
            continue
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        counts: dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(
                        getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod"
                        for d in child.decorator_list
                    ):
                        continue
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    counts[qualname] = counts.get(qualname, 0) + 1
                    name = f"{module}:{qualname}"
                    if counts[qualname] > 1:
                        name += f"#{counts[qualname]}"
                    table[(str(path), first)] = (name, child.end_lineno - first + 1)
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return table


def listed() -> dict[str, str]:
    """The committed list: function name -> reason."""
    section = (DESIGN.read_text().split(LIST_HEADING, 1) + [""])[1].split("\n## ", 1)[0]
    return {m.group(1): m.group(2) for m in map(ROW.match, section.splitlines()) if m}


def listed_lines() -> int:
    """Body lines of the listed functions that still exist (no census run)."""
    names = set(listed())
    return sum(lines for name, lines in sorted(functions().values()) if name in names)


# -- collection (child side) ---------------------------------------------------


def _run_driver(driver: str) -> None:
    """Run one driver in this process; raise if it fails (a census of a
    run that broke off would miss what the rest of it reaches)."""
    if driver in ("experiments", "tests"):
        import pytest

        where = ROOT / ("benchmarks" if driver == "experiments" else "tests")
        code = pytest.main([str(where), "-q", "-p", "no:cacheprovider", "--benchmark-disable"])
        if code:
            raise RuntimeError(f"{driver}: pytest exited {code}")
    elif driver == "examples":
        for example in EXAMPLES:
            sys.argv = [str(example)]
            runpy.run_path(str(example), run_name="__main__")
    elif driver.startswith("workload:"):
        sys.path[:0] = [str(BENCH), str(SRC)]
        sys.argv = ["child.py", "--workload", driver.split(":", 1)[1], "--seed", "1"]
        runpy.run_path(str(BENCH / "child.py"), run_name="__main__")
    else:
        raise SystemExit(f"unknown driver {driver!r}")


def collect(driver: str, out: str) -> None:
    """Run one driver under the profile hook; write the keys it entered."""
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    seen: set = set()
    add = seen.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        _run_driver(driver)
    except SystemExit as stop:  # an example's or bench/child.py's own exit
        if stop.code:
            raise
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        prefix = str(PACKAGE) + os.sep
        keys = sorted(
            {(c.co_filename, c.co_firstlineno) for c in seen if c.co_filename.startswith(prefix)}
        )
        pathlib.Path(out).write_text(json.dumps(keys))


# -- census (parent side) ------------------------------------------------------


def reached(drivers: list[str], jobs: int) -> dict[str, set[tuple[str, int]]]:
    """Run each driver in its own child process: driver -> keys it entered."""

    def one(driver: str) -> set[tuple[str, int]]:
        with tempfile.NamedTemporaryFile(suffix=".json") as out:
            subprocess.run(
                [sys.executable, __file__, "--collect", driver, "--out", out.name],
                cwd=ROOT,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                stdout=subprocess.DEVNULL,
                check=True,
            )
            print(f"  {driver}: done", file=sys.stderr)
            return {tuple(key) for key in json.loads(pathlib.Path(out.name).read_text())}

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return dict(zip(drivers, pool.map(one, drivers)))


def held_to_list(unreached: dict[str, int], by_drivers: set[str]) -> list[str]:
    """What the committed list gets wrong, one line each (empty when right)."""
    committed = listed()
    problems = [
        f"unlisted, not reached by the drivers: {name}"
        for name in unreached
        if name not in committed
    ]
    for name, reason in sorted(committed.items()):
        if reason not in REASONS:
            problems.append(f"listed with an unknown reason {reason!r}: {name}")
        if name in by_drivers:
            problems.append(f"listed, but the drivers reach it: {name}")
        elif name not in unreached:
            problems.append(f"listed, but no such function: {name}")
    return problems


def report(table, by_drivers: set[str], by_tests: set[str] | None) -> None:
    """Per module: functions and body lines in all, left by the drivers,
    and (with tier-1) of those, test-only and reached by nothing."""
    buckets = ("all", "unreached") + (() if by_tests is None else ("test-only", "nothing"))
    counts: dict[str, dict[str, list[int]]] = {}
    for name, lines in sorted(table.values()):
        module = counts.setdefault(name.split(":", 1)[0], {b: [0, 0] for b in buckets})
        hits = ["all"]
        if name not in by_drivers:
            hits.append("unreached")
            if by_tests is not None:
                hits.append("test-only" if name in by_tests else "nothing")
        for bucket in hits:
            module[bucket][0] += 1
            module[bucket][1] += lines
    print(f"{'module':40}" + "".join(f"{b:>15}" for b in buckets))
    for module, row in sorted(counts.items()):
        if row["unreached"][0]:
            print(f"{module:40}" + "".join(f"{row[b][0]:6} {row[b][1]:7} " for b in buckets))
    rows = [row for _, row in sorted(counts.items())]
    total = {b: [sum(row[b][i] for row in rows) for i in (0, 1)] for b in buckets}
    line = f"reach: {total['all'][0]} functions ({total['all'][1]} lines); the drivers leave "
    line += f"{total['unreached'][0]} ({total['unreached'][1]} lines)"
    if by_tests is not None:
        line += f": test-only {total['test-only'][0]} ({total['test-only'][1]} lines), "
        line += f"reached by nothing {total['nothing'][0]} ({total['nothing'][1]} lines)"
        for name, lines in sorted(table.values()):
            if name not in by_drivers and name not in by_tests:
                print(f"  reached by nothing: {name} ({lines} lines)")
    print(line)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--check", action="store_true", help="drivers only (CI)")
    parser.add_argument("--jobs", type=int, default=2, help="driver processes at once (default 2)")
    parser.add_argument("--collect", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.collect:
        collect(args.collect, args.out)
        return 0

    table = functions()
    # Tier-1 goes first: it is the longest child, so the drivers fill the
    # other worker meanwhile.
    runs = reached(([] if args.check else ["tests"]) + DRIVERS, args.jobs)
    by_drivers = {table[key][0] for d in DRIVERS for key in runs[d] if key in table}
    by_tests = None
    if not args.check:
        by_tests = {table[key][0] for key in runs["tests"] if key in table}
    report(table, by_drivers, by_tests)
    unreached = {name: lines for name, lines in table.values() if name not in by_drivers}
    problems = held_to_list(unreached, by_drivers)
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        print(f"the '{LIST_HEADING[3:]}' list in DESIGN.md is out of date", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
