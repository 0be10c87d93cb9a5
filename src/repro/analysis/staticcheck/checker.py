"""File discovery, inline suppressions, and check orchestration.

Suppression syntax (in comments):

- ``# detcheck: ignore[D103]`` — suppress the listed rules on this line
  (or on the line directly below, when the comment stands alone);
- ``# detcheck: ignore[D103,P201] -- justification`` — same, with a note;
- ``# detcheck: ignore`` — suppress every rule on this line;
- ``# detcheck: file-ignore[D102]`` — suppress the listed rules for the
  whole file (used by scripts that time a run, whose point is wall-clock).

A suppressed finding still appears in ``--verbose`` output but never fails
the run and is never written to a baseline.
"""

from __future__ import annotations

import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from typing import Iterable, Optional, Sequence

from repro.analysis.staticcheck.findings import (
    Baseline,
    Finding,
    fingerprint_findings,
)
from repro.analysis.staticcheck.rules import ALL_RULE_IDS, RULES, check_module

_PRAGMA = re.compile(
    r"#\s*detcheck:\s*(?P<scope>file-ignore|ignore)"
    r"(?:\[(?P<rules>[A-Z]\d+(?:\s*,\s*[A-Z]\d+)*)\])?"
)

#: Directories whose modules form the protocol layer (P204's scope).
_PROTOCOL_LAYER = ("repro/core/", "repro/baselines/")

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "fixtures"}


@dataclass
class Suppressions:
    """Per-file suppression table extracted from comments."""

    by_line: dict[int, Optional[set[str]]] = field(default_factory=dict)
    file_wide: set[str] = field(default_factory=set)
    #: Lines holding a comment and nothing else; their pragmas also cover
    #: the statement below, so a pragma can sit anywhere in the block of
    #: comment lines (typically justification prose) above a long statement.
    standalone: set[int] = field(default_factory=set)
    #: Every comment-only line (pragma or not), for walking comment blocks.
    comment_only: set[int] = field(default_factory=set)

    def _line_covers(self, candidate: int, rule_id: str) -> bool:
        rules = self.by_line.get(candidate, _MISSING)
        if rules is _MISSING:
            return False
        return rules is None or rule_id in rules

    def covers(self, line: int, rule_id: str) -> bool:
        if rule_id in self.file_wide:
            return True
        if self._line_covers(line, rule_id):  # trailing comment
            return True
        candidate = line - 1
        while candidate in self.comment_only:
            if candidate in self.standalone and self._line_covers(candidate, rule_id):
                return True
            candidate -= 1
        return False


_MISSING: object = object()


def parse_suppressions(source: str) -> Suppressions:
    table = Suppressions()
    code_lines: set[int] = set()
    comment_lines: set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return table
    for token in tokens:
        if token.type == tokenize.COMMENT:
            comment_lines.add(token.start[0])
            match = _PRAGMA.search(token.string)
            if not match:
                continue
            rules = match.group("rules")
            rule_set = (
                {r.strip() for r in rules.split(",")} if rules else None
            )
            if match.group("scope") == "file-ignore":
                table.file_wide |= rule_set if rule_set else set(RULES)
            else:
                line = token.start[0]
                existing = table.by_line.get(line, _MISSING)
                if existing is _MISSING:
                    table.by_line[line] = rule_set
                elif existing is None or rule_set is None:
                    table.by_line[line] = None
                else:
                    table.by_line[line] = existing | rule_set
        elif token.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENCODING,
            tokenize.ENDMARKER,
        ):
            code_lines.add(token.start[0])
    table.standalone = set(table.by_line) - code_lines
    table.comment_only = comment_lines - code_lines
    return table


def iter_python_files(paths: Sequence[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    files.append(sub)
    return sorted(set(files))


def relative_posix(path: pathlib.Path, root: pathlib.Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def check_paths(
    paths: Sequence[pathlib.Path],
    enabled: Optional[Iterable[str]] = None,
    root: Optional[pathlib.Path] = None,
    baseline: Optional[Baseline] = None,
) -> list[Finding]:
    """Check every python file under ``paths``; returns all findings.

    Suppression and baseline state is already applied: callers decide pass
    or fail from ``Finding.is_new``.
    """
    root = root or pathlib.Path.cwd()
    enabled_set = set(enabled) if enabled is not None else set(ALL_RULE_IDS)
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        rel = relative_posix(file_path, root)
        source = file_path.read_text(encoding="utf-8")
        protocol_layer = any(marker in rel for marker in _PROTOCOL_LAYER)
        file_findings = check_module(source, rel, enabled_set, protocol_layer)
        suppressions = parse_suppressions(source)
        for finding in file_findings:
            if suppressions.covers(finding.line, finding.rule.id):
                finding.suppressed = True
        findings.extend(file_findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule.id))
    fingerprint_findings(findings)
    if baseline is not None:
        baseline.apply(findings)
    return findings
