"""H-series rules: handler-safety hazards (H401–H403).

These are flow-sensitive checks over the handler entry points the call graph
discovers — the bug classes behind PR 2's stale-query-timer fix and PR 4's
recovery-window clobber, generalized from their one-off fixes:

- **H401** — a timer callback must establish that its firing is still
  relevant *before* mutating protocol state.  P203 only asks whether a
  guard exists somewhere near the top; H401 orders every mutation against
  the first guard and flags state writes that precede it (or callbacks
  with mutations and no guard at all).  Metric counters
  (``self.x += 1``-style constant increments) are exempt: a stale count
  bump is observability noise, not protocol damage.
- **H402** — under synchronous local delivery (a handler calling a peer
  handler directly, or zero-delay self-dispatch) a send can re-enter the
  sender's own class before the next statement runs.  A handler that reads
  state, sends, and *then* mutates that same state has a re-entrancy
  window where the re-entrant handler observes the pre-mutation value.
  Complete the transition first, send last.
- **H403** — the PR 4 bug class: state installed while a recovery/state
  transfer is in flight gets clobbered by the stale snapshot.  The router
  holds every channel of a site in transfer except those registered
  ``during_transfer=True``, so only those handlers can run then: any such
  entry point whose reachable call set performs a durable install
  (``install_writes``/``install_snapshot``/``adopt_protocol_state``/
  ``store.install``) must show deferral evidence somewhere on that path —
  a ``recovering`` check or a backlog queue — as the recovery agent's
  reply handler does.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.staticcheck.callgraph import TIMER, TRANSFER, CallGraph
from repro.analysis.staticcheck.scaling_rules import _own_nodes

#: Collection mutator methods that count as state writes on their receiver.
_MUTATOR_METHODS = {
    "append",
    "appendleft",
    "add",
    "discard",
    "remove",
    "pop",
    "popleft",
    "clear",
    "update",
    "extend",
    "insert",
    "setdefault",
}
_SEND_CALLS = {"send", "multicast", "broadcast", "broadcast_causal"}
_DURABLE_INSTALLERS = {"install_writes", "install_snapshot", "adopt_protocol_state"}


def _self_attr_root(node: ast.expr) -> Optional[str]:
    """For ``self.x``, ``self.x.y``, ``self.x[k]`` return ``"x"``."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        owner = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(owner, ast.Name)
            and owner.id == "self"
        ):
            return node.attr
        node = owner
    return None


def _is_counter_bump(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, (ast.Add, ast.Sub))
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, (int, float))
    )


def _mutations(funcdef: ast.FunctionDef) -> list[tuple[int, str, ast.AST]]:
    """(lineno, attr, node) for every protocol-state write in ``funcdef``."""
    found: list[tuple[int, str, ast.AST]] = []
    for node in _own_nodes(funcdef):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if _is_counter_bump(node):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr = _self_attr_root(target)
                if attr is not None:
                    found.append((node.lineno, attr, node))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _self_attr_root(target)
                if attr is not None:
                    found.append((node.lineno, attr, node))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
        ):
            attr = _self_attr_root(node.func.value)
            if attr is not None:
                found.append((node.lineno, attr, node))
    return sorted(found, key=lambda item: item[0])


class HandlerChecker:
    """Emit H401–H403 through the host ModuleChecker's finding machinery."""

    def __init__(self, checker, graph: CallGraph):
        self.checker = checker
        self.graph = graph

    def run(self) -> None:
        for funcdef in self.graph.entries(TIMER):
            self._check_timer_guard_order(funcdef)
        for funcdef in self.graph.functions.values():
            if self.graph.is_message_hot(funcdef):
                self._check_send_then_mutate(funcdef)
        for funcdef in self.graph.entries(TRANSFER):
            self._check_recovery_window(funcdef)

    # -- H401: mutation ordered against the staleness guard --------------------

    def _check_timer_guard_order(self, funcdef: ast.FunctionDef) -> None:
        guard_line, guard_ifs = self._find_guards(funcdef)
        guarded_nodes = {
            id(sub) for guard in guard_ifs for sub in ast.walk(guard)
        }
        for lineno, attr, node in _mutations(funcdef):
            if id(node) in guarded_nodes:
                continue  # cleanup inside the staleness check itself
            if guard_line is not None and lineno > guard_line:
                continue
            self.checker._emit(
                "H401",
                node,
                f"timer callback {funcdef.name}() mutates self.{attr} "
                + (
                    "before its staleness guard"
                    if guard_line is not None
                    else "and has no staleness guard at all"
                )
                + "; a stale firing corrupts live state",
            )
            return  # first offending mutation is enough per callback

    def _find_guards(
        self, funcdef: ast.FunctionDef
    ) -> tuple[Optional[int], list[ast.If]]:
        """First guard line + the guard ``If`` statements themselves.

        Guards are (a) any ``If`` whose subtree returns/raises — the
        re-check-then-bail shape — and (b) any comparison involving an
        epoch/attempt/token parameter (the PR 2 idiom).
        """
        from repro.analysis.staticcheck.rules import _TOKEN_PARAM

        guard_ifs: list[ast.If] = []
        candidates: list[int] = []
        for node in _own_nodes(funcdef):
            if isinstance(node, ast.If) and any(
                isinstance(sub, (ast.Return, ast.Raise)) for sub in ast.walk(node)
            ):
                guard_ifs.append(node)
                candidates.append(node.lineno)
        token_params = {
            arg.arg
            for arg in list(funcdef.args.args) + list(funcdef.args.kwonlyargs)
            if _TOKEN_PARAM.search(arg.arg)
        }
        if token_params:
            for node in _own_nodes(funcdef):
                if isinstance(node, ast.Compare) and any(
                    isinstance(sub, ast.Name) and sub.id in token_params
                    for sub in ast.walk(node)
                ):
                    candidates.append(node.lineno)
        return (min(candidates) if candidates else None), guard_ifs

    # -- H402: read -> send -> mutate re-entrancy window ------------------------

    def _check_send_then_mutate(self, funcdef: ast.FunctionDef) -> None:
        reads: list[tuple[int, str]] = []
        sends: list[int] = []
        for node in _own_nodes(funcdef):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                reads.append((node.lineno, node.attr))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SEND_CALLS
                and _self_attr_root(node.func.value) is not None
            ):
                sends.append(node.lineno)
        if not sends:
            return
        for lineno, attr, node in _mutations(funcdef):
            # Strict ordering: some send line between the read and the
            # mutation, and the read is not part of the mutation itself.
            for send_line in sends:
                if send_line >= lineno:
                    continue
                if any(
                    read_line < send_line
                    for read_line, read_attr in reads
                    if read_attr == attr
                ):
                    self.checker._emit(
                        "H402",
                        node,
                        f"handler {funcdef.name}() mutates self.{attr} after a "
                        "send that follows a read of the same state; synchronous "
                        "local delivery can re-enter between them",
                    )
                    return

    # -- H403: durable installs inside the recovery window ----------------------

    def _check_recovery_window(self, funcdef: ast.FunctionDef) -> None:
        reachable = self.graph.reachable_from(funcdef)
        install_site: Optional[tuple[str, str]] = None  # (function, call text)
        for func in reachable:
            for node in _own_nodes(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                ):
                    continue
                attr = node.func.attr
                owner = node.func.value
                if attr in _DURABLE_INSTALLERS or (
                    attr == "install"
                    and isinstance(owner, ast.Attribute)
                    and owner.attr == "store"
                ):
                    install_site = (func.name, attr)
                    break
            if install_site:
                break
        if install_site is None:
            return
        for func in reachable:
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == "recovering":
                    return
                if isinstance(node, (ast.Attribute, ast.Name)):
                    name = node.attr if isinstance(node, ast.Attribute) else node.id
                    if "backlog" in name:
                        return
        self.checker._emit(
            "H403",
            funcdef,
            f"handler {funcdef.name}(), served during state transfer, reaches a "
            f"durable install ({install_site[0]}() calls {install_site[1]}) with no "
            "recovery-window deferral on the path (the PR 4 stale-snapshot clobber class)",
        )


def run_handler_rules(checker, graph: CallGraph) -> None:
    HandlerChecker(checker, graph).run()
