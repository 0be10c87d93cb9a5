"""S-series rules: hot-path scaling hazards (S301, S303, S304).

These rules combine the module call graph (entry points -> reachability) with
the membership data-flow pass: an O(n) member-set build is fine at view
install time and a scaling bug inside a per-message handler.  They encode the
PR 6 manual audit — commit tallies rebuilding ``set(self.view_members)`` per
ack, collections re-sorted inside loops — as permanent checks.

The O(1) *length-guard* idiom that audit introduced is recognised and
exempted, in both shapes the tree uses::

    # (a) short-circuit guard: the set build only runs on the final ack
    if len(round_.acks) >= len(self.view_members) and \
            round_.acks >= set(self.view_members):

    # (b) early-return guard: the handler bails before materializing
    if len(tally) < len(self.view_members):
        return
    members = set(self.view_members)

Dissemination fan-outs are inherently O(n) — the message must reach every
member — and are exempt: a loop whose body contains a send (``for dst in
members: router.send(...)``), and a comprehension passed straight to one
(``router.multicast([dst for dst in members if ...], ...)``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.staticcheck.callgraph import CallGraph
from repro.analysis.staticcheck.dataflow import (
    MATERIALIZERS,
    FunctionFlow,
    mentions_source,
)

#: Calls that make a fan-out loop a legitimate dissemination loop.
_SEND_CALLS = {"send", "multicast", "broadcast", "broadcast_causal"}
#: sorted()/list() are the rebuild-per-call shapes S303 looks for.
_REBUILDERS = {"sorted", "list"}


def _call_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _own_nodes(funcdef: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk ``funcdef`` without descending into nested function defs."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(funcdef))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _len_of_proportional(expr: ast.AST, flow: FunctionFlow) -> bool:
    """Does ``expr`` contain ``len(<n-proportional>)``? (O(1) guard shape.)"""
    for sub in ast.walk(expr):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "len"
            and sub.args
            and flow.is_n_proportional(sub.args[0])
        ):
            return True
    return False


class ScalingChecker:
    """Emit the S-series through the host ModuleChecker's finding machinery."""

    def __init__(self, checker, graph: CallGraph):
        self.checker = checker  # duck-typed ModuleChecker: _emit/_parents
        self.graph = graph

    def run(self) -> None:
        for funcdef in self.graph.functions.values():
            if self.graph.is_message_hot(funcdef):
                self._check_hot_function(funcdef)
            if self.graph.is_hot(funcdef):
                self._check_loop_invariant_rebuilds(funcdef)

    # -- S301 / S304: membership materialization in message handlers ----------

    def _check_hot_function(self, funcdef: ast.FunctionDef) -> None:
        flow = FunctionFlow(funcdef)
        for node in _own_nodes(funcdef):
            if isinstance(node, ast.Call):
                name = _call_name(node.func)
                if (
                    isinstance(node.func, ast.Name)
                    and name in MATERIALIZERS
                    and node.args
                    and flow.is_n_proportional(node.args[0])
                ):
                    self._flag_materialization(funcdef, flow, node, node.args[0], name)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                if self._is_send_argument(node):
                    continue  # the destination list of a fan-out: inherently O(n)
                for generator in node.generators:
                    if flow.is_n_proportional(generator.iter):
                        self._flag_materialization(
                            funcdef, flow, node, generator.iter, "comprehension"
                        )
                        break
            elif isinstance(node, ast.For):
                self._check_hot_for(funcdef, flow, node)

    def _check_hot_for(
        self, funcdef: ast.FunctionDef, flow: FunctionFlow, node: ast.For
    ) -> None:
        # Only direct-source loops: loops over tainted locals trace back to a
        # materialization that was already flagged at its own line.
        if not (
            flow.is_n_proportional(node.iter) and mentions_source(node.iter)
        ):
            return
        if self._body_sends(node):
            return  # dissemination fan-out: inherently O(n)
        if self._is_guarded(funcdef, flow, node):
            return
        self.checker._emit(
            "S301",
            node.iter,
            f"per-message handler {funcdef.name}() iterates the full member "
            "set per event (the PR 6 commit-tally O(n^2) class)",
        )

    def _is_send_argument(self, node: ast.AST) -> bool:
        parent = self.checker._parents.get(id(node))
        return isinstance(parent, ast.Call) and _call_name(parent.func) in _SEND_CALLS

    @staticmethod
    def _body_sends(node: ast.For) -> bool:
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and _call_name(sub.func) in _SEND_CALLS:
                    return True
        return False

    def _flag_materialization(
        self,
        funcdef: ast.FunctionDef,
        flow: FunctionFlow,
        node: ast.AST,
        source_expr: ast.AST,
        shape: str,
    ) -> None:
        if self._is_guarded(funcdef, flow, node):
            return
        if mentions_source(source_expr):
            self.checker._emit(
                "S301",
                node,
                f"per-message handler {funcdef.name}() materializes a "
                f"membership-derived collection ({shape}) on every event",
            )
        else:
            self.checker._emit(
                "S304",
                node,
                f"per-message handler {funcdef.name}() allocates an "
                "n-proportional temporary from an already-built collection",
            )

    def _is_guarded(
        self, funcdef: ast.FunctionDef, flow: FunctionFlow, node: ast.AST
    ) -> bool:
        """The two O(1) length-guard shapes from the PR 6 audit."""
        # (a) later operand of a short-circuit BoolOp whose earlier operand
        # len()-guards (``and`` for the ack-tally shape, ``or`` for the
        # bail-out shape ``len(a) < len(b) or not set(b) <= a``): the
        # materialization only runs when the O(1) length test passed.
        child: ast.AST = node
        parent = self.checker._parents.get(id(node))
        while parent is not None and not isinstance(
            parent, (ast.stmt, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            if isinstance(parent, ast.BoolOp):
                values = parent.values
                if child in values:
                    for earlier in values[: values.index(child)]:
                        if _len_of_proportional(earlier, flow):
                            return True
            child, parent = parent, self.checker._parents.get(id(parent))
        # (b) an earlier statement is an If that len()-guards and bails out.
        lineno = getattr(node, "lineno", 0)
        for stmt in _own_nodes(funcdef):
            if (
                isinstance(stmt, ast.If)
                and stmt.lineno < lineno
                and _len_of_proportional(stmt.test, flow)
                and any(
                    isinstance(sub, (ast.Return, ast.Continue, ast.Raise))
                    for sub in ast.walk(stmt)
                )
            ):
                return True
        return False

    # -- S303: loop-invariant rebuilds -----------------------------------------

    def _check_loop_invariant_rebuilds(self, funcdef: ast.FunctionDef) -> None:
        for node in _own_nodes(funcdef):
            if not isinstance(node, (ast.For, ast.While)):
                continue
            assigned = _names_assigned_in(node)
            body = node.body + node.orelse
            for stmt in body:
                for sub in ast.walk(stmt):
                    if not (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id in _REBUILDERS
                        and sub.args
                    ):
                        continue
                    arg = sub.args[0]
                    if self._is_loop_invariant(arg, assigned):
                        self.checker._emit(
                            "S303",
                            sub,
                            f"{sub.func.id}() rebuilt on every iteration over a "
                            "loop-invariant collection; hoist it out of the loop",
                        )

    @staticmethod
    def _is_loop_invariant(arg: ast.expr, assigned: set[str]) -> bool:
        if isinstance(arg, ast.Name):
            return arg.id not in assigned
        if (
            isinstance(arg, ast.Attribute)
            and isinstance(arg.value, ast.Name)
            and arg.value.id == "self"
        ):
            return arg.attr not in assigned
        return False


def _names_assigned_in(loop: ast.AST) -> set[str]:
    """Names (locals and depth-1 self attrs) written anywhere in the loop."""
    assigned: set[str] = set()
    for node in ast.walk(loop):
        targets: list[ast.expr] = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # Mutator method call counts as a write to its receiver.
            targets = [node.func.value]
        for target in targets:
            base = target
            while isinstance(base, (ast.Subscript, ast.Starred)):
                base = base.value
            if isinstance(base, ast.Name):
                assigned.add(base.id)
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                assigned.add(base.attr)
    return assigned


def run_scaling_rules(checker, graph: CallGraph) -> None:
    ScalingChecker(checker, graph).run()
