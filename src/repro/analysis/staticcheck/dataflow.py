"""Intraprocedural data-flow pass for membership-derived values.

The scaling rules care about one thing: which expressions in a handler body
are *n-proportional* — they grow with cluster membership.  This pass tracks
taint from the membership sources the tree actually uses:

- ``self.view_members`` / ``view.members`` / ``self.group`` /
  ``self.active_sites`` — the view-derived collections,
- ``range(... num_sites ...)`` — index-space iteration over all sites,
- plus anything flowing out of those through materializers
  (``set``/``sorted``/``list``/``tuple``/``frozenset``), comprehensions,
  set algebra, and simple local assignment.

The pass is flow-insensitive within a function (two fixpoint sweeps handle
forward chains like ``a = members; b = set(a)``), which over-approximates:
a local once bound to a membership value stays tainted.  That is the right
bias for scaling rules — re-binding a tainted name to something small is
rare in handler bodies, and a false "n-proportional" is a reviewable
finding while a false "constant" is a silent O(n) regression.

Loop *targets* are deliberately not tainted: ``for m in self.view_members``
binds one member, not a collection.
"""

from __future__ import annotations

import ast

#: Attribute names that denote membership/view-derived collections wherever
#: they appear (``self.view_members``, ``view.members``, ``self.group``).
MEMBERSHIP_ATTRS = {
    "view_members",
    "members",
    "group",
    "active_sites",
}
#: Names whose presence inside a ``range(...)`` call makes the range
#: n-proportional (``range(self.num_sites)``).
SIZE_NAMES = {"num_sites", "n_sites", "cluster_size"}

MATERIALIZERS = {"set", "sorted", "list", "tuple", "frozenset", "dict"}


def is_membership_source(node: ast.AST) -> bool:
    """True for an expression that *directly* denotes a membership collection."""
    if isinstance(node, ast.Attribute) and node.attr in MEMBERSHIP_ATTRS:
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range":
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in SIZE_NAMES:
                return True
            if isinstance(sub, ast.Name) and sub.id in SIZE_NAMES:
                return True
    return False


class FunctionFlow:
    """Membership taint for the locals of a single function."""

    def __init__(self, funcdef: ast.FunctionDef):
        self.funcdef = funcdef
        self.tainted: set[str] = set()
        self._loop_targets: set[str] = set()
        self._collect_loop_targets()
        # Two sweeps reach a fixpoint for forward assignment chains; handler
        # bodies are short and straight-line enough that deeper chains do
        # not occur in practice.
        for _ in range(2):
            self._sweep()

    def _collect_loop_targets(self) -> None:
        for node in ast.walk(self.funcdef):
            targets: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                targets.append(node.target)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                targets.extend(gen.target for gen in node.generators)
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        self._loop_targets.add(sub.id)

    def _sweep(self) -> None:
        for node in ast.walk(self.funcdef):
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.AugAssign):
                value, targets = node.value, [node.target]
            else:
                continue
            if not self.is_n_proportional(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.tainted.add(target.id)

    # -- queries -------------------------------------------------------------

    def is_tainted_name(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Name)
            and node.id in self.tainted
            # A name that is also a member-loop target binds single members
            # at its use sites more often than not; keep the safe side.
            and node.id not in self._loop_targets
        )

    def is_n_proportional(self, node: ast.AST) -> bool:
        """Does ``node`` evaluate to a membership-proportional collection?"""
        if is_membership_source(node):
            return True
        if self.is_tainted_name(node):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in MATERIALIZERS and node.args:
                return self.is_n_proportional(node.args[0])
            if isinstance(func, ast.Attribute) and func.attr in (
                "union", "intersection", "difference", "copy"
            ):
                return self.is_n_proportional(func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_n_proportional(node.left) or self.is_n_proportional(node.right)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            return any(self.is_n_proportional(gen.iter) for gen in node.generators)
        return False

    def is_derived(self, node: ast.AST) -> bool:
        """n-proportional via a *tainted local*, not via a direct source.

        This is the S301/S304 split: materializing ``self.view_members``
        itself is S301; allocating yet another temporary from an already
        materialized local is S304.
        """
        return self.is_n_proportional(node) and not mentions_source(node)


def mentions_source(node: ast.AST) -> bool:
    """Does any subexpression of ``node`` directly denote a membership source?"""
    return any(is_membership_source(sub) for sub in ast.walk(node))
