"""Lightweight per-module call graph rooted at protocol handler entry points.

The S-series (hot-path scaling) and H-series (handler safety) rules need to
know which functions run *per event*: a member-set build is harmless in
``__init__`` and an O(n^2) regression inside a per-message handler.  This
module discovers handler **entry points** from the dispatch registrations the
tree actually uses and computes reachability over intra-module calls.

Entry points carry a *kind*:

- ``"message"`` — runs once per received message/delivery.  Discovered from
  ``router.register(channel, self._handler)``, ``x.set_deliver(self._h)``,
  ``x.set_receiver(self._h)``, ``network.attach(site, self._h)``, and
  zero-delay ``schedule(0, self._h, ...)`` dispatch (the uniform local
  delivery path).  Also any function annotated ``# detcheck: hot-path`` on
  or directly above its ``def`` line, or decorated ``@hot_path``.
- ``"timer"`` — a scheduled callback (``schedule``/``schedule_at``/
  ``reschedule`` with a non-zero delay), resolved like rule P203 does, or
  the tick body handed to ``Process.every`` (epoch-guarded: no P203).
- ``"view"`` — view-change and suspicion-change plumbing: methods named
  ``on_view_change``/``on_view``, listeners passed to ``add_listener``, and
  callbacks assigned to an ``on_change``/``on_recovered`` slot.
- ``"transfer"`` — a message entry point the router serves while its site
  is in state transfer: ``router.register(channel, self._h,
  during_transfer=True)``.  Every other channel is held until the snapshot
  lands, so only these can run against the pre-transfer store.

Edges are intra-module and deliberately over-approximate: any reference to
``self._method`` inside a function body (call *or* callback-passing — lock
grant continuations, scheduled thunks) adds an edge, as does any call of a
module-level function by name, and a reference to an attribute bound to a
dispatch table (``self._handlers = {Type: self._on_x, ...}``) adds an edge to
every method in the table.  Over-approximation errs toward treating code as
hot, which is the safe direction for scaling rules; cross-module calls are
out of scope (each module is checked against its own entry points).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional

MESSAGE = "message"
TIMER = "timer"
VIEW = "view"
TRANSFER = "transfer"

#: ``obj.<attr>(channel, self._h)`` registration methods -> entry kind.
_REGISTER_METHODS = {
    "register": MESSAGE,
    "set_deliver": MESSAGE,
    "set_receiver": MESSAGE,
    "attach": MESSAGE,
    "add_listener": VIEW,
}
#: ``obj.<slot> = self._h`` assignment slots -> entry kind.
_SLOT_ASSIGNS = {
    "on_change": VIEW,
    "on_recovered": VIEW,
}
_VIEW_METHOD_NAMES = {"on_view_change", "on_view"}
_SCHEDULE_METHODS = {"schedule", "schedule_at", "reschedule"}
_HOT_PATH_PRAGMA = re.compile(r"#\s*detcheck:\s*hot-path\b")


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_zero(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value in (0, 0.0)


class CallGraph:
    """Entry-point discovery + reachability for one parsed module."""

    def __init__(self, tree: ast.Module, lines: list[str]):
        self.tree = tree
        self.lines = lines
        #: id(FunctionDef) -> the node (all function defs in the module).
        self.functions: dict[int, ast.FunctionDef] = {}
        #: id(FunctionDef) -> entry kinds it is *directly* registered as.
        self.entry_kinds: dict[int, set[str]] = {}
        #: id(FunctionDef) -> ids of functions it references.
        self.edges: dict[int, set[int]] = {}
        #: id(FunctionDef) -> entry kinds of every entry that reaches it.
        self._reaching: dict[int, set[str]] = {}
        self._methods: dict[int, dict[str, ast.FunctionDef]] = {}  # class -> name -> def
        self._module_funcs: dict[str, ast.FunctionDef] = {}
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self._collect_functions()
        self._collect_entries()
        self._collect_edges()
        self._propagate()

    # -- construction --------------------------------------------------------

    def _enclosing(self, node: ast.AST, *types) -> Optional[ast.AST]:
        cursor = self._parents.get(id(node))
        while cursor is not None:
            if isinstance(cursor, types):
                return cursor
            cursor = self._parents.get(id(cursor))
        return None

    def _collect_functions(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self.functions[id(node)] = node
            classdef = self._enclosing(node, ast.ClassDef)
            if classdef is not None:
                self._methods.setdefault(id(classdef), {})[node.name] = node
            elif isinstance(self._parents.get(id(node)), ast.Module):
                self._module_funcs[node.name] = node

    def _resolve_callback(
        self, site: ast.AST, callback: ast.expr
    ) -> Optional[ast.FunctionDef]:
        """Resolve ``self._method`` / bare-name callbacks, like rule P203."""
        if _is_self_attr(callback):
            classdef = self._enclosing(site, ast.ClassDef)
            if classdef is None:
                return None
            return self._methods.get(id(classdef), {}).get(callback.attr)  # type: ignore[union-attr]
        if isinstance(callback, ast.Name):
            funcdef = self._enclosing(site, ast.FunctionDef, ast.AsyncFunctionDef)
            while funcdef is not None:
                for sub in ast.walk(funcdef):
                    if isinstance(sub, ast.FunctionDef) and sub.name == callback.id:
                        return sub
                funcdef = self._enclosing(funcdef, ast.FunctionDef, ast.AsyncFunctionDef)
            return self._module_funcs.get(callback.id)
        return None

    def _mark(self, target: Optional[ast.FunctionDef], kind: str) -> None:
        if target is not None:
            self.entry_kinds.setdefault(id(target), set()).add(kind)

    def _collect_entries(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                kind = _REGISTER_METHODS.get(method)
                if kind is not None and node.args:
                    # Callback is the last positional argument in every
                    # registration shape the tree uses.
                    target = self._resolve_callback(node, node.args[-1])
                    self._mark(target, kind)
                    if any(
                        k.arg == "during_transfer" and getattr(k.value, "value", 0) is True
                        for k in node.keywords
                    ):
                        self._mark(target, TRANSFER)
                elif method in _SCHEDULE_METHODS:
                    self._mark_timer(node, method)
                elif method == "every" and len(node.args) == 2:
                    self._mark(self._resolve_callback(node, node.args[1]), TIMER)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _SLOT_ASSIGNS
                ):
                    self._mark(
                        self._resolve_callback(node, node.value),
                        _SLOT_ASSIGNS[target.attr],
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in _VIEW_METHOD_NAMES:
                    self._mark(node, VIEW)
                if self._annotated_hot(node):
                    self._mark(node, MESSAGE)

    def _mark_timer(self, node: ast.Call, method: str) -> None:
        if method == "reschedule":
            if len(node.args) < 3:
                return
            delay, callback = node.args[1], node.args[2]
        else:
            if len(node.args) < 2:
                return
            delay, callback = node.args[0], node.args[1]
        target = self._resolve_callback(node, callback)
        if method == "schedule" and _is_zero(delay):
            # Zero-delay dispatch runs once per triggering event: hot like
            # a message handler, not like a periodic timer.
            self._mark(target, MESSAGE)
        else:
            self._mark(target, TIMER)

    def _annotated_hot(self, node: ast.FunctionDef) -> bool:
        for decorator in node.decorator_list:
            name = decorator.attr if isinstance(decorator, ast.Attribute) else (
                decorator.id if isinstance(decorator, ast.Name) else None
            )
            if name == "hot_path":
                return True
        # ``# detcheck: hot-path`` on the def line or the comment block above.
        first = min(
            [node.lineno] + [d.lineno for d in node.decorator_list]
        )
        for lineno in range(first, max(first - 4, 0), -1):
            if 0 < lineno <= len(self.lines):
                text = self.lines[lineno - 1]
                if lineno < first and not text.lstrip().startswith("#"):
                    break
                if _HOT_PATH_PRAGMA.search(text):
                    return True
        return False

    def _collect_edges(self) -> None:
        tables: dict[tuple[int, str], set[int]] = {}  # (class, attribute) -> handlers
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                resolved = (self._resolve_callback(node, v) for v in node.value.values)
                held = {id(funcdef) for funcdef in resolved if funcdef is not None}
                classdef = self._enclosing(node, ast.ClassDef)
                for target in node.targets:
                    if _is_self_attr(target):
                        tables.setdefault((id(classdef), target.attr), set()).update(held)
        for func_id, funcdef in self.functions.items():
            callees = self.edges.setdefault(func_id, set())
            classdef = self._enclosing(funcdef, ast.ClassDef)
            methods = self._methods.get(id(classdef), {}) if classdef else {}
            for sub in ast.walk(funcdef):
                if _is_self_attr(sub):
                    target = methods.get(sub.attr)  # type: ignore[union-attr]
                    if target is not None and target is not funcdef:
                        callees.add(id(target))
                    callees.update(tables.get((id(classdef), sub.attr), ()))
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id in self._module_funcs
                ):
                    target = self._module_funcs[sub.func.id]
                    if target is not funcdef:
                        callees.add(id(target))

    def _propagate(self) -> None:
        # Fixpoint of set unions: the reached-kinds result is independent of
        # the visit order, so dict order cannot leak into findings.
        # detcheck: ignore[D104]
        for func_id, kinds in self.entry_kinds.items():
            for kind in kinds:
                stack = [func_id]
                while stack:
                    current = stack.pop()
                    reached = self._reaching.setdefault(current, set())
                    if kind in reached:
                        continue
                    reached.add(kind)
                    stack.extend(self.edges.get(current, ()))

    # -- queries -------------------------------------------------------------

    def kinds_reaching(self, funcdef: ast.AST) -> set[str]:
        """Entry kinds from which ``funcdef`` is reachable (possibly empty)."""
        return self._reaching.get(id(funcdef), set())

    def is_message_hot(self, funcdef: ast.AST) -> bool:
        """Reachable from a per-message entry point (or annotated hot-path)."""
        return MESSAGE in self.kinds_reaching(funcdef)

    def is_hot(self, funcdef: ast.AST) -> bool:
        """Reachable from any per-event entry point (message or timer)."""
        kinds = self.kinds_reaching(funcdef)
        return MESSAGE in kinds or TIMER in kinds

    def entries(self, kind: str) -> list[ast.FunctionDef]:
        """Entry-point functions of ``kind``, in source order."""
        return sorted(
            (
                self.functions[func_id]
                for func_id, kinds in self.entry_kinds.items()
                if kind in kinds
            ),
            key=lambda f: f.lineno,
        )

    def reachable_from(self, funcdef: ast.AST) -> list[ast.FunctionDef]:
        """Every function reachable from ``funcdef`` (including itself)."""
        seen: set[int] = set()
        stack = [id(funcdef)]
        while stack:
            current = stack.pop()
            if current in seen or current not in self.functions:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return sorted(
            (self.functions[i] for i in seen), key=lambda f: f.lineno
        )


def build_callgraph(tree: ast.Module, lines: Iterable[str]) -> CallGraph:
    return CallGraph(tree, list(lines))
