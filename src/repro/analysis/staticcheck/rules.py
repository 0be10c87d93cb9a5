"""The detcheck rule set: AST analyses for determinism and protocol invariants.

Two families:

**D-series (determinism).**  The repo's comparative claims rest on the
simulation being bit-identical across runs and across ``run_sweep(jobs=N)``
workers.  These rules ban the ambient-nondeterminism constructs that break
that property — wall clocks, module-level RNGs, ``PYTHONHASHSEED``-dependent
set/hash ordering — and flag unordered iteration feeding ordering-sensitive
constructs.

**P-series (protocol invariants).**  Conventions the broadcast/protocol
layers rely on but nothing else enforces: slotted + size-registered wire
payloads, staleness-guarded timer callbacks, and the router/broadcast
layering of sends.

Every rule is syntactic: no imports are executed, no types are resolved
beyond what single-module inference supports (set literals/calls/
comprehensions, locals and ``self.*`` attributes assigned from them).  That
makes the pass fast and safe to run on any tree, at the cost of needing the
inline-suppression / baseline machinery for the cases it cannot see through.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional

from repro.analysis.staticcheck.findings import Finding, Rule

RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in [
        Rule(
            "D101",
            "ambient-rng",
            "module-level RNG (random.*, os.urandom, uuid1/uuid4, secrets)",
            "draw from an injected repro.sim.rng stream (RngRegistry.stream)",
        ),
        Rule(
            "D102",
            "wall-clock",
            "wall-clock reads (time.time, datetime.now, ...) in simulation code",
            "use engine.now (simulated time); wall clocks belong in bench/ and "
            "timing scripts only, behind a detcheck suppression",
        ),
        Rule(
            "D103",
            "set-iteration",
            "iteration over a set in an order-sensitive position",
            "wrap the iterable in sorted(...); set order depends on "
            "PYTHONHASHSEED for str/tuple elements",
        ),
        Rule(
            "D104",
            "dict-view-order",
            "bare dict view feeding an order-sensitive construct",
            "iterate sorted(d.items()) (or justify insertion-order determinism "
            "with a suppression comment)",
        ),
        Rule(
            "D105",
            "hash-id-order",
            "ordering or derivation via id()/hash()",
            "id() is allocation-dependent and hash() depends on PYTHONHASHSEED; "
            "sort by a value key, derive seeds with hashlib (see repro.sim.rng)",
        ),
        Rule(
            "D106",
            "unordered-float-sum",
            "sum() over an unordered collection (float addition is "
            "order-sensitive)",
            "sum a sorted sequence, or math.fsum, so cross-process metric "
            "merges stay bit-identical",
        ),
        Rule(
            "P201",
            "payload-slots",
            "wire payload class (kind=... field) without __slots__",
            "declare @dataclass(slots=True) (or __slots__); unslotted payloads "
            "are sized via __dict__ and cost attribute-dict churn per message",
        ),
        Rule(
            "P202",
            "payload-wire-size",
            "wire payload class neither registered via "
            "repro.net.sizes.register_payload nor defining __wire_size__",
            "add the class to the module's register_payload(...) call so the "
            "size model validates its shape at import time",
        ),
        Rule(
            "P203",
            "timer-guard",
            "timer callback without a staleness guard",
            "start the callback with an early-return staleness check, or give "
            "it an epoch/attempt token parameter it compares (the PR-2 "
            "stale-query-timer bug class)",
        ),
        Rule(
            "P204",
            "raw-transport-send",
            "protocol-layer call to a raw network/transport send primitive",
            "protocol handlers send through router channels or a broadcast "
            "primitive; raw network sends bypass accounting and ordering",
        ),
        Rule(
            "S301",
            "hot-path-member-scan",
            "per-message handler iterates/materializes a membership-derived "
            "collection on every event",
            "guard with the O(1) length check first (len(tally) >= "
            "len(view) and tally >= set(view)), or hoist the member set out "
            "of the handler (the PR 6 commit-tally O(n^2) class)",
        ),
        Rule(
            "S303",
            "loop-invariant-rebuild",
            "sorted()/list() rebuilt every iteration over a loop-invariant "
            "collection",
            "hoist the materialization out of the loop",
        ),
        Rule(
            "S304",
            "hot-path-temporaries",
            "per-event allocation of an n-proportional temporary from an "
            "already-materialized collection",
            "reuse the existing collection, or hoist the allocation out of "
            "the per-message path",
        ),
        Rule(
            "H401",
            "unguarded-timer-mutation",
            "timer callback mutates protocol state before any staleness "
            "guard (flow-sensitive P203)",
            "establish the firing is still live (early-return re-check or "
            "epoch token compare) before the first state write; metric "
            "counter bumps are exempt",
        ),
        Rule(
            "H402",
            "send-then-mutate",
            "handler sends, then mutates state it read before the send "
            "(re-entrancy hazard under synchronous local delivery)",
            "finish the state transition before sending; a locally-delivered "
            "message can re-enter the class between send and mutation",
        ),
        Rule(
            "H403",
            "recovery-window-install",
            "handler served during state transfer reaches a durable state "
            "install with no recovery-window deferral on the path",
            "drop during_transfer=True so the router holds the channel until "
            "the snapshot lands, or check self.recovering first, as the "
            "recovery agent does (the stale-snapshot clobber class)",
        ),
        Rule(
            "E001",
            "parse-error",
            "file could not be parsed",
            "fix the syntax error",
        ),
    ]
}

D_DEFAULT = ("D101", "D102", "D103", "D104", "D105", "D106")
P_DEFAULT = ("P201", "P202", "P203", "P204")
S_DEFAULT = ("S301", "S303", "S304")
H_DEFAULT = ("H401", "H402", "H403")
ALL_RULE_IDS = D_DEFAULT + P_DEFAULT + S_DEFAULT + H_DEFAULT

#: Modules whose top-level functions are ambient-nondeterminism sources.
_RNG_MODULES = {"random", "secrets"}
_RNG_ALLOWED_ATTRS = {"Random"}  # random.Random(seed) is the sanctioned use
_WALLCLOCK_TIME_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}
_UUID_BANNED = {"uuid1", "uuid4"}

_DICT_VIEWS = {"keys", "values", "items"}
#: Wrappers that preserve the underlying iteration order.
_TRANSPARENT = {"list", "tuple", "iter", "enumerate", "reversed"}
#: Consumers whose result does not depend on iteration order.  min/max are
#: order-insensitive only without a key= tie-breaker (checked separately);
#: sum() is handled by D106.
_ORDER_INSENSITIVE = {
    "sorted",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
    "dict",
    "Counter",
    "sum",
    "min",
    "max",
}
#: Calls inside a for-body that make the loop order observable.
_ORDER_SENSITIVE_SINKS = {
    "send",
    "multicast",
    "broadcast",
    "broadcast_causal",
    "emit",
    "append",
    "appendleft",
    "extend",
    "insert",
    "schedule",
    "schedule_at",
    "reschedule",
}

_TOKEN_PARAM = re.compile(
    r"epoch|attempt|token|view|round|seq|deadline|generation|version", re.I
)

_SCHEDULE_METHODS = {"schedule", "schedule_at", "reschedule"}


def _call_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_zero(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value in (0, 0.0)


class _SetInference:
    """Syntactic set-typedness: literals, set()/frozenset(), set-typed names.

    Locals are tracked per enclosing function, ``self.x`` attributes per
    class; a name counts as set-typed only if *every* assignment to it in
    scope is set-typed, so a rebinding to a list clears it.
    """

    def __init__(self, tree: ast.Module):
        self._locals: dict[int, dict[str, bool]] = {}  # id(funcdef) -> name -> is_set
        self._attrs: dict[int, dict[str, bool]] = {}  # id(classdef) -> attr -> is_set
        self._collect(tree)

    def _collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                table = self._locals.setdefault(id(node), {})
                for arg in (
                    node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                ):
                    if arg.annotation is not None and _annotation_is_set(
                        arg.annotation
                    ):
                        self._note(table, arg.arg, True)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                        target = sub.targets[0]
                        if isinstance(target, ast.Name):
                            self._note(table, target.id, self.is_set_expr(sub.value))
                    elif isinstance(sub, ast.AnnAssign) and isinstance(
                        sub.target, ast.Name
                    ):
                        self._note(
                            table, sub.target.id, _annotation_is_set(sub.annotation)
                        )
            elif isinstance(node, ast.ClassDef):
                table = self._attrs.setdefault(id(node), {})
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                        target = sub.targets[0]
                        if _is_self_attr(target):
                            self._note(table, target.attr, self.is_set_expr(sub.value))
                    elif isinstance(sub, ast.AnnAssign) and _is_self_attr(sub.target):
                        self._note(
                            table,
                            sub.target.attr,
                            _annotation_is_set(sub.annotation),
                        )

    @staticmethod
    def _note(table: dict[str, bool], name: str, is_set: bool) -> None:
        table[name] = table.get(name, True) and is_set

    def is_set_expr(
        self,
        node: ast.expr,
        funcdef: Optional[ast.AST] = None,
        classdef: Optional[ast.AST] = None,
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name in ("set", "frozenset"):
                return True
            if name in ("union", "intersection", "difference", "symmetric_difference"):
                return self.is_set_expr(node.func.value, funcdef, classdef)  # type: ignore[attr-defined]
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left, funcdef, classdef) or self.is_set_expr(
                node.right, funcdef, classdef
            )
        if isinstance(node, ast.Name) and funcdef is not None:
            return self._locals.get(id(funcdef), {}).get(node.id, False)
        if _is_self_attr(node) and classdef is not None:
            return self._attrs.get(id(classdef), {}).get(node.attr, False)  # type: ignore[attr-defined]
        return False


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _annotation_is_set(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    text = ast.unparse(node) if hasattr(ast, "unparse") else ""
    return bool(re.match(r"^(set|frozenset|Set|FrozenSet)\b", text.strip()))


def _unwrap_transparent(node: ast.expr) -> ast.expr:
    """Strip list()/tuple()/iter()/enumerate()/reversed() wrappers."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _TRANSPARENT
        and node.args
    ):
        node = node.args[0]
    return node


def _dict_view_call(node: ast.expr) -> Optional[ast.Call]:
    """Return the ``x.keys()/values()/items()`` call under ``node``, if any."""
    node = _unwrap_transparent(node)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEWS
        and not node.args
    ):
        return node
    return None


class ModuleChecker:
    """Run all enabled rules over one parsed module."""

    def __init__(
        self,
        tree: ast.Module,
        path: str,
        lines: list[str],
        enabled: set[str],
        protocol_layer: bool = False,
    ):
        self.tree = tree
        self.path = path
        self.lines = lines
        self.enabled = enabled
        self.protocol_layer = protocol_layer
        self.findings: list[Finding] = []
        self.sets = _SetInference(tree)
        self._import_aliases: dict[str, str] = {}  # local name -> module
        self._from_imports: dict[str, tuple[str, str]] = {}  # local -> (mod, name)
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    # -- plumbing ---------------------------------------------------------------

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        if rule_id not in self.enabled:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        self.findings.append(
            Finding(RULES[rule_id], self.path, line, col, message, source_line=text)
        )

    def _enclosing(self, node: ast.AST, *types) -> Optional[ast.AST]:
        cursor = self._parents.get(id(node))
        while cursor is not None:
            if isinstance(cursor, types):
                return cursor
            cursor = self._parents.get(id(cursor))
        return None

    def _scope(self, node: ast.AST) -> tuple[Optional[ast.AST], Optional[ast.AST]]:
        return (
            self._enclosing(node, ast.FunctionDef, ast.AsyncFunctionDef),
            self._enclosing(node, ast.ClassDef),
        )

    def _is_unordered(self, node: ast.expr) -> tuple[bool, bool]:
        """(is_set_typed, is_bare_dict_view) for an iterable expression."""
        funcdef, classdef = self._scope(node)
        unwrapped = _unwrap_transparent(node)
        is_set = self.sets.is_set_expr(unwrapped, funcdef, classdef)
        is_view = _dict_view_call(node) is not None
        return is_set, is_view

    # -- entry point ------------------------------------------------------------

    def run(self) -> list[Finding]:
        self._collect_imports()
        registered = self._registered_payloads()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, ast.For):
                self._check_for(node)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                self._check_comprehension(node)
            elif isinstance(node, ast.ClassDef):
                self._check_payload_class(node, registered)
        return self.findings

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._import_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self._from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    # -- D101 / D102: ambient nondeterminism -----------------------------------

    def _check_call(self, node: ast.Call) -> None:
        self._check_ambient(node)
        self._check_selection(node)
        self._check_hash_order(node)
        self._check_float_sum(node)
        if self.protocol_layer:
            self._check_raw_send(node)
        self._check_timer(node)

    def _resolve_module_attr(self, func: ast.expr) -> Optional[tuple[str, str]]:
        """``mod.attr`` with imports resolved: returns (module, attr)."""
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = self._import_aliases.get(func.value.id)
            if module is not None:
                return module, func.attr
            origin = self._from_imports.get(func.value.id)
            if origin is not None:  # e.g. ``from datetime import datetime``
                return f"{origin[0]}.{origin[1]}", func.attr
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
            inner = self._resolve_module_attr(func.value)
            if inner is not None:
                return f"{inner[0]}.{inner[1]}", func.attr
        if isinstance(func, ast.Name):
            origin = self._from_imports.get(func.id)
            if origin is not None:
                return origin[0], origin[1]
        return None

    def _check_ambient(self, node: ast.Call) -> None:
        resolved = self._resolve_module_attr(node.func)
        if resolved is None:
            return
        module, attr = resolved
        root = module.split(".")[0]
        if root in _RNG_MODULES and attr not in _RNG_ALLOWED_ATTRS:
            self._emit(
                "D101", node, f"ambient randomness: {module}.{attr}() is unseeded"
            )
        elif module == "os" and attr == "urandom":
            self._emit("D101", node, "ambient randomness: os.urandom()")
        elif module == "uuid" and attr in _UUID_BANNED:
            self._emit("D101", node, f"ambient randomness: uuid.{attr}()")
        elif module == "time" and attr in _WALLCLOCK_TIME_ATTRS:
            self._emit("D102", node, f"wall-clock read: time.{attr}()")
        elif (
            module in ("datetime.datetime", "datetime.date")
            and attr in _WALLCLOCK_DATETIME_ATTRS
        ):
            self._emit("D102", node, f"wall-clock read: {module}.{attr}()")

    # -- D103 / D104: unordered iteration ---------------------------------------

    def _check_for(self, node: ast.For) -> None:
        is_set, is_view = self._is_unordered(node.iter)
        if is_set:
            self._emit(
                "D103",
                node.iter,
                "for-loop over a set: iteration order is PYTHONHASHSEED-dependent",
            )
        elif is_view and self._body_is_order_sensitive(node):
            self._emit(
                "D104",
                node.iter,
                "for-loop over a bare dict view drives sends/timers/"
                "accumulation in view order",
            )

    def _body_is_order_sensitive(self, node: ast.For) -> bool:
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    name = _call_name(sub.func)
                    if name in _ORDER_SENSITIVE_SINKS:
                        return True
                elif isinstance(sub, (ast.Break, ast.Return)):
                    return True
        return False

    def _check_comprehension(self, node: ast.AST) -> None:
        building_unordered = isinstance(node, (ast.SetComp, ast.DictComp))
        for generator in node.generators:  # type: ignore[attr-defined]
            is_set, is_view = self._is_unordered(generator.iter)
            if not (is_set or is_view):
                continue
            if building_unordered:
                continue  # set/dict built from unordered input: order-free
            if isinstance(node, ast.GeneratorExp) and self._consumed_insensitively(
                node
            ):
                continue
            if is_set:
                self._emit(
                    "D103",
                    generator.iter,
                    "comprehension over a set produces "
                    "PYTHONHASHSEED-dependent ordering",
                )
            elif isinstance(node, ast.ListComp):
                self._emit(
                    "D104",
                    generator.iter,
                    "list built from a bare dict view fixes the view's order "
                    "into downstream consumers",
                )

    def _consumed_insensitively(self, node: ast.AST) -> bool:
        parent = self._parents.get(id(node))
        if isinstance(parent, ast.Call) and node in parent.args:
            name = _call_name(parent.func)
            if name in _ORDER_INSENSITIVE and not (
                name in ("min", "max") and _has_key_kwarg(parent)
            ):
                return name != "sum"  # sum() is D106's to judge
        return False

    # -- D103/D104 via selection, D105, D106 ------------------------------------

    def _check_selection(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if name in ("min", "max") and _has_key_kwarg(node) and node.args:
            is_set, is_view = self._is_unordered(node.args[0])
            if is_set or is_view:
                self._emit(
                    "D103" if is_set else "D104",
                    node,
                    f"{name}(..., key=...) over an unordered collection breaks "
                    "ties by iteration order",
                )
        if (
            name == "next"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and _call_name(node.args[0].func) == "iter"
            and node.args[0].args
        ):
            is_set, is_view = self._is_unordered(node.args[0].args[0])
            if is_set or is_view:
                self._emit(
                    "D103" if is_set else "D104",
                    node,
                    "next(iter(...)) is first-wins selection from an "
                    "unordered collection",
                )

    def _check_hash_order(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if name == "hash" and isinstance(node.func, ast.Name):
            # Inside __hash__ the builtin is the only way to delegate, and
            # the result never crosses a process boundary by construction.
            funcdef = self._enclosing(node, ast.FunctionDef, ast.AsyncFunctionDef)
            if funcdef is not None and funcdef.name == "__hash__":
                return
            self._emit(
                "D105",
                node,
                "hash() of str/bytes varies with PYTHONHASHSEED across "
                "processes",
            )
            return
        if name in ("sorted", "min", "max", "sort"):
            for kw in node.keywords:
                if kw.arg == "key" and _key_uses_identity(kw.value):
                    self._emit(
                        "D105",
                        node,
                        f"{name}(..., key=...) orders by id()/hash()",
                    )

    def _check_float_sum(self, node: ast.Call) -> None:
        if _call_name(node.func) != "sum" or not node.args:
            return
        arg = node.args[0]
        is_set, is_view = self._is_unordered(arg)
        if not (is_set or is_view) and isinstance(arg, ast.GeneratorExp):
            for generator in arg.generators:
                gen_set, gen_view = self._is_unordered(generator.iter)
                is_set, is_view = is_set or gen_set, is_view or gen_view
        if is_set or is_view:
            self._emit(
                "D106",
                node,
                "sum() over an unordered collection: float addition is "
                "order-sensitive, so merged metrics can differ across workers",
            )

    # -- P201 / P202: wire payload shape ----------------------------------------

    def _registered_payloads(self) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(self.tree):
            if (
                isinstance(node, ast.Call)
                and _call_name(node.func) == "register_payload"
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        names.add(arg.id)
        return names

    def _check_payload_class(self, node: ast.ClassDef, registered: set[str]) -> None:
        if not _is_payload_class(node):
            return
        if not _has_slots(node):
            self._emit(
                "P201",
                node,
                f"wire payload {node.name} has no __slots__ "
                "(declare @dataclass(slots=True))",
            )
        has_wire_size = any(
            isinstance(item, ast.FunctionDef) and item.name == "__wire_size__"
            for item in node.body
        )
        if not has_wire_size and node.name not in registered:
            self._emit(
                "P202",
                node,
                f"wire payload {node.name} is neither registered via "
                "register_payload(...) nor defines __wire_size__",
            )

    # -- P203: timer staleness guards --------------------------------------------

    def _check_timer(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        if method not in _SCHEDULE_METHODS:
            return
        if method == "reschedule":
            if len(node.args) < 3:
                return
            delay, callback = node.args[1], node.args[2]
        else:
            if len(node.args) < 2:
                return
            delay, callback = node.args[0], node.args[1]
        if method == "schedule" and _is_zero(delay):
            return  # zero-delay dispatch, not a timer
        target = self._resolve_callback(node, callback)
        if target is None:
            return  # lambda / non-local callable: out of single-module reach
        if _has_staleness_guard(target):
            return
        self._emit(
            "P203",
            node,
            f"timer callback {target.name}() has no staleness guard: a stale "
            "timer can fire into a superseded attempt/view",
        )

    def _resolve_callback(
        self, site: ast.Call, callback: ast.expr
    ) -> Optional[ast.FunctionDef]:
        if _is_self_attr(callback):
            classdef = self._enclosing(site, ast.ClassDef)
            if classdef is None:
                return None
            for item in classdef.body:  # type: ignore[attr-defined]
                if isinstance(item, ast.FunctionDef) and item.name == callback.attr:  # type: ignore[attr-defined]
                    return item
            return None
        if isinstance(callback, ast.Name):
            funcdef = self._enclosing(site, ast.FunctionDef, ast.AsyncFunctionDef)
            while funcdef is not None:
                for sub in ast.walk(funcdef):
                    if isinstance(sub, ast.FunctionDef) and sub.name == callback.id:
                        return sub
                funcdef = self._enclosing(funcdef, ast.FunctionDef, ast.AsyncFunctionDef)
        return None

    # -- P204: raw transport sends -----------------------------------------------

    def _check_raw_send(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in ("send", "multicast")
        ):
            return
        owner = func.value
        if isinstance(owner, ast.Attribute) and owner.attr in ("network", "transport"):
            self._emit(
                "P204",
                node,
                f"protocol layer calls {owner.attr}.{func.attr}() directly; "
                "sends must go through a router channel or broadcast primitive",
            )


def _has_key_kwarg(node: ast.Call) -> bool:
    return any(kw.arg == "key" for kw in node.keywords)


def _key_uses_identity(key: ast.expr) -> bool:
    if isinstance(key, ast.Name) and key.id in ("id", "hash"):
        return True
    if isinstance(key, ast.Lambda):
        for sub in ast.walk(key.body):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in ("id", "hash")
            ):
                return True
    return False


def _is_payload_class(node: ast.ClassDef) -> bool:
    """A wire payload declares ``kind`` with a string-constant default."""
    for item in node.body:
        if (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.target.id == "kind"
            and isinstance(item.value, ast.Constant)
            and isinstance(item.value.value, str)
        ):
            return True
        if isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "kind" for t in item.targets
        ):
            if isinstance(item.value, ast.Constant) and isinstance(
                item.value.value, str
            ):
                return True
    return False


def _has_slots(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call) and _call_name(decorator.func) == "dataclass":
            for kw in decorator.keywords:
                if (
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
    for item in node.body:
        if isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
        ):
            return True
        if (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.target.id == "__slots__"
        ):
            return True
    return False


def _has_staleness_guard(func: ast.FunctionDef) -> bool:
    """A timer callback is guarded if it can tell a stale firing from a live one.

    Accepted shapes (the ones the tree actually uses):

    - an ``If`` whose subtree returns/raises, within the first four
      statements (after the docstring): re-fetch state, bail if gone;
    - a token parameter (epoch/attempt/view/...) that the body compares,
      the PR-2 fix idiom for timers that must survive attempt restarts.
    """
    body = list(func.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    for stmt in body[:4]:
        if isinstance(stmt, ast.If):
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Return, ast.Raise)):
                    return True
    token_params = {
        arg.arg
        for arg in list(func.args.args) + list(func.args.kwonlyargs)
        if _TOKEN_PARAM.search(arg.arg)
    }
    if token_params:
        for sub in ast.walk(func):
            if isinstance(sub, ast.Compare):
                for name_node in ast.walk(sub):
                    if (
                        isinstance(name_node, ast.Name)
                        and name_node.id in token_params
                    ):
                        return True
    return False


def check_module(
    source: str,
    path: str,
    enabled: Iterable[str],
    protocol_layer: bool = False,
) -> list[Finding]:
    """Parse ``source`` and run every enabled rule; E001 on syntax errors."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        finding = Finding(
            RULES["E001"],
            path,
            exc.lineno or 1,
            (exc.offset or 1) - 1,
            f"syntax error: {exc.msg}",
            source_line=lines[(exc.lineno or 1) - 1] if lines else "",
        )
        return [finding]
    enabled_set = set(enabled)
    checker = ModuleChecker(tree, path, lines, enabled_set, protocol_layer)
    checker.run()
    if enabled_set & (set(S_DEFAULT) | set(H_DEFAULT)):
        # Deferred imports: the flow-aware modules import helpers from here.
        from repro.analysis.staticcheck.callgraph import build_callgraph
        from repro.analysis.staticcheck.handler_rules import run_handler_rules
        from repro.analysis.staticcheck.scaling_rules import run_scaling_rules

        graph = build_callgraph(tree, lines)
        run_scaling_rules(checker, graph)
        run_handler_rules(checker, graph)
    checker.findings.sort(key=lambda f: (f.line, f.col, f.rule.id))
    return checker.findings
