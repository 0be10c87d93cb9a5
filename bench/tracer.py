"""Outside-in span tracer for the traced repeat.

Nothing under ``src/`` knows it is being traced: :meth:`Tracer.install`
rebinds the *public* entry points of each layer (methods on the classes in
``TARGETS``, the ``wire_size``/``estimate_size`` names at every importing
module's binding) to wrappers that open a span, and wraps every callback
that crosses a layer boundary through a public call (engine callbacks,
``attach``/``set_receiver``/``register``/``set_deliver``/``add_listener``
registrations, lock ``on_grant`` continuations).  Work a layer does through
a private call is charged to the span that called it -- spans inside the
program are ROADMAP item 5.

A span's **self time** is its duration minus the time covered by its child
spans; it is charged to the *sublayer* that owns the code: the defining
module for a wrapped method, the owning object's class for a callback.
Self time and call counts aggregate online for the whole run; full span
records (layer, name, start, end, parent, engine event) are kept for the
first ``keep_events`` engine events and written as JSON lines afterwards.

Wrapper overhead is charged where it lands (mostly to the caller of a
wrapped method), so a sublayer that makes many tiny calls reads high; the
child reports ``trace.overhead_x`` so the size of that distortion is known.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from time import perf_counter_ns
from typing import Any, Callable, Optional

#: Sublayers the split is reported for (packages under ``src/repro/``,
#: divided where one package holds several mechanisms).
SUBLAYERS = (
    "sim.engine",
    "net.network",
    "net.sizes",
    "net.transport",
    "net.router",
    "broadcast.reliable",
    "broadcast.causal",
    "broadcast.total",
    "broadcast.membership",
    "core.protocol",
    "core.cluster",
    "baselines.p2p",
    "db.locks",
    "db.store",
    "db.serialization",
    "analysis",
    "workload",
)

#: Module-name prefix -> sublayer; the longest matching prefix wins.  Code
#: outside ``repro`` (the bench's own clients and glue) counts as workload.
MODULE_SUBLAYERS = {
    "repro.sim": "sim.engine",
    "repro.sim.oracles": "analysis",
    "repro.sim.faults": "workload",  # the fault schedule is workload input
    "repro.sim.churn": "workload",
    "repro.net": "net.network",
    "repro.net.sizes": "net.sizes",
    "repro.net.transport": "net.transport",
    "repro.net.router": "net.router",
    "repro.broadcast": "broadcast.reliable",
    "repro.broadcast.causal": "broadcast.causal",
    "repro.broadcast.vector_clock": "broadcast.causal",
    "repro.broadcast.total": "broadcast.total",
    "repro.broadcast.stability": "broadcast.total",
    "repro.broadcast.failure_detector": "broadcast.membership",
    "repro.broadcast.membership": "broadcast.membership",
    "repro.core": "core.protocol",
    "repro.core.cluster": "core.cluster",
    "repro.core.recovery": "core.cluster",
    "repro.baselines": "baselines.p2p",
    "repro.db": "db.store",
    "repro.db.locks": "db.locks",
    "repro.db.serialization": "db.serialization",
    "repro.analysis": "analysis",
    "repro.workload": "workload",
}

#: ``(module, class, methods)``: the public entry points to wrap.  ``None``
#: means every public plain method the class itself defines, found by
#: introspection so a renamed or added method needs no edit here.  The
#: engine is listed by name: its remaining public methods are O(1) getters.
TARGETS = (
    ("repro.sim.engine", "SimulationEngine", ("schedule", "schedule_at", "reschedule", "run")),
    ("repro.sim.engine", "EventHandle", ("cancel",)),
    ("repro.net.network", "Network", None),
    ("repro.net.transport", "ReliableTransport", None),
    ("repro.net.router", "ChannelRouter", None),
    ("repro.broadcast.reliable", "ReliableBroadcast", None),
    ("repro.broadcast.causal", "CausalBroadcast", None),
    ("repro.broadcast.total", "TotalOrderBroadcast", None),
    ("repro.broadcast.failure_detector", "FailureDetector", None),
    ("repro.broadcast.membership", "MembershipService", None),
    ("repro.core.replica", "Replica", None),
    ("repro.core.reliable_protocol", "ReliableBroadcastReplica", None),
    ("repro.core.causal_protocol", "CausalBroadcastReplica", None),
    ("repro.core.atomic_protocol", "AtomicBroadcastReplica", None),
    ("repro.baselines.p2p_2pc", "PointToPointReplica", None),
    ("repro.core.cluster", "Cluster", None),
    ("repro.core.recovery", "RecoveryAgent", None),
    ("repro.db.locks", "LockManager", None),
    ("repro.db.storage", "VersionedStore", None),
    ("repro.db.wal", "WriteAheadLog", None),
    ("repro.db.serialization", "HistoryRecorder", None),
    ("repro.analysis.metrics", "MetricsCollector", None),
    ("repro.sim.oracles", "SoakOracles", None),
    ("repro.workload.generator", "WorkloadGenerator", None),
    ("repro.workload.runner", "ClosedLoopRunner", None),
)

#: O(1) predicates the engine evaluates after every event: a span around
#: each would cost twenty times the call and charge it to the wrong place.
SKIPPED = frozenset({"Cluster.all_final", "Cluster.specs_submitted"})

#: Engine methods taking ``(..., fn, *args)``: the index of ``fn`` among the
#: positional arguments after ``self``.
ENGINE_CALLBACK_INDEX = {"schedule": 1, "schedule_at": 1, "reschedule": 2}

#: Parameter names that carry a callback across a layer boundary.
CALLBACK_PARAMS = frozenset({"fn", "handler", "listener", "on_grant"})

#: Functions sized at each importing module's own binding.
SIZE_FUNCTIONS = ("wire_size", "estimate_size")


def sublayer_of_module(module: Optional[str]) -> str:
    """The sublayer owning ``module`` (longest-prefix match)."""
    name = module or ""
    while name:
        sublayer = MODULE_SUBLAYERS.get(name)
        if sublayer is not None:
            return sublayer
        name = name.rpartition(".")[0]
    return "workload"


class Tracer:
    """Span stack, online self-time aggregation and bounded span records."""

    def __init__(self, keep_events: int = 50_000):
        self.keep_events = keep_events
        #: Span kinds: ``(sublayer, name)`` by id, and the reverse index.
        self.kinds: list[tuple[str, str]] = []
        self._kind_ids: dict[tuple[str, str], int] = {}
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        #: Open spans, innermost last: ``[start_ns, child_ns]``.
        self._stack: list[list[int]] = []
        #: Closed spans in close order: ``(kind, depth, event, start, end)``.
        self.records: list[tuple[int, int, int, int, int]] = []
        self._recording = True
        #: Engine events fired so far; spans caused by one event share it.
        self.event = 0
        self._callback_kinds: dict[Any, int] = {}
        #: The one bound trampoline, so the engine wrappers can recognise it.
        self._trampoline = self._fire
        self.hooks_missing: list[str] = []
        self._began_ns = 0

    # -- spans --------------------------------------------------------------

    def kind(self, sublayer: str, name: str) -> int:
        key = (sublayer, name)
        kind = self._kind_ids.get(key)
        if kind is None:
            kind = self._kind_ids[key] = len(self.kinds)
            self.kinds.append(key)
            self.self_ns.append(0)
            self.calls.append(0)
        return kind

    def _call(self, kind: int, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside one span of ``kind``."""
        stack = self._stack
        frame = [perf_counter_ns(), 0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            start = frame[0]
            duration = end - start
            self.self_ns[kind] += duration - frame[1]
            self.calls[kind] += 1
            if stack:
                stack[-1][1] += duration
            if self._recording:
                self.records.append((kind, len(stack), self.event, start, end))

    def _span(self, fn: Callable[..., Any], kind: int) -> Callable[..., Any]:
        call = self._call

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(kind, fn, args, kwargs)

        traced.__traced__ = True  # type: ignore[attr-defined]
        return traced

    def _callback_kind(self, fn: Callable[..., Any]) -> int:
        """Kind of a callback: owned by the class of the object it is bound
        to (a ``Process._guarded`` timer belongs to the replica or detector
        that armed it), else by the module that defines it."""
        owner = getattr(fn, "__self__", None)
        func = getattr(fn, "__func__", fn)
        key = (type(owner), func) if owner is not None else func
        kind = self._callback_kinds.get(key)
        if kind is None:
            func = getattr(func, "func", func)  # functools.partial
            name = getattr(func, "__qualname__", type(func).__name__)
            if owner is not None:
                module = type(owner).__module__
                name = f"{type(owner).__name__}.{getattr(func, '__name__', name)}"
            else:
                module = getattr(func, "__module__", None)
            kind = self._callback_kinds[key] = self.kind(sublayer_of_module(module), name)
        return kind

    def callback(self, fn: Optional[Callable[..., Any]]) -> Optional[Callable[..., Any]]:
        """``fn`` as a traced callback charged to the sublayer owning it."""
        if fn is None or getattr(fn, "__traced__", False):
            return fn
        return self._span(fn, self._callback_kind(fn))

    def _fire(self, fn: Callable[..., Any], *args: Any) -> None:
        """What the engine actually fires: one event, one callback span."""
        self.event += 1
        if self.event > self.keep_events:
            self._recording = False
        self._call(self._callback_kind(fn), fn, args, {})

    # -- wrappers for methods that take callbacks ---------------------------

    def _engine_method(self, fn: Callable[..., Any], kind: int, index: int) -> Callable[..., Any]:
        """An engine scheduling method: span it, and route the scheduled
        callback through :meth:`_fire` by prepending the trampoline to the
        callback's own arguments (no closure per event)."""
        call = self._call
        trampoline = self._trampoline

        def scheduling(engine: Any, *args: Any, **kwargs: Any) -> Any:
            # ``schedule`` calls ``schedule_at``: the inner call sees the
            # trampoline already in place and must not add a second one.
            if len(args) > index and args[index] is not trampoline:
                args = args[:index] + (trampoline,) + args[index:]
            return call(kind, fn, (engine,) + args, kwargs)

        scheduling.__traced__ = True  # type: ignore[attr-defined]
        return scheduling

    def _registering_method(
        self, fn: Callable[..., Any], kind: int, positions: dict[str, int]
    ) -> Callable[..., Any]:
        """A method that is handed callbacks: span it and trace them."""
        call = self._call
        callback = self.callback

        def registering(*args: Any, **kwargs: Any) -> Any:
            for name, position in positions.items():
                if position < len(args):
                    args = args[:position] + (callback(args[position]),) + args[position + 1:]
                elif name in kwargs:
                    kwargs[name] = callback(kwargs[name])
            return call(kind, fn, args, kwargs)

        registering.__traced__ = True  # type: ignore[attr-defined]
        return registering

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every target; imports the target modules as a side effect.
        A target a later refactor removed is recorded, not fatal: the split
        then under-attributes and ``hooks_missing`` says where."""
        for module_name, class_name, methods in TARGETS:
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                self.hooks_missing.append(f"{module_name}.{class_name}")
                continue
            names = methods if methods is not None else [
                name
                for name, value in vars(cls).items()
                if inspect.isfunction(value)
                and not name.startswith("_")
                and f"{class_name}.{name}" not in SKIPPED
            ]
            for name in names:
                fn = vars(cls).get(name)
                if not inspect.isfunction(fn):
                    self.hooks_missing.append(f"{module_name}.{class_name}.{name}")
                    continue
                setattr(cls, name, self._wrap_method(cls, name, fn))
        self._wrap_size_functions()

    def _wrap_method(self, cls: type, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        kind = self.kind(sublayer_of_module(fn.__module__), f"{cls.__name__}.{name}")
        if cls.__name__ == "SimulationEngine" and name in ENGINE_CALLBACK_INDEX:
            return self._engine_method(fn, kind, ENGINE_CALLBACK_INDEX[name])
        parameters = list(inspect.signature(fn).parameters)
        positions = {p: i for i, p in enumerate(parameters) if p in CALLBACK_PARAMS}
        if positions:
            return self._registering_method(fn, kind, positions)
        return self._span(fn, kind)

    def _wrap_size_functions(self) -> None:
        """Span ``wire_size``/``estimate_size`` where other modules bound
        them by ``from repro.net.sizes import ...``.  The defining module's
        own names stay unwrapped so the estimator's recursion is one span,
        not one per nested field."""
        try:
            sizes = importlib.import_module("repro.net.sizes")
        except ImportError:
            self.hooks_missing.append("repro.net.sizes")
            return
        for name in SIZE_FUNCTIONS:
            original = getattr(sizes, name, None)
            if original is None:
                self.hooks_missing.append(f"repro.net.sizes.{name}")
                continue
            traced = self._span(original, self.kind("net.sizes", name))
            for module_name, module in list(sys.modules.items()):
                if (
                    module is not sizes
                    and module_name.startswith("repro.")
                    and getattr(module, name, None) is original
                ):
                    setattr(module, name, traced)
    
    # -- measurement window -------------------------------------------------

    def begin(self) -> None:
        """Start the measured window: forget everything set-up recorded."""
        self.self_ns[:] = [0] * len(self.self_ns)
        self.calls[:] = [0] * len(self.calls)
        self.records.clear()
        self._recording = True
        self.event = 0
        self._began_ns = perf_counter_ns()

    def end(self) -> dict[str, Any]:
        """Close the window and return per-sublayer and per-entry-point self
        time over it (taken now: the caller's own post-processing goes
        through wrapped methods too and must not leak into the split)."""
        window_ns = perf_counter_ns() - self._began_ns
        self._recording = False
        sublayers = {name: {"self_s": 0.0, "self_frac": 0.0, "calls": 0} for name in SUBLAYERS}
        entry_points = []
        for (sublayer, name), self_ns, calls in zip(self.kinds, self.self_ns, self.calls):
            if not calls:
                continue
            row = sublayers[sublayer]
            row["self_s"] += self_ns / 1e9
            row["calls"] += calls
            entry_points.append(
                {"sublayer": sublayer, "name": name, "self_s": self_ns / 1e9, "calls": calls}
            )
        for row in sublayers.values():
            row["self_frac"] = row["self_s"] * 1e9 / window_ns
        entry_points.sort(key=lambda row: row["self_s"], reverse=True)
        return {
            "unattributed_frac": (window_ns - sum(self.self_ns)) / window_ns,
            "sublayers": sublayers,
            "entry_points": entry_points,
            "hooks_missing": self.hooks_missing,
        }

    def write_spans(self, path: str) -> None:
        """Write the kept span records as gzipped JSON lines.

        Records are kept in close order with their depth, which fixes the
        tree: a span's children are the not-yet-claimed spans one level
        deeper that closed before it.  Ids are assigned here, off the hot
        path; parent 0 means the enclosing span (``run`` itself, say) was
        still open when recording stopped, or there was none."""
        records = self.records
        parents = [0] * len(records)
        unclaimed: dict[int, list[int]] = {}
        for index, (_, depth, _, _, _) in enumerate(records):
            for child in unclaimed.pop(depth + 1, ()):
                parents[child] = index + 1
            unclaimed.setdefault(depth, []).append(index)
        labels = [
            f'"layer": {json.dumps(sublayer)}, "name": {json.dumps(name)}'
            for sublayer, name in self.kinds
        ]
        began = self._began_ns
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for index, (kind, _, event, start, end) in enumerate(records):
                out.write(
                    f'{{"id": {index + 1}, "parent": {parents[index]}, "event": {event}, '
                    f'{labels[kind]}, "start_ns": {start - began}, "end_ns": {end - began}}}\n'
                )
