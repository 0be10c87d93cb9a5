"""Approximate wire-size estimation for simulated payloads.

The paper's cost analysis counts messages; real deployments also care
about *bytes* (a CBP write set carries values, an RBP vote carries one
bit).  This module estimates a serialized size for arbitrary payload
objects so the network can keep byte accounting and optionally model
transmission delay over a finite-bandwidth link.

The estimate is intentionally simple and deterministic: primitive sizes
plus per-object framing overhead, recursing through containers and
dataclass-style ``__dict__``/`__slots__`` objects.

``estimate_size`` runs once per datagram per destination, which makes it
one of the hottest functions in the simulator, so the traversal dispatches
on exact type first and memoizes what is safe to memoize: UTF-8 lengths of
(heavily repeated) strings and the ``__slots__`` tuple of each class.  The
returned sizes are byte-for-byte identical to a naive traversal.
"""

from __future__ import annotations

from typing import Any

#: Per-message envelope overhead (headers, addressing), in bytes.
HEADER_BYTES = 48
#: Per-object framing overhead inside a payload.
OBJECT_OVERHEAD = 8
#: One ``(site, value)`` entry of a delta-encoded vector clock: a pair
#: object framing two 8-byte ints.  Matches the generic traversal of a
#: 2-int tuple, so delta envelopes stay byte-identical to naive sizing;
#: a delta with ``k`` changed entries costs ``OBJECT_OVERHEAD + k *
#: DELTA_PAIR_BYTES`` against the full clock's ``2 * OBJECT_OVERHEAD +
#: 8 * num_sites``.
DELTA_PAIR_BYTES = OBJECT_OVERHEAD + 16

_PRIMITIVE_SIZES = {
    bool: 1,
    int: 8,
    float: 8,
    type(None): 0,
}

#: Encoded lengths of previously seen strings (keys, kinds, txn names all
#: repeat across thousands of messages).  Bounded so adversarial workloads
#: with unbounded distinct strings cannot leak memory.
_STR_SIZES: dict[str, int] = {}
_STR_SIZES_LIMIT = 1 << 16

#: Per-class traversal plan: ``cls -> (cls.__wire_size__, cls.__slots__)``
#: (either may be None), resolved once per class.  A class may define
#: ``__wire_size__(self) -> int`` to shortcut the walk over its fields; the
#: contract is that it returns exactly what the generic traversal would —
#: it exists for hot fixed-shape headers (vector clocks, message ids), not
#: to change the cost model.
_CLASS_PLAN: dict[type, tuple[Any, Any]] = {}


def estimate_size(payload: Any, _depth: int = 0) -> int:
    """Deterministic approximate serialized size of ``payload`` in bytes."""
    if _depth > 12:  # cycles / pathological nesting: stop estimating
        return OBJECT_OVERHEAD
    cls = payload.__class__
    size = _PRIMITIVE_SIZES.get(cls)
    if size is not None:
        return size
    if cls is str:
        size = _STR_SIZES.get(payload)
        if size is None:
            size = len(payload.encode("utf-8", errors="replace"))
            if len(_STR_SIZES) < _STR_SIZES_LIMIT:
                _STR_SIZES[payload] = size
        return size
    deeper = _depth + 1
    if isinstance(payload, str):  # str subclass: size it, skip the cache
        return len(payload.encode("utf-8", errors="replace"))
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        total = OBJECT_OVERHEAD
        for key, value in payload.items():
            total += estimate_size(key, deeper) + estimate_size(value, deeper)
        return total
    if isinstance(payload, (list, tuple, set, frozenset)):
        total = OBJECT_OVERHEAD
        for item in payload:
            total += estimate_size(item, deeper)
        return total
    try:
        sizer, slots = _CLASS_PLAN[cls]
    except KeyError:
        sizer = getattr(cls, "__wire_size__", None)
        slots = getattr(cls, "__slots__", None)
        _CLASS_PLAN[cls] = (sizer, slots)
    if sizer is not None:
        return sizer(payload)
    inner = getattr(payload, "__dict__", None)
    if inner is not None:
        total = OBJECT_OVERHEAD
        for value in inner.values():
            total += estimate_size(value, deeper)
        return total
    if slots is not None:
        total = OBJECT_OVERHEAD
        for name in slots:
            total += estimate_size(getattr(payload, name, None), deeper)
        return total
    return OBJECT_OVERHEAD


def wire_size(payload: Any) -> int:
    """Payload size plus the per-message header."""
    return HEADER_BYTES + estimate_size(payload)


def kind_of(payload: Any) -> str:
    """Accounting label of ``payload``: its ``kind`` attribute when that is
    a string, else its type name.  The one rule every layer labels by."""
    kind = getattr(payload, "kind", None)
    if isinstance(kind, str):
        return kind
    return type(payload).__name__


#: Payload classes vetted for the size model (see :func:`register_payload`).
_REGISTERED_PAYLOADS: set[type] = set()


def register_payload(*classes: type) -> None:
    """Declare wire payload classes to the size model.

    Every class whose instances travel through :func:`wire_size` must either
    define ``__wire_size__`` or be slotted, so the estimator's traversal has
    a fixed shape and never falls back to attribute-dict walking.  Payload
    modules call this at import time for each payload they define; the check
    here turns a forgotten ``slots=True`` into an import error instead of a
    silently different (and slower) size estimate.  detcheck rule P202
    enforces statically that every payload class reaches a call like this.
    """
    for cls in classes:
        if not hasattr(cls, "__wire_size__") and "__slots__" not in cls.__dict__:
            raise TypeError(
                f"wire payload {cls.__name__} must declare __slots__ "
                "(e.g. @dataclass(slots=True)) or define __wire_size__"
            )
        _REGISTERED_PAYLOADS.add(cls)


def registered_payloads() -> frozenset[type]:
    """The payload classes registered so far (for tests and audits)."""
    return frozenset(_REGISTERED_PAYLOADS)
