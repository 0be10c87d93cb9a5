"""Approximate wire-size estimation for simulated payloads.

The paper's cost analysis counts messages; real deployments also care
about *bytes* (a CBP write set carries values, an RBP vote carries one
bit).  This module estimates a serialized size for arbitrary payload
objects so the network can keep byte accounting and optionally model
transmission delay over a finite-bandwidth link.

The estimate is intentionally simple and deterministic: primitive sizes
plus per-object framing overhead, recursing through containers and the
fields of objects.  ``Network`` calls :func:`wire_size` once per fan-out
(one multicast sizes its payload once, however many destinations), and
every envelope layer in between -- ``Tagged`` -> ``Frame`` /
``BatchEnvelope`` -> ``BroadcastMessage`` -> ``CausalEnvelope`` /
``DeltaCausalEnvelope`` -> ``SequencedEnvelope`` -> protocol payload --
is sized by this module alone:

- one **dispatch table** (``_SIZERS``) maps an exact type to its sizer:
  the primitives, ``str``, ``bytes``, the containers, and every wire
  class, whose sizer :func:`register_payload` *derives* from its slots
  (see there for the contract and for the ``_size`` memo rule) -- wire
  classes write no size code of their own;
- a class the table has not seen resolves **once**, to the sizer of the
  builtin container it subclasses, else to its own ``__wire_size__``,
  else to the generic ``__dict__`` / ``__slots__`` walk.

The depth guard bounds every path, so a cyclic payload gets a finite size
instead of a ``RecursionError``.
"""

from __future__ import annotations

from typing import Any, Callable

#: Per-message envelope overhead (headers, addressing), in bytes.
HEADER_BYTES = 48
#: Per-object framing overhead inside a payload.
OBJECT_OVERHEAD = 8
#: Nesting depth past which the estimator stops descending (cycles,
#: pathological nesting) and charges one ``OBJECT_OVERHEAD``.
_MAX_DEPTH = 12

#: ``fn(payload, depth) -> int``; children are sized at ``depth + 1``.
Sizer = Callable[[Any, int], int]


def estimate_size(payload: Any, _depth: int = 0) -> int:
    """Deterministic approximate serialized size of ``payload`` in bytes."""
    if _depth > _MAX_DEPTH:
        return OBJECT_OVERHEAD
    cls = payload.__class__
    return (_SIZERS.get(cls) or _resolve(cls))(payload, _depth)


def wire_size(payload: Any) -> int:
    """Payload size plus the per-message header."""
    return HEADER_BYTES + estimate_size(payload)


def _size_str(payload: str, depth: int) -> int:
    if payload.isascii():
        return len(payload)
    return len(payload.encode("utf-8", errors="replace"))


def _size_items(payload: Any, depth: int) -> int:
    deeper = depth + 1
    total = OBJECT_OVERHEAD
    for item in payload:
        total += estimate_size(item, deeper)
    return total


def _size_mapping(payload: Any, depth: int) -> int:
    deeper = depth + 1
    total = OBJECT_OVERHEAD
    for key, value in payload.items():
        total += estimate_size(key, deeper) + estimate_size(value, deeper)
    return total


def _size_object(payload: Any, depth: int) -> int:
    """The generic walk: an object's attribute dict, else its slots."""
    inner = getattr(payload, "__dict__", None)
    if inner is not None:
        return _size_items(inner.values(), depth)
    deeper = depth + 1
    total = OBJECT_OVERHEAD
    for name in getattr(payload.__class__, "__slots__", ()):
        total += estimate_size(getattr(payload, name, None), deeper)
    return total


#: The one dispatch table: exact type -> sizer.  Seeded with the builtins;
#: :func:`register_payload` adds the wire classes, :func:`_resolve` whatever
#: else turns up inside a payload.
_SIZERS: dict[type, Sizer] = {
    bool: lambda payload, depth: 1,
    int: lambda payload, depth: 8,
    float: lambda payload, depth: 8,
    type(None): lambda payload, depth: 0,
    str: _size_str,
    bytes: lambda payload, depth: len(payload),
    dict: _size_mapping,
    list: _size_items,
    tuple: _size_items,
    set: _size_items,
    frozenset: _size_items,
}
_CONTAINERS = (str, bytes, dict, list, tuple, set, frozenset)


def _resolve(cls: type) -> Sizer:
    """First sight of a class outside the table: pick its sizer, once."""
    sizer = _container_sizer(cls) or _own_sizer(cls) or _size_object
    _SIZERS[cls] = sizer
    return sizer


def _container_sizer(cls: type) -> Sizer | None:
    """The sizer of the builtin container ``cls`` subclasses, if any."""
    for base in _CONTAINERS:
        if issubclass(cls, base):
            return _SIZERS[base]
    return None


def _own_sizer(cls: type) -> Sizer | None:
    """Adapter for a class that brings its own ``__wire_size__(self)``."""
    own = getattr(cls, "__wire_size__", None)
    if own is None:
        return None
    return lambda payload, depth: own(payload)


def _derived_sizer(cls: type) -> Sizer:
    """Sizer over ``cls``'s declared slots: the generic walk of the same
    object, unrolled once per class instead of looped once per message (as
    the hand-written ``__wire_size__`` methods it replaces were).  Every
    slot must be set, which a dataclass ``__init__`` guarantees.  Memoized
    into ``_size`` when the class declares that slot, which is then not
    wire content."""
    terms = "".join(
        f" + size(payload.{name}, deeper)" for name in cls.__slots__ if name != "_size"
    )
    scope = {"size": estimate_size}
    exec(
        "def sizer(payload, depth):\n"
        "    deeper = depth + 1\n"
        f"    return {OBJECT_OVERHEAD}{terms}\n",
        scope,
    )
    size = scope["sizer"]
    if "_size" not in cls.__slots__:
        return size

    def memoized(payload: Any, depth: int) -> int:
        if payload._size < 0:
            payload._size = size(payload, depth)
        return payload._size

    return memoized


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
    """Declare wire payload classes to the size model and build their sizers.

    Every class whose instances travel through :func:`wire_size` is declared
    here, at import time, by the module that defines it (detcheck rule P202
    enforces that statically).  Registration is the single hook of the size
    model:

    - **Shape check.**  The class must be slotted (or bring its own
      ``__wire_size__``); a forgotten ``slots=True`` is a ``TypeError`` at
      import instead of a silently different size estimate.
    - **Derived sizer.**  The class's sizer walks its ``__slots__`` in
      declaration order and sizes the runtime value of each, which is what
      the plain recursive traversal does -- so the two agree by
      construction (``tests/test_net_sizes.py`` compares them on every
      datagram of every transport/batching/relay mode) and no wire class
      carries size arithmetic of its own.  The exception is a class that
      defines ``__wire_size__(self)``: its method is used as is
      (``VectorClock`` turns an O(n) walk into arithmetic).  A class that
      subclasses a builtin container (a ``NamedTuple`` such as
      ``MessageId``) is sized as that container, as the plain traversal
      sizes it: its ``__slots__`` is empty, and a sizer derived from it
      would count no fields.
    - **Memo.**  A class that declares a ``_size`` slot (``-1`` = not yet
      sized) has its size computed once per instance and stored there;
      the slot is bookkeeping, never wire content.  Declaring the slot is
      the whole opt-in, and it is for envelopes whose *same instance* is
      sized repeatedly, which a census of the benchmark workloads found
      for two classes only: ``Tagged`` (under ARQ, one ``Tagged`` sits
      inside each per-link ``Frame`` of a fan-out: 14,796 hits in 17,262
      sizings on ``abp_lossy``) and ``Frame`` (every retransmission
      re-sends the same object: 2,588 in 19,850).  On lossless passthrough
      runs no memo is ever hit -- ``Network`` sizes once per fan-out -- so
      no other class declares one.
    """
    for cls in classes:
        own = _container_sizer(cls) or _own_sizer(cls)
        if own is None and "__slots__" not in cls.__dict__:
            raise TypeError(
                f"wire payload {cls.__name__} must declare __slots__ "
                "(e.g. @dataclass(slots=True)) or define __wire_size__"
            )
        _SIZERS[cls] = own or _derived_sizer(cls)
        _REGISTERED_PAYLOADS.add(cls)


def registered_payloads() -> frozenset[type]:
    """The payload classes registered so far (for tests and audits)."""
    return frozenset(_REGISTERED_PAYLOADS)
