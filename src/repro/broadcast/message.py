"""Broadcast message envelope and identity.

Every broadcast primitive wraps application payloads in a
:class:`BroadcastMessage`.  Identity is ``(sender, sender_seq)``: globally
unique because each site numbers its own broadcasts.

These headers are allocated once per broadcast and touched on every
delivery, so both classes are ``__slots__`` dataclasses and the ``kind``
label is interned: the accounting layer compares kinds millions of times
per run, and interning makes those comparisons pointer checks while
deduplicating the strings across every message of a run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

from repro.net.sizes import OBJECT_OVERHEAD, estimate_size, kind_of


@dataclass(frozen=True, order=True, slots=True)
class MessageId:
    """Globally unique broadcast message identity."""

    sender: int
    seq: int

    def __str__(self) -> str:
        return f"m{self.sender}.{self.seq}"

    def __wire_size__(self) -> int:
        # Fixed shape (two ints behind __slots__): shortcut for the size
        # estimator, byte-identical to its generic traversal.
        return OBJECT_OVERHEAD + 16


@dataclass(slots=True)
class BroadcastMessage:
    """A payload travelling through a broadcast primitive.

    ``kind`` labels the payload for message accounting; it defaults to the
    payload's own ``kind`` attribute when present.
    """

    id: MessageId
    payload: Any
    kind: str = field(default="")
    #: Memoized wire size.  An envelope is sent once per group member (and
    #: again by every relay), and its payload may carry an O(n) vector
    #: clock — re-traversing it per destination made a single broadcast
    #: cost O(n^2) in size estimation alone.  Payloads are immutable once
    #: broadcast (the same object is delivered at every site; mutation
    #: would leak state across sites), so the first estimate is final.
    _size: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.kind = sys.intern(self.kind or kind_of(self.payload))

    @property
    def sender(self) -> int:
        return self.id.sender

    @property
    def seq(self) -> int:
        return self.id.seq

    def __wire_size__(self) -> int:
        # Envelope fast path: the id is fixed-shape and the kind string is
        # interned (so its UTF-8 length memoizes on first sight).  Byte-
        # identical to the generic __slots__ traversal over (id, payload,
        # kind) — the shortcut skips the per-field getattr dispatch only.
        if self._size < 0:
            self._size = (
                OBJECT_OVERHEAD
                + self.id.__wire_size__()
                + estimate_size(self.payload)
                + estimate_size(self.kind)
            )
        return self._size

    def __str__(self) -> str:
        return f"{self.id}[{self.kind}]"
