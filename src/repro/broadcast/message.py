"""Broadcast message envelope and identity.

Every broadcast primitive wraps application payloads in a
:class:`BroadcastMessage`.  Identity is ``(sender, sender_seq)``: globally
unique because each site numbers its own broadcasts.

These headers are allocated once per broadcast and touched on every
delivery.  :class:`MessageId` is a ``NamedTuple``, so hashing, equality and
ordering are the tuple's own, in C; ``hash(id) == hash((sender, seq))``, as
it was for the frozen dataclass it replaces, so no set or dict order moves.
:class:`BroadcastMessage` is a ``__slots__`` dataclass whose ``kind`` label
is interned: the accounting layer compares kinds millions of times per run,
and interning makes those comparisons pointer checks while deduplicating the
strings across every message of a run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.net.sizes import kind_of, register_payload


class MessageId(NamedTuple):
    """Globally unique broadcast message identity."""

    sender: int
    seq: int


@dataclass(slots=True)
class BroadcastMessage:
    """A payload travelling through a broadcast primitive.

    ``kind`` labels the payload for message accounting; it defaults to the
    payload's own ``kind`` attribute when present.
    """

    id: MessageId
    payload: Any
    kind: str = ""

    def __post_init__(self) -> None:
        self.kind = sys.intern(self.kind or kind_of(self.payload))

    @property
    def sender(self) -> int:
        return self.id.sender


# Import-time shape check and sizer derivation (detcheck P201/P202).
register_payload(MessageId, BroadcastMessage)
