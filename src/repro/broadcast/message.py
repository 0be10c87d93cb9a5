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
from dataclasses import dataclass
from typing import Any

from repro.net.sizes import kind_of, register_payload


@dataclass(frozen=True, order=True, slots=True)
class MessageId:
    """Globally unique broadcast message identity."""

    sender: int
    seq: int

    def __str__(self) -> str:
        return f"m{self.sender}.{self.seq}"


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

    @property
    def seq(self) -> int:
        return self.id.seq

    def __str__(self) -> str:
        return f"{self.id}[{self.kind}]"


# Import-time shape check and sizer derivation (detcheck P201/P202).
register_payload(MessageId, BroadcastMessage)
