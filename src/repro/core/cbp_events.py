"""Wire payloads of CBP: causal broadcast with implicit acknowledgments
(paper section 4).

Every payload carries a ``kind`` string used by the network's message
accounting (experiment E1 separates protocol phases by these labels).
Naming convention: ``<protocol>.<message>``.  Each protocol's wire classes
sit in their own module, so a run imports only the ones it sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.sizes import register_payload


@dataclass(slots=True)
class CbpWriteSet:
    """A transaction's write operations, causally broadcast (paper S4).

    In ``per_op`` dissemination mode the set carries a single write and a
    transaction broadcasts one message per operation, as the paper's text
    describes; batched mode ships all writes in one message.
    """

    tx: str
    home: int
    writes: tuple[tuple[str, Any], ...]
    priority: tuple
    final: bool  # True on the last (or only) write message of the tx
    kind: str = "cbp.write"


@dataclass(slots=True)
class CbpCommitRequest:
    """Causally broadcast commit request; its vector clock entry for the
    home site is the reference point of the implicit-acknowledgment test."""

    tx: str
    home: int
    kind: str = "cbp.commit_request"


@dataclass(slots=True)
class CbpNack:
    """Explicit negative acknowledgment, causally broadcast.

    Delivery of a NACK aborts the victim everywhere; causal order
    guarantees every site sees the NACK from site ``by`` before any later
    message of ``by`` that could have been mistaken for an implicit yes.
    """

    tx: str
    by: int
    reason: str
    kind: str = "cbp.nack"


@dataclass(slots=True)
class CbpNull:
    """Null message (heartbeat) bounding the implicit-acknowledgment wait."""

    site: int
    kind: str = "cbp.null"


# Import-time shape check: every payload above is slotted, so the size
# model never falls back to attribute-dict traversal (detcheck P201/P202).
register_payload(
    CbpWriteSet,
    CbpCommitRequest,
    CbpNack,
    CbpNull,
)
