"""Wire payloads of the P2P baseline: point-to-point read-one/write-all
with centralized two-phase commit.

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
class P2pWrite:
    tx: str
    key: str
    value: Any
    priority: tuple
    kind: str = "p2p.write"


@dataclass(slots=True)
class P2pWriteAck:
    tx: str
    key: str
    site: int
    ok: bool
    kind: str = "p2p.write_ack"


@dataclass(slots=True)
class P2pPrepare:
    tx: str
    kind: str = "p2p.prepare"


@dataclass(slots=True)
class P2pVote:
    tx: str
    site: int
    yes: bool
    kind: str = "p2p.vote"


@dataclass(slots=True)
class P2pDecision:
    tx: str
    commit: bool
    kind: str = "p2p.decision"


# Import-time shape check: every payload above is slotted, so the size
# model never falls back to attribute-dict traversal (detcheck P201/P202).
register_payload(
    P2pWrite,
    P2pWriteAck,
    P2pPrepare,
    P2pVote,
    P2pDecision,
)
