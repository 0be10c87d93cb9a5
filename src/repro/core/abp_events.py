"""Wire payloads of ABP: atomic broadcast and acknowledgment-free
certification (paper section 5).

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
class AbpCommitRequest:
    """Atomically broadcast commit request (paper S5).

    Variant A bundles the write values; variant B pre-ships them by causal
    broadcast and the commit request carries only the write-key summary.
    Read versions ride along for the deterministic certification test.
    """

    tx: str
    home: int
    reads: tuple[tuple[str, int], ...]
    writes: tuple[tuple[str, Any], ...]  # values in variant A; empty in B
    write_keys: tuple[str, ...]
    kind: str = "abp.commit_request"


@dataclass(slots=True)
class AbpWriteSet:
    """Variant B: write values shipped ahead via causal broadcast."""

    tx: str
    home: int
    writes: tuple[tuple[str, Any], ...]
    kind: str = "abp.write"


# Import-time shape check: every payload above is slotted, so the size
# model never falls back to attribute-dict traversal (detcheck P201/P202).
register_payload(
    AbpCommitRequest,
    AbpWriteSet,
)
