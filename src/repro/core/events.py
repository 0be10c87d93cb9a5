"""Wire payloads of the replication protocols.

Every payload carries a ``kind`` string used by the network's message
accounting (experiment E1 separates protocol phases by these labels).
Naming convention: ``<protocol>.<message>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.net.sizes import register_payload

# -- RBP: reliable broadcast + explicit acks + decentralized 2PC --------------


@dataclass(slots=True)
class RbpWrite:
    """One write operation, reliably broadcast to all sites (paper S3)."""

    tx: str
    home: int
    key: str
    value: Any
    priority: tuple
    kind: str = "rbp.write"


@dataclass(slots=True)
class RbpWriteAck:
    """Point-to-point (positive or negative) acknowledgment of one write."""

    tx: str
    key: str
    site: int
    ok: bool
    kind: str = "rbp.write_ack"


@dataclass(slots=True)
class RbpCommitRequest:
    """Decentralized 2PC round 1: the initiator's commit request, with the
    sites that vote as a member bitmask (bit *s* for site *s*)."""

    tx: str
    home: int
    electorate: int
    kind: str = "rbp.commit_request"


@dataclass(slots=True)
class RbpVote:
    """Decentralized 2PC round 2: every site broadcasts its vote [Ske82]."""

    tx: str
    site: int
    yes: bool
    kind: str = "rbp.vote"


@dataclass(slots=True)
class RbpVoteBatch:
    """Group commit: every vote this site cast at one simulation instant,
    piggybacked in a single reliable broadcast.  Receivers tally each
    constituent exactly as if it had arrived alone."""

    votes: tuple[RbpVote, ...]
    kind: str = "rbp.vote_batch"


@dataclass(slots=True)
class RbpWriteAckBatch:
    """Group commit: every write acknowledgment this site owes one home
    site at one simulation instant, in a single point-to-point frame."""

    acks: tuple[RbpWriteAck, ...]
    kind: str = "rbp.ack_batch"


@dataclass(slots=True)
class RbpAbort:
    """Initiator-broadcast abort (after a negative ack or vote)."""

    tx: str
    kind: str = "rbp.abort"


@dataclass(slots=True)
class RbpDecisionQuery:
    """Termination protocol: an in-doubt cohort (voted yes, home departed
    from the view) asks the surviving members for the transaction's fate."""

    tx: str
    site: int
    attempt: int
    kind: str = "rbp.decision_query"


@dataclass(slots=True)
class RbpDecisionAnswer:
    """Point-to-point answer to a decision query.

    ``outcome`` is one of:

    - ``"commit"`` / ``"abort"``: authoritative, from the decision log;
    - ``"pending"``: the answerer can still decide (live 2PC state) and
      promises to push the outcome to the querier when it does;
    - ``"presumed"``: the answerer presumed abort (never authoritative);
    - ``"unknown"``: the answerer has no state for the transaction.

    ``voted_yes`` is the safety bit of the termination protocol: True when
    the answerer voted YES for the transaction (or may have — a durable
    prepare record survived its crash), so the answerer could be part of a
    commit tally somewhere.  A ``presumed``/``unknown`` answer with
    ``voted_yes=False`` is a promise never to vote YES; only enough such
    promises to block every possible commit quorum justify presumed abort.
    """

    tx: str
    site: int
    outcome: str
    voted_yes: bool = False
    kind: str = "rbp.decision_answer"


# -- CBP: causal broadcast with implicit acknowledgments ----------------------


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


# -- ABP: atomic broadcast, acknowledgment-free certification -----------------


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


# -- Baseline: point-to-point ROWA + centralized 2PC --------------------------


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


# Recovery / state-transfer payloads live in repro.core.recovery, next to
# the protocol that uses them.


def priority_of(payload: Any) -> Optional[tuple]:
    """The embedded priority of a payload, when it has one."""
    return getattr(payload, "priority", None)


# Import-time shape check: every payload above is slotted, so the size
# model never falls back to attribute-dict traversal (detcheck P201/P202).
register_payload(
    RbpWrite,
    RbpWriteAck,
    RbpCommitRequest,
    RbpVote,
    RbpVoteBatch,
    RbpWriteAckBatch,
    RbpAbort,
    RbpDecisionQuery,
    RbpDecisionAnswer,
    CbpWriteSet,
    CbpCommitRequest,
    CbpNack,
    CbpNull,
    AbpCommitRequest,
    AbpWriteSet,
    P2pWrite,
    P2pWriteAck,
    P2pPrepare,
    P2pVote,
    P2pDecision,
)
