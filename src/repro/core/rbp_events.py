"""Wire payloads of RBP: reliable broadcast, explicit acknowledgments and
decentralized two-phase commit (paper section 3).

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
)
