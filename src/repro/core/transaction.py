"""Transaction model.

Matches the paper's assumptions: a transaction is a sequence of read
operations followed by write operations ("a transaction performs all its
read operations before initiating any write operations"), executed
atomically, with the read and write sets known when the transaction is
submitted at its initiating (home) site.

A :class:`TransactionSpec` is the client's request; each execution attempt
is a :class:`Transaction` (aborted update transactions are resubmitted by
the client driver as a new attempt of the same spec).  Priorities used for
deterministic victim selection order attempts by the *original* submission
time, so an often-aborted transaction eventually becomes the oldest and
wins — avoiding livelock.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class TxPhase(enum.Enum):
    """Lifecycle states of one transaction attempt."""

    PENDING = "pending"  # submitted, waiting for read locks
    READING = "reading"  # read locks granted, reads executing
    EXECUTING = "executing"  # writes being disseminated
    COMMITTING = "committing"  # commitment protocol in progress
    COMMITTED = "committed"
    ABORTED = "aborted"


TERMINAL_PHASES = (TxPhase.COMMITTED, TxPhase.ABORTED)


class AbortReason(enum.Enum):
    """Taxonomy of aborts, reported per protocol in experiment E4."""

    WRITE_CONFLICT = "write_conflict"  # RBP: negative ack on a broadcast write
    CONCURRENT_NACK = "concurrent_nack"  # CBP: NACK for a concurrent conflict
    CERTIFICATION = "certification"  # ABP: failed the certification test
    READER_PREEMPTED = "reader_preempted"  # local reader displaced by a remote write
    DEADLOCK = "deadlock"  # baseline 2PL: waits-for cycle victim
    TIMEOUT = "timeout"  # baseline 2PL: presumed distributed deadlock
    VIEW_LOSS = "view_loss"  # a required site left the view mid-protocol
    NO_QUORUM = "no_quorum"  # submitted in a minority view
    SITE_FAILURE = "site_failure"  # home site crashed mid-transaction


@dataclass(frozen=True)
class TransactionSpec:
    """A client request: what to read and what to write, at which site."""

    name: str
    home: int
    read_keys: tuple[str, ...] = ()
    writes: tuple[tuple[str, Any], ...] = ()

    @staticmethod
    def make(
        name: str,
        home: int,
        read_keys: tuple[str, ...] | list[str] = (),
        writes: Optional[dict[str, Any]] = None,
    ) -> "TransactionSpec":
        """Convenience constructor accepting a writes dict."""
        write_items = tuple(sorted((writes or {}).items()))
        return TransactionSpec(name, home, tuple(read_keys), write_items)

    @property
    def read_only(self) -> bool:
        return not self.writes

    @property
    def write_keys(self) -> tuple[str, ...]:
        return tuple(key for key, _ in self.writes)

    def __str__(self) -> str:
        return f"{self.name}@s{self.home}"


@dataclass
class Transaction:
    """One execution attempt of a spec at its home replica."""

    spec: TransactionSpec
    attempt: int
    submit_time: float
    first_submit_time: float  # of attempt 1, used for priority/fairness

    phase: TxPhase = TxPhase.PENDING
    reads_observed: dict[str, tuple[Any, int]] = field(default_factory=dict)
    writes_installed: dict[str, int] = field(default_factory=dict)
    commit_time: Optional[float] = None
    abort_reason: Optional[AbortReason] = None
    #: ``"<spec name>#<attempt>"``, formatted once: every layer keys its
    #: books by it, and neither ``spec`` nor ``attempt`` changes.
    tx_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.tx_id = f"{self.spec.name}#{self.attempt}"

    @property
    def read_only(self) -> bool:
        return self.spec.read_only

    @property
    def priority(self) -> tuple[float, int, str]:
        """Lower tuple = older transaction = higher priority (wins conflicts)."""
        return (self.first_submit_time, self.spec.home, self.spec.name)

    @property
    def terminal(self) -> bool:
        return self.phase in TERMINAL_PHASES

    def observed_versions(self) -> dict[str, int]:
        return {key: version for key, (_, version) in self.reads_observed.items()}

    def __str__(self) -> str:
        return self.tx_id


def priority_of(payload: Any) -> Optional[tuple]:
    """The embedded priority of a wire payload, when it has one."""
    return getattr(payload, "priority", None)
