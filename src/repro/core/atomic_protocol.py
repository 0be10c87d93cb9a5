"""ABP: the Atomic Broadcast-based Protocol (paper, section 5).

Commit requests are delivered in a single total order consistent with
causality, so every site runs the *same deterministic certification test in
the same order* and reaches the same commit/abort decision independently —
"completely eliminating the need for acknowledgements during transaction
commitment".

Three dissemination variants (ablation E10):

- **bundled** (variant A): the commit request carries the write values; one
  atomic broadcast per update transaction.
- **shipped** (variant B, the paper's presentation): write operations are
  disseminated by **causal broadcast** while the transaction executes and
  only a slim commit request goes through the atomic order ("the system
  must support both atomic as well as causal broadcast primitives", as in
  ISIS).  Causal order guarantees a site has a transaction's writes before
  its commit request becomes deliverable, and the total order resolves
  conflicts among concurrent writers deterministically.
- **locked** (variant B + delivery-time locking, closest to the paper's
  "operations executed as they are delivered"): pre-shipped writes also
  take exclusive locks at delivery, so local readers wait for the writer's
  fate instead of reading soon-to-be-stale versions — fewer certification
  aborts, slightly higher read latency.  The total order still decides
  installs: certification preempts any conflicting grant (the displaced
  writer's own commit request necessarily comes later in the order).

Certification: the commit request carries the versions the transaction read
at its home site.  When the request is processed (in total order), a site
commits the transaction iff every read version still equals the object's
current committed version.  Because every site installs writes at the same
total-order positions, the current versions agree everywhere, so the
decision is deterministic — no votes.  This is backward read validation
(optimistic concurrency control [KR81] at the replication level), the
deterministic surrogate for the locking details the paper leaves to its
technical report; see DESIGN.md.

Read-only transactions read a locally committed snapshot (atomically, under
the group read-lock discipline) and commit locally: never broadcast, never
aborted.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.analysis.metrics import MetricsCollector
from repro.broadcast.causal import CausalEnvelope
from repro.broadcast.total import TotalOrderBroadcast
from repro.core.abp_events import AbpCommitRequest, AbpWriteSet
from repro.core.replica import Replica
from repro.core.transaction import AbortReason, Transaction, TxPhase
from repro.db.locks import LockMode
from repro.db.serialization import HistoryRecorder
from repro.sim.engine import SimulationEngine
from repro.sim.trace import TraceLog


class AtomicBroadcastReplica(Replica):
    """One site running ABP."""

    #: Optimistic: read locks are released right after the read burst; the
    #: certification test replaces lock-based read protection.
    hold_read_locks = False

    #: Variant B: a ``_live`` record is a causally pre-shipped write set
    #: (key -> value), held until its commit request is certified.
    residue = {"undelivered shipped write sets": lambda writes: True}

    def __init__(
        self,
        engine: SimulationEngine,
        site: int,
        num_sites: int,
        recorder: HistoryRecorder,
        metrics: MetricsCollector,
        trace: TraceLog,
        abcast: TotalOrderBroadcast,
        variant: str = "bundled",
    ):
        super().__init__(engine, site, num_sites, recorder, metrics, trace)
        if variant not in ("bundled", "shipped", "locked"):
            raise ValueError(f"unknown ABP variant {variant!r}")
        self.abcast = abcast
        self.variant = variant
        abcast.set_deliver(self._on_deliver)
        #: Sanity: total-order positions must arrive contiguously.
        self._expected_index = 0
        self.certified_commits = 0
        self.certified_aborts = 0

    # -- recovery ----------------------------------------------------------------------

    def on_recovery_complete(self) -> None:
        """Skip the total-order prefix the adopted state transfer covers."""
        self._expected_index = max(self._expected_index, self.abcast.next_delivery_index)

    def export_protocol_state(self) -> Optional[dict]:
        """Ship the causally pre-shipped write sets with a state transfer.

        In the shipped/locked variants a write set travels causally ahead of
        its totally-ordered commit request.  A write set the donor delivered
        *before* its export whose commit request orders *after* it would be
        unobtainable for the rejoiner (the causal fast-forward skips the
        covered prefix) — certification would then crash on the missing
        writes.  The bundled variant carries writes inside the request and
        needs nothing.
        """
        if self.variant == "bundled":
            return None
        return {
            "shipped": tuple(
                (tx, tuple(sorted(writes.items())))
                for tx, writes in sorted(self._live.items())
            )
        }

    def adopt_protocol_state(self, state: dict) -> None:
        for tx, writes in state["shipped"]:
            self._live.setdefault(tx, dict(writes))

    # -- home side ------------------------------------------------------------------

    def start_update(self, tx: Transaction) -> None:
        self.public.add(tx.tx_id)
        tx.phase = TxPhase.COMMITTING
        reads = tuple(sorted(tx.observed_versions().items()))
        if self.variant in ("shipped", "locked"):
            self.abcast.broadcast_causal(
                AbpWriteSet(tx.tx_id, self.site, tx.spec.writes)
            )
            request = AbpCommitRequest(
                tx.tx_id, self.site, reads, (), tx.spec.write_keys
            )
        else:
            request = AbpCommitRequest(
                tx.tx_id, self.site, reads, tx.spec.writes, tx.spec.write_keys
            )
        self.abcast.broadcast(request)

    # -- delivery --------------------------------------------------------------------

    def _on_deliver(
        self, payload: Any, envelope: CausalEnvelope, order_index: Optional[int]
    ) -> None:
        if isinstance(payload, AbpWriteSet):
            assert order_index is None
            self._live[payload.tx] = dict(payload.writes)
            if self.variant == "locked":
                # The paper's S5 text: operations "executed as delivered".
                # Acquire (or queue for) the exclusive locks now, so local
                # readers wait for the writer's fate instead of reading
                # soon-to-be-stale versions.  The total order still decides
                # installs: certification preempts any grant order.
                for key, _ in payload.writes:
                    self.locks.acquire(payload.tx, key, LockMode.EXCLUSIVE)
            return
        if not isinstance(payload, AbpCommitRequest):
            raise RuntimeError(f"site {self.site}: unexpected ABP payload {payload!r}")
        assert order_index is not None, "commit requests must be totally ordered"
        if order_index != self._expected_index:
            raise RuntimeError(
                f"site {self.site}: total-order gap (got {order_index}, "
                f"expected {self._expected_index})"
            )
        self._expected_index += 1
        self._certify(payload)

    def _certify(self, request: AbpCommitRequest) -> None:
        """The deterministic certification test, identical at every site."""
        ok = all(
            self.store.version(key) == version for key, version in request.reads
        )
        tx = self.local.get(request.tx)
        if not ok:
            self.certified_aborts += 1
            self.trace.emit(self.now, self.name, "abp.cert_abort", tx=request.tx)
            self._live.pop(request.tx, None)
            if self.variant == "locked":
                # Drop the early locks/queued claims: waiting readers resume.
                self.locks.release_all(request.tx)
            if tx is not None and request.home == self.site:
                self.abort_home(tx, AbortReason.CERTIFICATION)
            return
        if self.variant in ("shipped", "locked"):
            writes = self._live.pop(request.tx, None)
            if writes is None:
                # Causal order puts the write set before the commit request;
                # its absence indicates a broken broadcast stack.
                raise RuntimeError(
                    f"site {self.site}: write set for {request.tx} missing at "
                    "certification (causal order violated)"
                )
        else:
            writes = dict(request.writes)
        if self.variant == "locked":
            # The total order outranks grant order: displace any other
            # uncommitted writer still holding one of our keys (its commit
            # request, if it ever certifies, comes later in the order).
            for key in writes:
                self.locks.preempt(key, request.tx)
        self.certified_commits += 1
        self.trace.emit(self.now, self.name, "abp.applied", tx=request.tx)
        self._install_commit(request.tx, writes)
