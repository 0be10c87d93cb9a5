"""Message-based crash recovery: state transfer over the network.

When a crashed site comes back it must catch up on everything the majority
committed while it was down.  A real system replays missed updates or
ships a checkpoint; this module implements the checkpoint variant as an
actual message exchange (request -> snapshot reply), rather than a
simulation shortcut:

1. the recovering site sends a :class:`StateTransferRequest` to a donor
   (the lowest live member of the primary component);
2. the donor replies with a full object snapshot plus what its broadcast
   stack exports (causal clock, total-order position);
3. the recovering site loads the snapshot, has its broadcast stack adopt
   that state (past everything the snapshot covers), truncates its WAL
   (the snapshot is the new recovery point), and only then starts
   accepting transactions and announces itself to the membership service.

From :meth:`RecoveryAgent.begin` to :meth:`~RecoveryAgent.end` the replica
is ``recovering`` (it refuses submissions) and its router holds every
channel not registered ``during_transfer``.  Holding is necessary for
safety — the donor exports its store, a write commits at both donor and
rejoiner, then the stale snapshot lands and silently rolls the rejoiner
back; a causal delivery or conflict test against pre-crash state is as
wrong — and safe for liveness: any commit the rejoiner's silence blocks
needs its answer (the sender's view included it), so the sender waits for
the replay.  A replayed delivery may assume the snapshot base; what the
snapshot already covers the layers drop (the causal cut, RBP's
decision-log guard).  A crash mid-transfer loses the parked traffic.

Fidelity note (DESIGN.md): survivors' causal layers stay consistent across
a sender crash only if partially-disseminated messages reach either all or
none of them — run fault experiments with ``relay=True`` (eager flooding)
so the reliable layer's agreement property provides exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.replica import Replica
from repro.net.router import ChannelRouter
from repro.net.sizes import register_payload
from repro.sim.engine import SimulationEngine
from repro.sim.trace import TraceLog

CHANNEL = "recovery"


@dataclass(slots=True)
class StateTransferRequest:
    """Sent by a recovering site to a donor."""

    site: int
    kind: str = "recovery.request"


@dataclass(slots=True)
class StateTransferReply:
    """Snapshot of committed state + broadcast-layer positions.

    ``causal_*`` and ``total_*`` belong to the broadcast stack: a layer
    writes its keys in ``export_state`` and reads them back as attributes
    in ``adopt_state``; the agent only passes them through, so a key no
    field carries is a ``TypeError`` at the donor, not a silent drop.
    """

    from_site: int
    objects: tuple[tuple[str, int, Any], ...]
    causal_clock: Optional[list[int]] = None
    total_order_state: Optional[dict] = None
    #: Protocol-private state (``Replica.export_protocol_state``): CBP's
    #: in-flight transaction books, ABP's pre-shipped write sets — the
    #: committed snapshot alone misses transactions in flight at export
    #: time — and RBP's decision log and open records, so a rejoiner can
    #: answer decision queries for outcomes reached while it was down and
    #: install the transactions decided after the export.
    protocol_state: Optional[dict] = None
    kind: str = "recovery.reply"


class RecoveryAgent:
    """Per-site endpoint of the state-transfer protocol."""

    def __init__(
        self,
        engine: SimulationEngine,
        router: ChannelRouter,
        replica: Replica,
        trace: TraceLog,
        stack: Any,
        serve_delay: float = 100.0,
    ):
        self.engine = engine
        self.router = router
        self.replica = replica
        self.trace = trace
        #: Top endpoint of the site's broadcast stack.
        self.stack = stack
        #: Settle period before the donor exports its snapshot.  The
        #: recovering site rejoins the broadcast group *first*; any message
        #: sent by a member that had not yet installed the rejoin view will
        #: reach the donor within this window, so the delayed snapshot
        #: covers every message the recovering site will never receive.
        #: (A real group-communication system runs a view flush here.)
        self.serve_delay = serve_delay
        self.on_recovered: Optional[Callable[[], None]] = None
        self.requested = False
        self.transfers_served = 0
        self.transfers_completed = 0
        router.register(CHANNEL, self._on_message, during_transfer=True)

    def begin(self) -> None:
        """The site is back up: refuse submissions, hold protocol traffic."""
        self.replica.recovering = True
        self.router.hold()

    def end(self) -> None:
        """After the install (or at once, with no donor): accept submissions
        and replay the parked traffic in arrival order — after the
        protocol's ``on_recovery_complete``, since ABP's total-order index
        must be set before a parked commit request arrives."""
        self.replica.recovering = self.requested = False
        self.replica.on_recovery_complete()
        if self.router.parked:
            self.trace.emit(
                self.engine.now, self.replica.name, "recovery.replay",
                deferred=len(self.router.parked),
            )
        self.router.release()

    def crash(self) -> None:
        """Parked traffic dies with the site; the next recovery asks anew."""
        self.requested = False
        self.router.drop()

    def request_from(self, donor: int) -> None:
        """Ask ``donor`` for a state snapshot (after :meth:`begin`)."""
        self.requested = True
        self.trace.emit(
            self.engine.now, self.replica.name, "recovery.requested", donor=donor
        )
        request = StateTransferRequest(self.replica.site)
        self.router.send(donor, CHANNEL, request, request.kind)

    # -- internals ---------------------------------------------------------------

    def _on_message(self, src: int, payload: Any) -> None:
        if isinstance(payload, StateTransferRequest):
            self._serve(payload)
        elif isinstance(payload, StateTransferReply):
            self._complete(payload)
        else:
            raise RuntimeError(f"unexpected recovery payload {payload!r}")

    def _serve(self, request: StateTransferRequest) -> None:
        replica = self.replica
        if not replica.alive or replica.recovering:
            return  # a better donor will answer a retried request
        # Export at *send* time, after the settle window (see serve_delay).
        self.engine.schedule(self.serve_delay, self._send_reply, request.site)

    def _send_reply(self, to_site: int) -> None:
        replica = self.replica
        if not replica.alive or replica.recovering:
            return
        reply = StateTransferReply(
            replica.site,
            replica.store.export_snapshot(),
            protocol_state=replica.export_protocol_state(),
            **self.stack.export_state(),
        )
        self.transfers_served += 1
        self.trace.emit(
            self.engine.now,
            replica.name,
            "recovery.served",
            to=to_site,
            objects=len(reply.objects),
        )
        self.router.send(to_site, CHANNEL, reply, reply.kind)

    def _complete(self, reply: StateTransferReply) -> None:
        replica = self.replica
        if not replica.recovering:
            return  # duplicate reply
        replica.install_snapshot(reply.objects)
        self.stack.adopt_state(reply)
        if reply.protocol_state is not None:
            replica.adopt_protocol_state(reply.protocol_state)
        self.end()
        self.transfers_completed += 1
        self.trace.emit(
            self.engine.now,
            replica.name,
            "recovery.completed",
            donor=reply.from_site,
            objects=len(reply.objects),
        )
        if self.on_recovered is not None:
            self.on_recovered()

# Import-time shape check for the size model (detcheck P201/P202).
register_payload(StateTransferRequest, StateTransferReply)
