"""Cluster harness: wires sites, broadcast stacks, protocol replicas,
clients and invariant checks into one runnable simulation.

Typical use::

    from repro import Cluster, ClusterConfig, TransactionSpec

    cluster = Cluster(ClusterConfig(protocol="cbp", num_sites=4, seed=7))
    cluster.submit(TransactionSpec.make("T1", home=0,
                                        read_keys=["x0"], writes={"x0": 42}))
    result = cluster.run()
    assert result.serialization.ok and result.converged

The cluster also owns the client retry loop: an aborted update transaction
is resubmitted (same spec, next attempt number, original priority
timestamp) after a jittered backoff, until it commits or exhausts
``max_attempts``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.analysis.metrics import MetricsCollector
from repro.broadcast.reliable import ReliableBroadcast
from repro.core.recovery import RecoveryAgent
from repro.core.replica import Replica
from repro.core.transaction import AbortReason, Transaction, TransactionSpec
from repro.db.serialization import (
    HistoryRecorder,
    SerializationResult,
    replicas_converged,
)
from repro.db.storage import VersionedStore, VersionedValue
from repro.net.batching import BroadcastBatcher
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.network import Network
from repro.net.router import ChannelRouter
from repro.net.transport import ReliableTransport
from repro.sim.engine import RUN_EXHAUSTED, RUN_STOPPED, SimulationEngine
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

if TYPE_CHECKING:  # built only by the protocols and options that use them
    from repro.broadcast.causal import CausalBroadcast
    from repro.broadcast.failure_detector import FailureDetector
    from repro.broadcast.membership import MembershipService, View
    from repro.broadcast.total import TotalOrderBroadcast

PROTOCOLS = ("rbp", "cbp", "abp", "p2p")


@dataclass
class ClusterConfig:
    """Everything that defines one simulated deployment."""

    protocol: str = "rbp"
    num_sites: int = 4
    num_objects: int = 64
    seed: int = 0
    latency: Optional[LatencyModel] = None  # default: UniformLatency(0.5, 1.5)
    loss_rate: float = 0.0
    bandwidth: Optional[float] = None  # bytes/ms per link; None = infinite
    # Transport mode: ARQ whenever loss_rate > 0; on a lossless network
    # passthrough (bit-identical to the analytical cost model) unless True,
    # which forces ARQ — required before FaultSchedule.flaky_links can
    # inject loss mid-run on a lossless build.
    reliable_links: bool = False
    # Batching: None = passthrough, bit-identical to historical traffic.
    # A number is the flush window in ms (0.0 = same-instant coalescing)
    # and enables the flush-window coalescer together with protocol group
    # commit.  With batching on, runs are outcome-equivalent, not
    # trace-identical.
    batching: Optional[float] = None
    relay: bool = False
    trace: bool = False
    # Trace retention cap (records), a ring of the newest: a long soak stays
    # memory-bounded and the records nearest a failure survive (TraceLog).
    trace_capacity: Optional[int] = None
    # Failure handling.
    enable_failure_detector: bool = False
    fd_interval: float = 50.0
    fd_timeout: float = 200.0
    # Client retry loop.
    retry_aborted: bool = True
    max_attempts: int = 25
    retry_backoff: float = 10.0
    # RBP knobs.
    rbp_wound_local_readers: bool = False
    rbp_pipeline_writes: bool = False
    # CBP knobs.
    cbp_heartbeat: Optional[float] = 25.0
    cbp_per_op: bool = False
    # ABP knobs.
    abp_variant: str = "bundled"  # or "shipped" / "locked"
    abp_order_mode: str = "sequencer"  # or "token"
    abp_uniform: bool = False  # uniform (stable) delivery of commit requests
    # Baseline knobs.
    p2p_write_timeout: float = 400.0
    p2p_deadlock_interval: float = 10.0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; pick from {PROTOCOLS}")
        if self.num_sites < 1:
            raise ValueError("num_sites must be at least 1")
        if self.num_objects < 1:
            raise ValueError("num_objects must be at least 1")
        if self.batching is not None:
            if (
                isinstance(self.batching, bool)
                or not isinstance(self.batching, (int, float))
                or self.batching < 0
            ):
                raise ValueError(
                    "batching must be None or a non-negative flush window in ms"
                )
            self.batching = float(self.batching)
        for name in ("fd_interval", "cbp_heartbeat", "p2p_deadlock_interval"):
            interval = getattr(self, name)
            if interval is not None and interval <= 0:
                # A periodic tick that reschedules itself at +0 never lets
                # simulated time advance: the run hangs.
                raise ValueError(f"{name} must be positive, got {interval!r}")


@dataclass
class SpecStatus:
    """Client-side status of one logical transaction (across attempts)."""

    spec: TransactionSpec
    attempts: int = 0
    committed: bool = False
    final: bool = False
    first_submit_time: float = 0.0
    last_outcome: Optional[AbortReason] = None
    #: The newest attempt; once committed, the one that committed.
    last_attempt: Optional[Transaction] = None


@dataclass
class ClusterResult:
    """Everything a benchmark or test wants to know after a run."""

    duration: float
    metrics: MetricsCollector
    network_stats: dict[str, Any]
    serialization: SerializationResult
    converged: bool
    committed_specs: int
    failed_specs: int
    incomplete_specs: int
    messages_by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.serialization.ok and self.converged

    def messages_total(self, prefix: str = "") -> int:
        return sum(  # detcheck: ignore[D106] — integer sum, order-insensitive
            count
            for kind, count in self.messages_by_kind.items()
            if kind.startswith(prefix)
        )


class Cluster:
    """A simulated replicated database running one protocol."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.engine = SimulationEngine()
        self.rng = RngRegistry(config.seed)
        self.trace = TraceLog(enabled=config.trace, capacity=config.trace_capacity)
        self.recorder = HistoryRecorder(horizon=self._record_horizon)
        self.metrics = MetricsCollector()
        latency = config.latency if config.latency is not None else UniformLatency(0.5, 1.5)
        self.network = Network(
            self.engine,
            config.num_sites,
            latency=latency,
            rng=self.rng,
            loss_rate=config.loss_rate,
            bandwidth=config.bandwidth,
        )
        self.keys = [f"x{i}" for i in range(config.num_objects)]
        self.replicas: list[Replica] = []
        self.transports: list[ReliableTransport] = []
        self.batchers: list[Optional[BroadcastBatcher]] = []
        self.routers: list[ChannelRouter] = []
        self.reliables: list[ReliableBroadcast] = []
        self.causals: list[CausalBroadcast] = []
        self.totals: list[TotalOrderBroadcast] = []
        #: Per site, the top of its broadcast stack: view changes and state
        #: transfer enter there and forward down the chain.
        self.stacks: list[Any] = []
        self.detectors: list[FailureDetector] = []
        self.memberships: list[MembershipService] = []
        self.recovery_agents: list[RecoveryAgent] = []
        #: The specs not final yet; a final one leaves for the counters.
        self._specs: dict[str, SpecStatus] = {}
        #: Every name ever submitted: an attempt's id is ``name#attempt``,
        #: and the protocols and the recorder hold ids past a spec's end.
        self._names: set[str] = set()
        self._committed_specs = 0
        self._failed_specs = 0
        self._spec_listeners: list[Callable[[SpecStatus], None]] = []
        #: Set while :meth:`run` waits for every spec to be final: the
        #: ``_finish`` that empties ``_specs`` stops the engine (and sets
        #: ``_stopped_on_final``), so no predicate runs per event.
        self._stop_on_final = False
        self._stopped_on_final = False
        self._build()

    # -- construction ---------------------------------------------------------------

    def _build(self) -> None:
        config = self.config
        # The database's initial state (every key at one shared version 0)
        # and a table of the latest version installed per key, each built
        # once and shared by every site's store: a site holds only the keys
        # it wrote (repro.db.storage).
        initial = dict.fromkeys(self.keys, VersionedValue(0, 0, None))
        versions: dict[str, VersionedValue] = {}
        for site in range(config.num_sites):
            transport = ReliableTransport(
                self.engine,
                self.network,
                site,
                reliable=config.reliable_links,
                trace=self.trace,
            )
            batcher = None
            if config.batching is not None:
                batcher = BroadcastBatcher(
                    self.engine, transport, flush_window=config.batching
                )
            router = ChannelRouter(transport, batcher=batcher)
            reliable = ReliableBroadcast(
                self.engine, router, site, config.num_sites, relay=config.relay
            )
            self.transports.append(transport)
            self.batchers.append(batcher)
            self.routers.append(router)
            self.reliables.append(reliable)

            replica = self._build_replica(site, router, reliable)
            replica.on_complete = self._on_complete
            replica.store = VersionedStore(initial, versions)
            self.replicas.append(replica)
            # The highest layer the protocol put on the reliable one.
            self.stacks.append((self.totals or self.causals or self.reliables)[site])
            self.recovery_agents.append(
                RecoveryAgent(self.engine, router, replica, self.trace, self.stacks[site])
            )

            if config.enable_failure_detector:
                from repro.broadcast.failure_detector import FailureDetector
                from repro.broadcast.membership import MembershipService

                detector = FailureDetector(
                    self.engine,
                    router,
                    site,
                    config.num_sites,
                    interval=config.fd_interval,
                    timeout=config.fd_timeout,
                )
                membership = MembershipService(
                    self.engine, router, detector, site, config.num_sites
                )
                membership.add_listener(self._make_view_listener(site))
                # Reachability hook: suspicion parks ARQ retransmission
                # toward the suspected peers (no-op for passthrough).
                detector.add_listener(transport.set_suspected)
                self.detectors.append(detector)
                self.memberships.append(membership)

    def _build_replica(
        self, site: int, router: ChannelRouter, reliable: ReliableBroadcast
    ) -> Replica:
        config = self.config
        # Batching on implies group commit.
        batched = config.batching is not None
        common = (
            self.engine,
            site,
            config.num_sites,
            self.recorder,
            self.metrics,
            self.trace,
        )
        # Each protocol imports its own replica and broadcast layers: a run
        # loads only the stack it executes.
        if config.protocol == "rbp":
            from repro.core.reliable_protocol import ReliableBroadcastReplica

            return ReliableBroadcastReplica(
                *common,
                rbcast=reliable,
                router=router,
                wound_local_readers=config.rbp_wound_local_readers,
                pipeline_writes=config.rbp_pipeline_writes,
                group_commit=batched,
            )
        if config.protocol == "p2p":
            from repro.baselines.p2p_2pc import PointToPointReplica

            return PointToPointReplica(
                *common,
                router=router,
                write_timeout=config.p2p_write_timeout,
                deadlock_check_interval=config.p2p_deadlock_interval,
            )
        from repro.broadcast.causal import CausalBroadcast

        causal = CausalBroadcast(reliable)
        self.causals.append(causal)
        if config.protocol == "cbp":
            from repro.core.causal_protocol import CausalBroadcastReplica

            return CausalBroadcastReplica(
                *common,
                cbcast=causal,
                heartbeat_interval=config.cbp_heartbeat,
                per_op=config.cbp_per_op,
            )
        from repro.broadcast.total import TotalOrderBroadcast
        from repro.core.atomic_protocol import AtomicBroadcastReplica

        total = TotalOrderBroadcast(
            self.engine,
            causal,
            mode=config.abp_order_mode,
            uniform=config.abp_uniform,
        )
        self.totals.append(total)
        return AtomicBroadcastReplica(*common, abcast=total, variant=config.abp_variant)

    def _make_view_listener(self, site: int) -> Callable[[View, set[int]], None]:
        def listener(view: View, joined: set[int]) -> None:
            replica = self.replicas[site]
            members = list(view.members)
            was_primary = replica.has_quorum
            self.stacks[site].set_group(members)
            now_primary = view.has_quorum(self.config.num_sites)
            if replica.recovering:
                # Crash recovery: we have rejoined the view (so members now
                # send to us and our causal layer holds their messages
                # back); request the snapshot from the view coordinator.
                agent = self.recovery_agents[site]
                if (
                    not agent.requested
                    and now_primary
                    and site in view.members
                    and len(view.members) > 1
                ):
                    donor = min(m for m in view.members if m != site)
                    agent.request_from(donor)
            elif now_primary and not was_primary:
                # Rejoining the primary component after a healed partition:
                # catch up on the updates the majority committed while we
                # were away.  A real system streams the missed writes or a
                # checkpoint; this in-place clone stands in for it (see
                # DESIGN.md on the simplification).
                self._state_transfer_into(site)
            replica.on_view_change(members, now_primary)

        return listener

    def _state_transfer_into(self, site: int) -> None:
        donor = None
        for candidate in self.replicas:
            if candidate.site != site and candidate.alive and candidate.has_quorum:
                donor = candidate
                break
        if donor is None:
            return
        replica = self.replicas[site]
        if donor.store.digest() != replica.store.digest():
            replica.install_snapshot(donor.store.export_snapshot())
            self.trace.emit(
                self.engine.now, f"site{site}", "recovery.state_transfer", donor=donor.site
            )
        replica.on_heal(donor)

    # -- client API ------------------------------------------------------------------

    def submit(self, spec: TransactionSpec, at: float = 0.0) -> SpecStatus:
        """Schedule the first attempt of ``spec`` at simulation time ``at``.

        Returns the spec's status, updated in place until it is final.  The
        cluster keeps it only that long (a spec listener, or the caller
        holding the status, sees the final outcome); a name is used once."""
        if spec.name in self._names:
            raise ValueError(f"spec {spec.name} already submitted")
        self._names.add(spec.name)
        status = SpecStatus(spec=spec, first_submit_time=at)
        self._specs[spec.name] = status
        # detcheck: ignore[P203] — the SpecStatus argument is the staleness
        # token: _attempt re-checks status.final before acting.
        self.engine.schedule_at(at, self._attempt, status)
        return status

    def add_spec_listener(self, listener: Callable[[SpecStatus], None]) -> None:
        """``listener(status)`` fires when a spec reaches its final outcome."""
        self._spec_listeners.append(listener)

    def _attempt(self, status: SpecStatus) -> None:
        status.attempts += 1
        tx = status.last_attempt = Transaction(
            spec=status.spec,
            attempt=status.attempts,
            submit_time=self.engine.now,
            first_submit_time=status.first_submit_time,
        )
        self.replicas[status.spec.home].submit(tx)

    def _on_complete(self, tx: Transaction, committed: bool) -> None:
        status = self._specs.get(tx.spec.name)
        if status is None or status.final:
            return
        if committed:
            status.committed = True
            self._committed_specs += 1
            self._finish(status)
            return
        status.last_outcome = tx.abort_reason
        retryable = self.config.retry_aborted and tx.abort_reason not in (
            AbortReason.SITE_FAILURE,
            AbortReason.NO_QUORUM,
        )
        if retryable and status.attempts < self.config.max_attempts:
            backoff = self.config.retry_backoff
            jitter = self.rng.stream("retry").uniform(0.5, 1.5)
            delay = backoff * jitter * min(status.attempts, 4)
            # detcheck: ignore[P203] — retry with the same SpecStatus token.
            self.engine.schedule(delay, self._attempt, status)
        else:
            self._failed_specs += 1
            self._finish(status)

    def _finish(self, status: SpecStatus) -> None:
        status.final = True
        del self._specs[status.spec.name]
        for listener in self._spec_listeners:
            listener(status)
        # After the listeners: a closed-loop client's next spec keeps it going.
        if self._stop_on_final and not self._specs:
            self._stopped_on_final = True
            self.engine.stop()

    # -- fault injection ---------------------------------------------------------------

    def crash_site(self, site: int, at: Optional[float] = None) -> None:
        """Crash ``site`` now or at a future time (fail-stop)."""
        if at is not None:
            self.engine.schedule_at(at, self.crash_site, site)
            return
        self.network.set_site_up(site, False)
        if self.batchers[site] is not None:
            # Fail-stop: the open flush window's queued traffic is lost.
            self.batchers[site].reset()
        if self.totals:
            self.totals[site].crash()
        replica = self.replicas[site]
        for tx in list(replica.local.values()):
            replica._complete_abort(tx, AbortReason.SITE_FAILURE)
        replica.crash()
        self.recovery_agents[site].crash()
        if self.detectors:
            self.detectors[site].crash()
            self.memberships[site].crash()

    def recover_site(self, site: int, at: Optional[float] = None) -> None:
        """Recover a crashed site via a message-based state transfer
        (:mod:`repro.core.recovery`): the site comes back up holding its
        protocol traffic, loads a snapshot from the lowest live
        primary-component member, fast-forwards its broadcast stack, and
        only then replays the held traffic and accepts transactions.
        """
        if at is not None:
            self.engine.schedule_at(at, self.recover_site, site)
            return
        agent = self.recovery_agents[site]
        self.network.set_site_up(site, True)
        self.transports[site].reset()
        if self.batchers[site] is not None:
            self.batchers[site].reset()
        if self.totals:
            self.totals[site].recover()
        self.replicas[site].recover()
        agent.begin()
        if self.detectors:
            # Rejoin first: once the coordinator reinstates us in the view,
            # peers broadcast to us again and the view listener requests
            # the state snapshot (see _make_view_listener).
            self.detectors[site].recover()
            self.memberships[site].recover()
            return
        # Static membership (no failure detector): request immediately from
        # the lowest other live site.
        donor = next(
            (
                r.site
                for r in self.replicas
                if r.alive and r.site != site and not r.recovering
            ),
            None,
        )
        if donor is None:
            agent.end()
            return
        agent.request_from(donor)

    def partition(self, groups: list[list[int]]) -> None:
        self.network.partitions.split(groups)

    def heal_partition(self) -> None:
        self.network.partitions.heal()

    # -- running ----------------------------------------------------------------------

    def all_final(self) -> bool:
        """O(1).  ``run``'s default stop: not polled, but fired by the
        ``_finish`` that makes it true (see :meth:`run`)."""
        return not self._specs

    def specs_submitted(self) -> int:
        return len(self._names)

    def work_started_and_unfinished(self) -> bool:
        """True when some submitted spec has actually *begun* (its first
        attempt is due) without reaching a final outcome.  ``submit``
        registers specs eagerly so ``all_final`` can gate ``run`` on
        future-scheduled arrivals; liveness oracles must not treat those
        not-yet-started arrivals as stalled work, so they use this
        instead of ``not all_final()``.  Scans only the specs not final."""
        now = self.engine.now
        return any(status.first_submit_time <= now for status in self._specs.values())

    def await_specs(self, count: int) -> Callable[[], bool]:
        """A ``stop_when`` predicate: at least ``count`` specs submitted and
        all of them final.  Use when submissions are scheduled into the
        future (a plain ``all_final`` would stop in the lull between
        batches)."""
        return lambda: len(self._names) >= count and self.all_final()

    def run(
        self,
        max_time: float = 1_000_000.0,
        stop_when: Optional[Callable[[], bool]] = None,
        drain: bool = True,
    ) -> ClusterResult:
        """Run until every submitted spec is final (or ``max_time``).

        Drivers that submit work with gaps (e.g. a closed loop with think
        time) pass their own ``stop_when`` so the run does not stop in a
        momentary all-final lull.

        The default stop (``stop_when`` left out, or :meth:`all_final`
        itself) is not a predicate polled after every event: the engine
        stops at the end of the event whose ``_finish`` made the last spec
        final, which is where the poll would have stopped it.  A spec
        submitted later in that same event resumes the run, as the poll
        would not have stopped; with no spec pending at the start there is
        no ``_finish`` to wait for, and :meth:`all_final` is polled.

        With ``drain`` (the default) the run then continues in chunks until
        the replicas converge, so in-flight remote applies (votes, echoes,
        decisions still on the wire when the last client got its answer)
        reach every site before invariants are checked.
        """
        if stop_when is None:
            stop_when = self.all_final
        if stop_when != self.all_final or not self._specs:
            self.engine.run(until=max_time, stop_when=stop_when)
        else:
            self._stop_on_final = True
            self._stopped_on_final = False
            try:
                while (
                    self.engine.run(until=max_time) == RUN_STOPPED
                    and self._stopped_on_final
                    and self._specs
                ):
                    self._stopped_on_final = False
            finally:
                self._stop_on_final = False
        if drain:
            self._drain(max_time)
        return self.result()

    def _drain(self, max_time: float, chunk: float = 50.0, rounds: int = 200) -> None:
        for _ in range(rounds):
            live_stores = [r.store for r in self.replicas if r.alive]
            if replicas_converged(live_stores):
                return
            if self.engine.now >= max_time:
                return
            reason = self.engine.run(until=min(self.engine.now + chunk, max_time))
            if reason == RUN_EXHAUSTED:
                # Truly nothing pending (not merely idle until the chunk
                # horizon): no in-flight apply can ever arrive, so further
                # rounds cannot make progress.
                return

    def run_for(self, duration: float) -> None:
        """Advance simulation time by ``duration`` without stopping early."""
        self.engine.run(until=self.engine.now + duration)

    def result(self) -> ClusterResult:
        serialization = self.recorder.check()
        live_stores = [r.store for r in self.replicas if r.alive]
        converged = replicas_converged(live_stores)
        return ClusterResult(
            duration=self.engine.now,
            metrics=self.metrics,
            network_stats=self.network.stats.snapshot(),
            serialization=serialization,
            converged=converged,
            committed_specs=self._committed_specs,
            failed_specs=self._failed_specs,
            incomplete_specs=len(self._specs),
            messages_by_kind=dict(self.network.stats.by_kind),
        )

    def _record_horizon(self, keys: Iterable[str]) -> tuple[dict[str, int], set[str]]:
        """What the 1SR recorder may retire behind: the floor of each of
        ``keys`` — the lowest latest version any store holds, up or down,
        lowered to any version a live home attempt read — and the ids of
        those attempts (``repro.db.serialization``)."""
        keys = list(keys)
        columns = zip(*(replica.store._latest_versions(keys) for replica in self.replicas))
        floor = dict(zip(keys, map(min, columns)))
        live: set[str] = set()
        for replica in self.replicas:
            for tx_id, tx in replica.local.items():
                live.add(tx_id)
                for key, (_, version) in tx.reads_observed.items():
                    if version < floor.get(key, version):
                        floor[key] = version
        return floor, live
