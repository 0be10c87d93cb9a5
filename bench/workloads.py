"""The six benchmark workloads and the clients that drive them.

All six are closed loops: ``mpl`` logical clients, each with one request
outstanding, because the paper's clients wait for commit.  Link delay is
the cluster default, ``UniformLatency(0.5, 1.5)`` ms (mean 1.0 ms).  The
seed feeds ``ClusterConfig.seed``; the program sees only generated inputs.

``repro`` is imported inside :func:`build`, not at module level, so the
parent process can read the table (names, reasons, sizes) without it and
the child can time the import as part of set-up.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (sizes calibrated on the 2-core box:
    each timed repeat about 4 s and at least 1000 committed updates)."""

    name: str
    why: str
    protocol: str
    sites: int
    objects: int
    mpl: int
    #: Count-bounded workloads: logical transactions per repeat.
    transactions: int = 0
    #: Horizon-bounded workload (churn): simulated ms of load, think time.
    horizon_ms: float = 0.0
    think_ms: float = 0.0
    write_ops: int = 2
    zipf_theta: float = 0.0
    readonly_fraction: float = 0.0
    #: Extra ``ClusterConfig`` fields.
    cluster: dict[str, Any] = field(default_factory=dict)
    #: Why a size differs from the issue's table, when it does.
    retuned: str = ""


WORKLOADS = (
    Workload(
        name="rbp_wide",
        why="RBP at 16 sites, lossless: the O(n^2) vote storm, where the "
        "per-datagram path (net + sim.engine) carries the run",
        protocol="rbp", sites=16, objects=8192, mpl=8, transactions=1000,
        retuned="16 sites, not 24: three repeats must fit a 12 s run (24 sites "
        "cost 8.5 s for the minimum 1000 commits).  8192 objects, not 256: at "
        "256, 7% of transactions retry, p99 sits in the retry tail and moves "
        "12% from seed to seed (throughput 5%); at 8192 it sits in the bulk "
        "and moves 0.4%.  Conflicts are abp_hot_mix's job",
    ),
    Workload(
        name="cbp_steady",
        why="CBP at 8 sites, 25 ms heartbeat: causal delivery, vector clocks "
        "and implicit-ack wait; few datagrams, so a net win should be small",
        protocol="cbp", sites=8, objects=256, mpl=8, transactions=5600,
        cluster={"cbp_heartbeat": 25.0},
        retuned="5600 transactions, not 6000: keeps a repeat near 4.3 s",
    ),
    Workload(
        name="abp_hot_mix",
        why="ABP on 64 hot objects (Zipf 0.9), half read-only, mpl 16: total "
        "order, certification retries, locks and the 1SR check carry the run",
        protocol="abp", sites=8, objects=64, mpl=16, transactions=10_000,
        zipf_theta=0.9, readonly_fraction=0.5,
        cluster={"max_attempts": 80, "retry_backoff": 4.0},
        retuned="10000 transactions, not 12000: keeps a repeat near 4.4 s",
    ),
    Workload(
        name="p2p_steady",
        why="P2P/2PC baseline at 8 sites: a lock at every site for every "
        "write, 2PC rounds, deadlock detector -- the layer split no broadcast "
        "protocol has",
        protocol="p2p", sites=8, objects=8192, mpl=8, transactions=4800,
        cluster={"p2p_write_timeout": 50.0, "retry_backoff": 25.0},
        retuned="With the issue's shape (256 objects, Zipf 0.3, default 400 ms "
        "write timeout, 10 ms backoff) two transactions that deadlock across "
        "sites time out together, retry within 60 ms of each other and "
        "deadlock again until one exhausts max_attempts: 6-24 failed specs "
        "per run at every seed tried -- a src/ livelock for a later issue.  A "
        "backoff of half the timeout breaks the lockstep (no failure in any "
        "seed tried), and uniform keys over 8192 objects keep the few "
        "remaining timeouts out of p99, which otherwise moves 25% from seed "
        "to seed (throughput 22%)",
    ),
    Workload(
        name="abp_lossy",
        why="ABP at 8 sites with 2% datagram loss: the ARQ transport does the "
        "work (retransmissions, timer churn); batching and ARQ changes show here",
        protocol="abp", sites=8, objects=256, mpl=8, transactions=5700,
        cluster={"loss_rate": 0.02},
        retuned="2% loss, not 5%: at 5% half the commits lose a datagram on "
        "their critical path, so p50 sits between the two modes and moves "
        "4.5% from seed to seed; at 2% it moves 0.6% and the loss tail is "
        "p99's to show.  5700 transactions keep a repeat near 4.3 s",
    ),
    Workload(
        name="abp_churn",
        why="ABP at 24 sites under rolling crash/recover with oracles armed: "
        "failure detector, membership, state transfer and failover are live",
        protocol="abp", sites=24, objects=64, mpl=8, horizon_ms=40_000.0,
        think_ms=90.0, write_ops=1,
        retuned="ABP, not RBP: under this load RBP breaks 1SR or convergence "
        "on 6 of 8 seeds tried (a transaction in its vote phase while a join "
        "view installs commits at the sites still on the old view and aborts "
        "at its home) -- a src/ defect for ROADMAP item 4, found by this "
        "sizing.  ABP and CBP pass every seed tried.  Think time 90 ms, not "
        "150, brings the cheaper protocol's repeat to about 4 s",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: ``--check`` floor for the churn horizon: a plan needs room for one
#: crash/recover cycle (fd_timeout 960 ms, downtime up to 2 x that).
MIN_CHURN_HORIZON_MS = 8_000.0


class ClientLog:
    """What the clients saw: one entry per logical request that reached a
    final answer.  Everything the sim end-to-end metrics need."""

    def __init__(self) -> None:
        self.update_latencies: list[float] = []
        self.committed_names: list[str] = []
        self.commits = 0
        self.failed = 0
        self.last_final = 0.0
        self.max_commit_gap = 0.0
        self._gap_from = 0.0

    def work_resumed(self, now: float) -> None:
        """Clients had nothing outstanding until ``now``: idle time is not
        time without service."""
        self._gap_from = now

    def finished(
        self, now: float, first_submit: float, name: str, committed: bool, read_only: bool
    ) -> None:
        self.last_final = now
        if not committed:
            self.failed += 1
            return
        self.commits += 1
        self.committed_names.append(name)
        if not read_only:
            self.update_latencies.append(now - first_submit)
        gap = now - self._gap_from
        if gap > self.max_commit_gap:
            self.max_commit_gap = gap
        self._gap_from = now


class FailoverClients:
    """``mpl`` closed-loop clients that take a request to the next site when
    its home site is down.

    ``ClosedLoopRunner`` gives up on a request whose home crashed (the
    cluster does not retry ``SITE_FAILURE``), which is right for a harness
    but not for a client: a real one reconnects elsewhere.  Here the same
    reads and writes are resubmitted at ``home + 1`` under a derived name,
    and the request's latency runs from its first submission, so an outage
    shows as latency and commit gap, and a request fails only if no site
    will take it.
    """

    def __init__(self, cluster: Any, workload: Any, mpl: int, think_ms: float, log: ClientLog):
        from repro.core.transaction import AbortReason
        from repro.workload.generator import WorkloadGenerator

        self.cluster = cluster
        self.mpl = mpl
        self.think_ms = think_ms
        self.log = log
        self.generator = WorkloadGenerator(workload, cluster.rng.stream("workload"))
        self.requests = 0
        self._refused = (AbortReason.SITE_FAILURE, AbortReason.NO_QUORUM)
        #: In-flight spec name -> (request's first submit time, hops so far).
        self._in_flight: dict[str, tuple[float, int]] = {}
        self._stopped = False
        cluster.add_spec_listener(self._on_final)

    def start(self) -> None:
        for _ in range(self.mpl):
            self._next_request()

    def stop(self) -> None:
        """No new requests; the ones in flight run to their answers."""
        self._stopped = True

    @property
    def unanswered(self) -> int:
        return len(self._in_flight)

    def _next_request(self) -> None:
        if self._stopped:
            return
        now = self.cluster.engine.now
        if not self._in_flight:
            self.log.work_resumed(now)
        self.requests += 1
        self._submit(self.generator.next_spec(), now, hops=0)

    def _submit(self, spec: Any, first_submit: float, hops: int) -> None:
        self._in_flight[spec.name] = (first_submit, hops)
        self.cluster.submit(spec, at=self.cluster.engine.now)

    def _on_final(self, status: Any) -> None:
        entry = self._in_flight.pop(status.spec.name, None)
        if entry is None:
            return
        first_submit, hops = entry
        spec = status.spec
        sites = self.cluster.config.num_sites
        if not status.committed and status.last_outcome in self._refused and hops + 1 < sites:
            base = spec.name.partition(".")[0]
            retry = dataclasses.replace(
                spec, name=f"{base}.f{hops + 1}", home=(spec.home + 1) % sites
            )
            self._submit(retry, first_submit, hops + 1)
            return
        self.log.finished(
            self.cluster.engine.now, first_submit, spec.name, status.committed, spec.read_only
        )
        self.cluster.engine.schedule(self.think_ms, self._next_request)


@dataclass
class Session:
    """One built workload, ready to run: ``start()`` then ``finish()``."""

    cluster: Any
    log: ClientLog
    start: Callable[[], None]
    #: Runs to the end and returns the ``ClusterResult``.
    finish: Callable[[], Any]
    #: Logical requests submitted / still unanswered, read after ``finish``.
    attempted: Callable[[], int]
    unanswered: Callable[[], int]


def build(workload: Workload, seed: int, scale: float) -> Session:
    """Build ``workload`` at ``scale`` of its calibrated size."""
    if workload.horizon_ms:
        return _build_churn(workload, seed, scale)
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.workload.generator import WorkloadConfig
    from repro.workload.runner import ClosedLoopRunner

    cluster = Cluster(
        ClusterConfig(
            protocol=workload.protocol,
            num_sites=workload.sites,
            num_objects=workload.objects,
            seed=seed,
            **workload.cluster,
        )
    )
    log = ClientLog()

    def on_final(status: Any) -> None:
        log.finished(
            cluster.engine.now,
            status.first_submit_time,
            status.spec.name,
            status.committed,
            status.spec.read_only,
        )

    cluster.add_spec_listener(on_final)
    runner = ClosedLoopRunner(
        cluster,
        WorkloadConfig(
            num_objects=workload.objects,
            num_sites=workload.sites,
            read_ops=2,
            write_ops=workload.write_ops,
            zipf_theta=workload.zipf_theta,
            readonly_fraction=workload.readonly_fraction,
        ),
        mpl=workload.mpl,
        transactions=max(workload.mpl, round(workload.transactions * scale)),
    )
    return Session(
        cluster=cluster,
        log=log,
        start=runner.start,
        finish=lambda: cluster.run(max_time=1e9),
        attempted=cluster.specs_submitted,
        unanswered=lambda: cluster.specs_submitted() - log.commits - log.failed,
    )


def _build_churn(workload: Workload, seed: int, scale: float) -> Session:
    """The E13 cell shape, composed from its public pieces so the bench
    keeps the ``Cluster`` (``run_churn_soak`` returns only a dict)."""
    from repro.core.cluster import Cluster
    from repro.sim.oracles import OracleConfig, SoakOracles
    from repro.workload.generator import WorkloadConfig
    from repro.workload.soak import SoakConfig, build_churn_plan, scaled_cluster_config

    horizon = max(workload.horizon_ms * scale, min(workload.horizon_ms, MIN_CHURN_HORIZON_MS))
    config = scaled_cluster_config(
        workload.protocol, workload.sites, seed, trace=True, trace_capacity=5_000
    )
    cluster = Cluster(config)
    soak = SoakConfig(
        sites=workload.sites,
        duration=horizon,
        mpl=workload.mpl,
        think_time=workload.think_ms,
        write_ops=workload.write_ops,
    )
    # Longest legitimate commit gap, as run_churn_soak derives it: detection
    # timeout plus a state-transfer round plus think time and backoff.
    liveness = 3.0 * config.fd_timeout + workload.think_ms + 5_000.0
    oracles = SoakOracles(
        cluster,
        OracleConfig(
            liveness_window=liveness,
            in_doubt_limit=liveness,
            check_interval=max(500.0, config.fd_interval / 2.0),
        ),
    )
    build_churn_plan(cluster, soak)  # schedules the crashes and recoveries
    log = ClientLog()
    clients = FailoverClients(
        cluster,
        WorkloadConfig(
            num_objects=config.num_objects,
            num_sites=workload.sites,
            read_ops=2,
            write_ops=workload.write_ops,
        ),
        mpl=workload.mpl,
        think_ms=workload.think_ms,
        log=log,
    )

    def start() -> None:
        oracles.arm()
        clients.start()

    def finish() -> Any:
        cluster.run_for(horizon)
        clients.stop()
        result = cluster.run(
            max_time=horizon + soak.tail_budget, stop_when=cluster.all_final, drain=True
        )
        oracles.disarm()
        oracles.check_final(result)
        return result

    return Session(
        cluster=cluster,
        log=log,
        start=start,
        finish=finish,
        attempted=lambda: clients.requests,
        unanswered=lambda: clients.unanswered,
    )
