"""Protocol tests for CBP (causal broadcast + implicit acknowledgments)."""


from repro.core.cbp_events import CbpCommitRequest, CbpNull
from repro.core.transaction import AbortReason, TransactionSpec


def test_single_update_commits_everywhere(cluster_factory, make_spec):
    cluster = cluster_factory("cbp")
    cluster.submit(make_spec("t1", 0, reads=["x0"], writes={"x0": 7}))
    result = cluster.run()
    assert result.ok and result.committed_specs == 1
    for replica in cluster.replicas:
        assert replica.store.read("x0").value == 7


def test_no_explicit_acknowledgment_messages(cluster_factory, make_spec):
    """The headline property: no per-write acks and no 2PC votes — only
    write sets, commit requests and (idle-time) null messages."""
    cluster = cluster_factory("cbp", num_sites=3)
    cluster.submit(make_spec("t1", 0, writes={"x0": 1, "x1": 2}))
    result = cluster.run()
    assert result.ok
    kinds = set(result.messages_by_kind)
    assert kinds <= {"cbp.write", "cbp.commit_request", "cbp.null"}
    assert result.messages_by_kind["cbp.write"] == 2  # one batched set, n-1
    assert result.messages_by_kind["cbp.commit_request"] == 2


def test_commit_waits_for_implicit_acks(cluster_factory, make_spec):
    """With heartbeats off and no other traffic, a lone update transaction
    cannot collect implicit acknowledgments and stays uncommitted — the
    drawback the paper calls out."""
    cluster = cluster_factory("cbp", cbp_heartbeat=None)
    cluster.submit(make_spec("t1", 0, writes={"x0": 1}))
    result = cluster.run(max_time=5000.0)
    assert result.incomplete_specs == 1
    assert result.committed_specs == 0


def test_traffic_from_other_sites_serves_as_implicit_ack(cluster_factory, make_spec):
    """Even without heartbeats, ordinary traffic from every site lets the
    transaction commit — acknowledgments are truly implicit."""
    cluster = cluster_factory("cbp", cbp_heartbeat=None, num_sites=3)
    t1 = cluster.submit(make_spec("t1", 0, writes={"x0": 1}), at=0.0)
    # Other sites each run their own (non-conflicting) update later, whose
    # messages causally follow t1's commit request.
    cluster.submit(make_spec("t2", 1, writes={"x1": 2}), at=10.0)
    cluster.submit(make_spec("t3", 2, writes={"x2": 3}), at=20.0)
    result = cluster.run(max_time=50000.0)
    # t1 commits thanks to t2/t3's messages; t3 itself gets echoes from the
    # earlier traffic of sites 0 and 1?  No — nothing follows t3, so the
    # last transactions may stall: assert precisely what the paper says.
    assert t1.committed


def test_heartbeats_bound_the_wait(cluster_factory, make_spec):
    cluster = cluster_factory("cbp", cbp_heartbeat=20.0)
    cluster.submit(make_spec("t1", 0, writes={"x0": 1}))
    result = cluster.run()
    assert result.ok and result.committed_specs == 1
    latency = result.metrics.commit_latency().mean
    assert latency < 100.0  # a couple of heartbeat intervals


def test_concurrent_conflicting_writers_resolved_by_nack(cluster_factory, make_spec):
    cluster = cluster_factory("cbp", retry_aborted=False)
    cluster.submit(make_spec("w1", 0, writes={"x0": "a"}), at=0.0)
    cluster.submit(make_spec("w2", 1, writes={"x0": "b"}), at=0.1)
    result = cluster.run()
    assert result.ok
    assert result.failed_specs >= 1
    assert result.metrics.aborts_by_reason[AbortReason.CONCURRENT_NACK] >= 1
    assert result.messages_by_kind.get("cbp.nack", 0) > 0


def test_mutual_concurrent_aborts_recover_via_retry(cluster_factory, make_spec):
    """Concurrent conflicting writers may BOTH be NACKed (each home has
    already endorsed its own transaction, so each NACKs the other's — the
    paper: concurrent conflicting operations "will be aborted").  The
    client retry loop then serializes the reruns causally and both commit."""
    cluster = cluster_factory("cbp", retry_aborted=True, cbp_heartbeat=15.0)
    cluster.submit(make_spec("old", 0, writes={"x0": "a"}), at=0.0)
    cluster.submit(make_spec("young", 1, writes={"x0": "b"}), at=0.05)
    result = cluster.run()
    assert result.ok
    assert result.committed_specs == 2
    assert result.metrics.aborts_by_reason[AbortReason.CONCURRENT_NACK] >= 1


def test_causally_ordered_writers_both_commit(cluster_factory, make_spec):
    """Sequential (causally ordered) writers to the same key never NACK."""
    cluster = cluster_factory("cbp", retry_aborted=False, cbp_heartbeat=10.0)
    cluster.submit(make_spec("w1", 0, writes={"x0": "a"}), at=0.0)
    cluster.submit(make_spec("w2", 1, writes={"x0": "b"}), at=500.0)
    result = cluster.run()
    assert result.ok
    assert result.committed_specs == 2
    assert result.messages_by_kind.get("cbp.nack", 0) == 0
    for replica in cluster.replicas:
        assert replica.store.read("x0").value == "b"


def test_read_only_never_aborts_and_sends_nothing(cluster_factory, make_spec):
    cluster = cluster_factory("cbp", cbp_heartbeat=None)
    r1 = cluster.submit(make_spec("r1", 2, reads=["x0", "x3"]))
    result = cluster.run(max_time=1000.0)
    assert r1.committed
    assert result.metrics.readonly_abort_count() == 0
    protocol_msgs = {
        k: v for k, v in result.messages_by_kind.items() if k.startswith("cbp.")
    }
    assert protocol_msgs.get("cbp.write", 0) == 0
    assert protocol_msgs.get("cbp.commit_request", 0) == 0


def test_per_op_mode_commits_and_preserves_1sr(make_spec):
    from tests.conftest import quick_cluster
    from repro.workload import WorkloadConfig
    from repro.workload.runner import run_standard_mix

    cluster = quick_cluster("cbp", cbp_per_op=True, num_objects=8, seed=23)
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=8, num_sites=3, read_ops=2, write_ops=3, zipf_theta=0.6),
        transactions=25,
        mpl=5,
    )
    assert result.ok
    # Per-op mode sends one cbp.write per operation.
    committed_updates = result.metrics.committed_update_count()
    assert result.messages_by_kind["cbp.write"] >= committed_updates * 3 * 2


def test_nack_never_arrives_for_committed_transaction(cluster_factory):
    """Runs a contended workload; the ProtocolInvariantError inside the
    replica would fire if the endorsement rule were broken."""
    from repro.workload import WorkloadConfig
    from repro.workload.runner import run_standard_mix

    cluster = cluster_factory("cbp", num_objects=6, seed=31)
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=6, num_sites=3, read_ops=1, write_ops=2, zipf_theta=0.9),
        transactions=40,
        mpl=8,
    )
    assert result.ok


def test_vector_clocks_exposed_to_protocol(cluster_factory, make_spec):
    cluster = cluster_factory("cbp")
    cluster.submit(make_spec("t1", 0, writes={"x0": 1}))
    cluster.run()
    # The causal layer's clock advanced at every site.
    for causal in cluster.causals:
        assert causal.clock[0] >= 2  # write set + commit request


def test_update_takes_longer_than_rbp_without_traffic(make_spec):
    """CBP's commit latency is heartbeat-bound when idle; RBP's is
    round-trip-bound.  Sanity-check the relationship the paper predicts
    for a quiet system."""
    from tests.conftest import quick_cluster

    rbp = quick_cluster("rbp", seed=3)
    rbp.submit(make_spec("t1", 0, writes={"x0": 1}))
    rbp_latency = rbp.run().metrics.commit_latency().mean

    cbp = quick_cluster("cbp", seed=3, cbp_heartbeat=50.0)
    cbp.submit(make_spec("t1", 0, writes={"x0": 1}))
    cbp_latency = cbp.run().metrics.commit_latency().mean
    assert cbp_latency > rbp_latency


def test_protocol_state_round_trips_through_export(cluster_factory, make_spec):
    """The in-flight books a state transfer ships must survive the
    export/adopt round trip wholesale: per-transaction state, killed
    tombstones, and the lock holders (in the donor's grant order)."""
    cluster = cluster_factory("cbp", num_sites=3)
    cluster.submit(make_spec("T1", 0, writes={"x0": 1, "x1": 2}))
    donor = cluster.replicas[0]
    for _ in range(1000):
        if donor._live:
            break
        cluster.run_for(0.1)
    assert donor._live, "write never went in flight"
    exported = donor.export_protocol_state()
    # Adopt replaces the rejoiner's own (possibly stale) books wholesale.
    rejoiner = cluster.replicas[2]
    rejoiner.adopt_protocol_state(exported)
    assert set(rejoiner._live) == set(donor._live)
    for tx_id, state in donor._live.items():
        adopted = rejoiner._live[tx_id]
        assert adopted.writes == state.writes
        assert adopted.home == state.home
        assert adopted.priority == tuple(state.priority)
        assert adopted.granted == state.granted
        assert adopted.echoes == state.echoes
        assert adopted.cr_entry == state.cr_entry
    assert rejoiner.export_protocol_state()["dead"] == exported["dead"]


def test_adopt_reaps_states_whose_home_left_the_view(cluster_factory, make_spec):
    """The export races the next view change: a state whose home was
    evicted between export and adopt was killed at every surviving site
    by the view change the rejoiner never saw.  Adoption must reap it,
    or its locks wedge the keys forever (a churn-soak liveness bug)."""
    cluster = cluster_factory("cbp", num_sites=3)
    cluster.submit(make_spec("T1", 1, writes={"x0": 1}))
    donor = cluster.replicas[0]
    for _ in range(1000):
        if donor._live:
            break
        cluster.run_for(0.1)
    exported = donor.export_protocol_state()
    rejoiner = cluster.replicas[2]
    rejoiner.view_members = [0, 2]  # home site 1 evicted meanwhile
    rejoiner.adopt_protocol_state(exported)
    assert "T1" not in rejoiner._live
    assert not rejoiner.locks.queued("x0")


def test_a_killed_transaction_is_remembered_until_every_site_is_past_its_nack(
    cluster_factory, make_spec
):
    """A NACK kills a transaction everywhere and leaves a tombstone that
    drops any late message naming it; the tombstone retires once every
    site has been heard from with a clock past the NACK.  A commit leaves
    none."""
    cluster = cluster_factory("cbp", retry_aborted=False)
    cluster.submit(make_spec("w1", 0, writes={"x0": "a"}), at=0.0)
    cluster.submit(make_spec("w2", 1, writes={"x0": "b"}), at=0.1)
    tombstones_seen = set()
    while cluster.engine.now < 200.0:
        cluster.run_for(0.5)
        for replica in cluster.replicas:
            for tx_id, killed in replica._tombstones.items():
                tombstones_seen.add(tx_id)
                assert killed.echoes.keys() < set(range(3))  # not yet heard from all
    result = cluster.run()
    assert result.ok and result.metrics.aborts >= 1
    assert tombstones_seen
    assert all(not replica._tombstones for replica in cluster.replicas)


# -- null messages: the implicit acknowledgments a site owes ---------------------


def record_broadcasts(cluster):
    """Per site, the (time, payload type) of every CBP broadcast it makes."""
    sent = [[] for _ in cluster.replicas]
    for replica in cluster.replicas:
        broadcast = replica._broadcast

        def wrapped(payload, replica=replica, broadcast=broadcast):
            sent[replica.site].append((replica.now, type(payload)))
            return broadcast(payload)

        replica._broadcast = wrapped
    return sent


def null_times(sent, site):
    return [at for at, kind in sent[site] if kind is CbpNull]


def test_a_busy_closed_loop_commits_within_one_heartbeat():
    """Under load every site broadcasts right after each tick, so nulls
    must not be skipped for a broadcast that predates the commit request it
    would acknowledge: a commit waits one period, not two."""
    from tests.conftest import quick_cluster
    from repro.workload import WorkloadConfig
    from repro.workload.runner import run_standard_mix

    period = 20.0
    cluster = quick_cluster("cbp", num_sites=4, num_objects=64, cbp_heartbeat=period, seed=5)
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=64, num_sites=4, read_ops=2, write_ops=2),
        transactions=120,
        mpl=4,
    )
    assert result.ok
    assert result.metrics.commit_latency(read_only=False).p50 <= 1.25 * period


def test_an_idle_cluster_sends_no_nulls(cluster_factory, make_spec):
    cluster = cluster_factory("cbp", cbp_heartbeat=20.0)
    sent = record_broadcasts(cluster)
    cluster.submit(make_spec("t1", 0, writes={"x0": 1}))
    assert cluster.run().committed_specs == 1
    last_commit = cluster.engine.now
    cluster.run_for(1000.0)
    assert all(at <= last_commit for site in range(3) for at in null_times(sent, site))


def test_a_broadcast_before_a_commit_request_does_not_acknowledge_it(
    cluster_factory, make_spec
):
    """Site 1 broadcasts its own transaction just after a tick and then
    delivers site 0's commit request: it still owes an echo and sends a
    null at its very next tick."""
    cluster = cluster_factory("cbp", cbp_heartbeat=20.0)
    sent = record_broadcasts(cluster)
    delivered = []
    causal = cluster.causals[1]
    deliver = causal._deliver

    def on_deliver(message, envelope):
        if type(envelope.payload) is CbpCommitRequest and message.sender == 0:
            delivered.append(cluster.engine.now)
        deliver(message, envelope)

    causal.set_deliver(on_deliver)
    cluster.submit(make_spec("t2", 1, writes={"x2": 2}), at=20.5)
    t1 = cluster.submit(make_spec("t1", 0, writes={"x1": 1}), at=21.0)
    cluster.run()
    (cr_delivered,) = delivered
    assert any(20.0 < at < cr_delivered for at, _ in sent[1])
    assert 40.0 in null_times(sent, 1)
    assert t1.committed and t1.last_attempt.commit_time < 45.0


def test_a_view_change_with_work_in_flight_is_echoed_again(cluster_factory, make_spec):
    """A member that already paid its echo for an in-flight transaction
    echoes again at its next tick after a view change: a rejoiner that
    adopted the transaction may not have heard the first one."""
    cluster = cluster_factory("cbp", cbp_heartbeat=20.0)
    sent = record_broadcasts(cluster)
    cluster.submit(make_spec("t1", 0, writes={"x0": 1}), at=1.0)
    member = cluster.replicas[1]
    while not null_times(sent, 1):
        cluster.run_for(0.05)
    assert "t1#1" in member._live
    member.on_view_change(list(member.view_members), True)
    cluster.run_for(100.0)
    assert null_times(sent, 1) == [20.0, 40.0]


def test_a_rejoiner_echoes_what_it_adopted():
    """A transaction broadcast while site 3 is in its state transfer reaches
    site 3 only in the donor's books: no delivery there puts it in site 3's
    debt, yet every member waits on site 3's echo for it."""
    from repro.core.cluster import Cluster, ClusterConfig

    cluster = Cluster(
        ClusterConfig(
            protocol="cbp", num_sites=4, num_objects=16, seed=17, cbp_heartbeat=20.0,
            enable_failure_detector=True, fd_interval=20.0, fd_timeout=80.0, relay=True,
        )
    )
    sent = record_broadcasts(cluster)
    cluster.crash_site(3, at=10.0)
    cluster.run_for(1000.0)
    cluster.recover_site(3)
    agent = cluster.recovery_agents[3]
    while not agent.requested:
        cluster.run_for(0.5)
    during = cluster.submit(
        TransactionSpec.make("during", 0, read_keys=[], writes={"x0": 1}),
        at=cluster.engine.now,
    )
    result = cluster.run(max_time=20_000.0)
    assert agent.transfers_completed == 1
    assert during.committed and result.converged
    assert any(kind is CbpNull and at > 1000.0 for at, kind in sent[3])


def test_a_departed_home_is_killed_alike_and_its_tombstone_retires():
    """The home crashes while its transaction waits for implicit
    acknowledgments.  Nulls come every 400 ms, the detector drops the home
    within ~100 ms, so the view change reaches every survivor before any
    echo does: each kills the transaction with a tombstone at the commit
    request's clock entry (``_home_done``), and the tombstone retires once
    the recovered home is heard from past it."""
    from repro.core.cluster import Cluster, ClusterConfig

    cluster = Cluster(
        ClusterConfig(
            protocol="cbp", num_sites=4, num_objects=16, seed=5, cbp_heartbeat=400.0,
            enable_failure_detector=True, fd_interval=20.0, fd_timeout=80.0, relay=True,
        )
    )
    orphan = cluster.submit(
        TransactionSpec.make("orphan", 0, read_keys=[], writes={"x0": 9}), at=1.0
    )
    cluster.crash_site(0, at=5.0)
    survivors = cluster.replicas[1:]
    cluster.run_for(4.0)
    assert all("orphan#1" in r._live for r in survivors)
    while any(0 in r.view_member_set for r in survivors):
        cluster.run_for(5.0)
    killed = ["orphan#1" in r._tombstones for r in survivors]
    committed = [r.store.read("x0").value == 9 for r in survivors]
    assert all(killed) or all(committed)
    assert all(killed), "the view change should reach every survivor before any echo"
    cluster.recover_site(0, at=cluster.engine.now + 200.0)
    later = cluster.submit(
        TransactionSpec.make("later", 1, read_keys=["x0"], writes={"x1": 3}),
        at=cluster.engine.now + 1_000.0,
    )
    result = cluster.run(max_time=cluster.engine.now + 5_000.0)
    assert later.committed
    assert all("orphan#1" not in r._tombstones for r in cluster.replicas)
    assert result.serialization.ok and result.converged
