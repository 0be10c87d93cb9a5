"""Protocol tests for CBP (causal broadcast + implicit acknowledgments)."""


from repro.core.transaction import AbortReason


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
    export/adopt round trip wholesale: per-transaction state, finished
    and dead sets, and the lock holders (in the donor's grant order)."""
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
    assert rejoiner._finished == donor._finished
    assert rejoiner._dead == donor._dead


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
