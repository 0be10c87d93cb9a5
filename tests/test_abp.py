"""Protocol tests for ABP (atomic broadcast + certification, no acks)."""

import pytest

from repro.core.transaction import AbortReason


@pytest.mark.parametrize("variant", ["bundled", "shipped"])
def test_single_update_commits_everywhere(make_spec, variant):
    from tests.conftest import quick_cluster

    cluster = quick_cluster("abp", abp_variant=variant)
    cluster.submit(make_spec("t1", 0, reads=["x0"], writes={"x0": 7}))
    result = cluster.run()
    assert result.ok and result.committed_specs == 1
    for replica in cluster.replicas:
        assert replica.store.read("x0").value == 7


def test_no_acknowledgment_messages_at_all(make_spec):
    """The paper's headline: commit requests + ordering traffic only.  The
    sequencer (site 0) broadcasts its own request; any other home forwards
    it to the sequencer first, which broadcasts it numbered."""
    from tests.conftest import quick_cluster

    for home, kinds in ((0, {"abp.commit_request"}), (1, {"abp.commit_request", "abcast.forward"})):
        cluster = quick_cluster("abp", num_sites=3)
        cluster.submit(make_spec("t1", home, writes={"x0": 1, "x1": 2}))
        result = cluster.run()
        assert result.ok
        assert set(result.messages_by_kind) == kinds
        assert result.messages_by_kind["abp.commit_request"] == 2  # n-1
        assert result.messages_by_kind.get("abcast.forward", 0) == (home != 0)


def test_shipped_variant_sends_writes_causally(make_spec):
    from tests.conftest import quick_cluster

    cluster = quick_cluster("abp", abp_variant="shipped", num_sites=3)
    cluster.submit(make_spec("t1", 0, writes={"x0": 1}))
    result = cluster.run()
    assert result.ok
    assert result.messages_by_kind["abp.write"] == 2
    assert result.messages_by_kind["abp.commit_request"] == 2


def test_certification_aborts_stale_reader(make_spec):
    """T2 reads x0, then T1's write to x0 certifies first: T2 must fail
    certification (its read version is stale) — deterministically at every
    site, with no votes."""
    from tests.conftest import quick_cluster

    cluster = quick_cluster("abp", retry_aborted=False, num_sites=3)
    t1 = cluster.submit(make_spec("t1", 0, reads=["x0"], writes={"x0": "new"}), at=0.0)
    t2 = cluster.submit(make_spec("t2", 1, reads=["x0"], writes={"x1": "stale"}), at=0.1)
    # Until every site has certified both requests: the run stops once the
    # stores agree, and the aborted T2 writes nothing.
    result = cluster.run(
        stop_when=lambda: all(
            r.certified_commits + r.certified_aborts == 2 for r in cluster.replicas
        )
    )
    assert result.ok
    statuses = [t1.committed, t2.committed]
    assert statuses.count(True) == 1
    assert result.metrics.aborts_by_reason[AbortReason.CERTIFICATION] == 1
    # Certification decisions are identical at every site.
    aborts = {r.certified_aborts for r in cluster.replicas}
    commits = {r.certified_commits for r in cluster.replicas}
    assert len(aborts) == 1 and len(commits) == 1


def test_write_skew_prevented(make_spec):
    """T1 reads x0 writes x1; T2 reads x1 writes x0 — certification must
    abort one of them (the 1SR cycle the paper's proofs exclude)."""
    from tests.conftest import quick_cluster

    cluster = quick_cluster("abp", retry_aborted=False)
    t1 = cluster.submit(make_spec("t1", 0, reads=["x0"], writes={"x1": "a"}), at=0.0)
    t2 = cluster.submit(make_spec("t2", 1, reads=["x1"], writes={"x0": "b"}), at=0.1)
    result = cluster.run()
    assert result.ok
    committed = [t1.committed, t2.committed]
    assert committed.count(True) == 1


def test_blind_concurrent_writers_both_commit_in_order(make_spec):
    """Writers that read nothing never fail certification; the total order
    resolves their conflict and every replica installs in that order."""
    from tests.conftest import quick_cluster

    cluster = quick_cluster("abp", retry_aborted=False)
    cluster.submit(make_spec("w1", 0, writes={"x0": "a"}), at=0.0)
    cluster.submit(make_spec("w2", 1, writes={"x0": "b"}), at=0.1)
    result = cluster.run()
    assert result.ok
    assert result.committed_specs == 2
    finals = {r.store.read("x0").value for r in cluster.replicas}
    assert len(finals) == 1  # same winner everywhere


@pytest.mark.parametrize("mode", ["sequencer", "token"])
def test_total_order_modes_agree_on_outcome(make_spec, mode):
    from tests.conftest import quick_cluster
    from repro.workload import WorkloadConfig
    from repro.workload.runner import run_standard_mix

    cluster = quick_cluster("abp", abp_order_mode=mode, num_objects=8, seed=19)
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=8, num_sites=3, read_ops=2, write_ops=2, zipf_theta=0.7),
        transactions=30,
        mpl=6,
    )
    assert result.ok
    assert result.committed_specs == 30


def test_read_only_commits_locally(make_spec):
    from tests.conftest import quick_cluster

    cluster = quick_cluster("abp")
    r1 = cluster.submit(make_spec("r1", 1, reads=["x0", "x1"]))
    result = cluster.run(max_time=1000.0)
    assert r1.committed
    assert result.messages_by_kind.get("abp.commit_request", 0) == 0


def test_retry_after_certification_abort_succeeds(make_spec):
    from tests.conftest import quick_cluster

    cluster = quick_cluster("abp", retry_aborted=True)
    cluster.submit(make_spec("t1", 0, reads=["x0"], writes={"x0": "a"}), at=0.0)
    cluster.submit(make_spec("t2", 1, reads=["x0"], writes={"x0": "b"}), at=0.1)
    result = cluster.run()
    assert result.ok
    assert result.committed_specs == 2


def test_order_indexes_contiguous_across_sites(make_spec):
    from tests.conftest import quick_cluster

    cluster = quick_cluster("abp", num_sites=4)
    for n in range(6):
        cluster.submit(make_spec(f"t{n}", n % 4, writes={f"x{n}": n}), at=float(n))
    result = cluster.run()
    assert result.ok
    assert {r._expected_index for r in cluster.replicas} == {6}


def test_invalid_variant_rejected():
    from tests.conftest import quick_cluster

    with pytest.raises(ValueError):
        quick_cluster("abp", abp_variant="telepathic")


def test_locked_variant_gates_readers(make_spec):
    """In the locked variant a pre-shipped write blocks local readers
    until certification, so a reader that would have read stale data under
    'bundled' reads the committed value instead."""
    from tests.conftest import quick_cluster

    cluster = quick_cluster("abp", abp_variant="locked", num_sites=3)
    cluster.submit(make_spec("w", 0, writes={"x0": "fresh"}), at=0.0)
    # A read-only transaction at another site lands while the write set is
    # delivered but not yet certified there.
    cluster.submit(make_spec("r", 1, reads=["x0"]), at=1.2)
    result = cluster.run()
    assert result.ok
    record = next(r for r in cluster.recorder.held() if r.tx.startswith("r"))
    # Whichever way the race went, the read is a committed version; under
    # the locked variant the typical outcome is the fresh one.
    assert dict(record.reads)["x0"] in (0, 1)


def test_locked_variant_reduces_certification_aborts():
    from tests.conftest import quick_cluster
    from repro.workload import WorkloadConfig
    from repro.workload.runner import run_standard_mix

    aborts = {}
    for variant in ("bundled", "locked"):
        cluster = quick_cluster(
            "abp", abp_variant=variant, num_objects=16, seed=13, max_attempts=60
        )
        result = run_standard_mix(
            cluster,
            WorkloadConfig(
                num_objects=16, num_sites=3, read_ops=2, write_ops=2, zipf_theta=0.9
            ),
            transactions=50,
            mpl=8,
            max_time=1_000_000,
        )
        assert result.ok
        aborts[variant] = result.metrics.aborts
    assert aborts["locked"] <= aborts["bundled"]


def test_locked_variant_leaves_no_lock_residue(make_spec):
    from tests.conftest import quick_cluster
    from repro.analysis.audit import assert_clean

    cluster = quick_cluster("abp", abp_variant="locked", retry_aborted=True)
    cluster.submit(make_spec("a", 0, reads=["x0"], writes={"x0": 1}), at=0.0)
    cluster.submit(make_spec("b", 1, reads=["x0"], writes={"x0": 2}), at=0.1)
    result = cluster.run()
    assert result.ok
    cluster.run_for(200.0)
    assert_clean(cluster, strict_wal=False)


def test_shipped_variant_exports_preshipped_write_sets():
    """A write set delivered causally before the export, whose commit
    request orders after it, is unreachable for a rejoiner (the causal
    fast-forward skips it) — it must travel with the protocol state."""
    from tests.conftest import quick_cluster

    cluster = quick_cluster("abp", abp_variant="shipped")
    donor = cluster.replicas[0]
    donor._live["T9"] = {"x0": 5}
    state = donor.export_protocol_state()
    assert state == {"shipped": (("T9", (("x0", 5),)),)}
    rejoiner = cluster.replicas[1]
    rejoiner.adopt_protocol_state(state)
    assert rejoiner._live["T9"] == {"x0": 5}
    # Adoption never clobbers a write set already delivered locally.
    other = cluster.replicas[2]
    other._live["T9"] = {"x0": 7}
    other.adopt_protocol_state(state)
    assert other._live["T9"] == {"x0": 7}


def test_bundled_variant_ships_no_protocol_state():
    from tests.conftest import quick_cluster

    cluster = quick_cluster("abp", abp_variant="bundled")
    assert cluster.replicas[0].export_protocol_state() is None


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: a quorumless ABP view orders and commits its own requests",
)
def test_a_home_isolated_in_a_minority_decides_nothing_until_the_heal():
    """ABP, 4 sites, shipped variant: home 3 forwards T's commit request to
    the sequencer and is cut off into a singleton view half a hop later,
    with T's write set live at the home.  A quorumless view may decide nothing, so T stays
    open (``Replica._quorum_lost`` waits, ``_rejudge`` re-checks nothing)
    until the heal, then gets an answer, and 1SR and convergence hold.

    What happens instead: the singleton view makes the home its own
    sequencer, which re-forwards T's request to itself, orders it and
    commits T at t=180, when the view lands.  The heal's state transfer then replaces the home's store
    with the majority's, which never saw T, so a commit the client was told
    of is lost everywhere, and neither the 1SR nor the convergence check
    sees it."""
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.core.transaction import TransactionSpec
    from repro.net.latency import FixedLatency
    from repro.sim.faults import FaultSchedule

    cluster = Cluster(ClusterConfig(
        protocol="abp", num_sites=4, num_objects=8, seed=11, abp_variant="shipped",
        enable_failure_detector=True, fd_interval=20.0, fd_timeout=80.0,
        latency=FixedLatency(1.0),
    ))
    FaultSchedule(cluster).partition([[0, 1, 2], [3]], at=100.5).heal(at=1000.0)
    t = cluster.submit(
        TransactionSpec.make("T", 3, read_keys=["x0"], writes={"x0": 1}), at=100.0
    )
    cluster.run(max_time=999.0)
    assert not cluster.replicas[3].has_quorum
    assert not t.final
    result = cluster.run(max_time=100_000.0, stop_when=cluster.await_specs(1))
    assert t.final
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    if t.committed:
        assert all(replica.store.read("x0").value == 1 for replica in cluster.replicas)
