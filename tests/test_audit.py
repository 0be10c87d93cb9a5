"""Tests for the post-run cluster auditor."""

import pytest

from repro.analysis.audit import assert_clean, audit_cluster
from repro.baselines import p2p_2pc
from repro.core import causal_protocol, reliable_protocol
from repro.core.cluster import Cluster, ClusterConfig
from repro.core.rbp_events import RbpDecisionQuery
from repro.core.tally import Tally
from repro.core.transaction import TransactionSpec
from repro.db.locks import LockMode
from repro.sim.rng import RngRegistry
from repro.workload import WorkloadConfig
from repro.workload.runner import run_standard_mix


def run_clean_cluster(protocol, **overrides):
    cluster = Cluster(
        ClusterConfig(
            **{
                **dict(protocol=protocol, num_sites=3, num_objects=16, seed=61),
                **overrides,
            }
        )
    )
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=16, num_sites=3, read_ops=2, write_ops=2),
        transactions=20,
        mpl=4,
    )
    assert result.ok
    cluster.run_for(200.0)  # drain in-flight cleanup traffic
    return cluster


@pytest.mark.parametrize("protocol", ["rbp", "cbp", "abp", "p2p"])
def test_clean_run_audits_clean(protocol):
    cluster = run_clean_cluster(protocol)
    findings = audit_cluster(cluster)
    assert findings == [], "\n".join(map(str, findings))
    assert_clean(cluster)  # no raise


def test_audit_detects_lock_leak():
    cluster = run_clean_cluster("rbp")
    cluster.replicas[1].locks.try_acquire("ghost", "x0", LockMode.EXCLUSIVE)
    findings = audit_cluster(cluster)
    assert any(f.category == "lock-leak" for f in findings)
    with pytest.raises(AssertionError, match="lock-leak"):
        assert_clean(cluster)


GHOST = "ghost#1"


#: protocol -> a ``_live`` record held under every residue label.
GHOSTS = {
    "rbp": lambda: reliable_protocol._TxRecord(
        frozenset({0, 1, 2}),
        home=1,
        writes={"x0": 1},
        votes=Tally(),
        request_seen=True,
        voted_yes=True,
        heard=0.0,
        rounds={"x0": Tally()},
        unsent=[("x1", 2)],
    ),
    "cbp": lambda: causal_protocol._TxState(GHOST, 1, (0.0, 1, "ghost")),
    "abp": lambda: {"x0": 1},
    "p2p": lambda: p2p_2pc._TxRecord(
        (0.0, 1, "ghost"),
        writes={"x0": 1},
        unsent=[("x1", 2)],
        round_key="x0",
        votes=Tally({0: True}),
    ),
}


def plant_ghost(replica, protocol):
    replica._live[GHOST] = GHOSTS[protocol]()
    if protocol == "rbp":
        # The termination seam keeps its own books: an open query, a waiter.
        replica.termination.hand_over(GHOST)
        replica.termination.on_query(RbpDecisionQuery(GHOST, 1, 1))


def test_audit_detects_protocol_leak():
    for protocol in GHOSTS:
        cluster = run_clean_cluster(protocol)
        replica = cluster.replicas[0]
        assert not any(replica.in_flight().values())
        plant_ghost(replica, protocol)
        labels = sorted(replica.in_flight())
        assert set(labels) >= set(replica.residue)
        assert labels and all(replica.in_flight()[label] == [GHOST] for label in labels)
        leaks = [f for f in audit_cluster(cluster) if f.category == "protocol-leak"]
        assert [f.detail for f in leaks] == [f"{label}: ['{GHOST}']" for label in labels]
        assert all(f.site == 0 for f in leaks)


def _contended_updates():
    """Deadlock victims chosen at a remote site: their homes learn the
    abort from the victim decision, mid write round."""
    cluster = Cluster(ClusterConfig(protocol="p2p", num_sites=5, num_objects=8, seed=0))
    rng = RngRegistry(0).stream("recipe")
    keys = [f"x{i}" for i in range(8)]
    for i in range(120):
        reads, writes = [rng.choice(keys)], None
        if rng.random() >= 0.3:
            writes = dict.fromkeys(rng.sample(keys, 2), i)
        cluster.submit(TransactionSpec.make(f"T{i}", rng.randrange(5), reads, writes), at=2.0 * i)
    return cluster


def _read_only():
    cluster = Cluster(ClusterConfig(protocol="p2p", num_sites=4, num_objects=8, seed=3))
    for i in range(50):
        cluster.submit(TransactionSpec.make(f"R{i}", i % 4, [f"x{i % 8}"]), at=float(i))
    return cluster


def _crashed_cohort():
    """Site 2 crashes holding T1's buffered write and rejoins much later."""
    cluster = Cluster(
        ClusterConfig(
            protocol="p2p",
            num_sites=4,
            num_objects=8,
            seed=3,
            enable_failure_detector=True,
            fd_interval=20,
            fd_timeout=80,
        )
    )
    cluster.submit(TransactionSpec.make("T1", 0, writes={"x0": 1, "x1": 1, "x2": 1}), at=0.0)
    cluster.crash_site(2, at=1.2)
    cluster.recover_site(2, at=600)
    return cluster


def test_p2p_ends_every_transaction_with_no_record_left():
    """Three ways the baseline used to strand per-transaction state: a home
    aborted by a remote deadlock-victim decision kept its open write round
    (and the armed timer), a read-only commit kept its priority, a crash
    kept the buffered writes."""
    for recipe in (_contended_updates, _read_only, _crashed_cohort):
        cluster = recipe()
        assert cluster.run().ok, recipe.__name__
        cluster.run_for(1500.0)  # past the rejoin; drains decisions still on the wire
        findings = audit_cluster(cluster)
        assert findings == [], recipe.__name__ + "\n" + "\n".join(map(str, findings))
        assert not any(replica._live for replica in cluster.replicas), recipe.__name__


def test_audit_detects_wal_mismatch():
    cluster = run_clean_cluster("rbp")
    replica = cluster.replicas[2]
    replica.store.install("x0", "phantom", "ghost")  # store diverges from WAL
    findings = audit_cluster(cluster)
    assert any(f.category in ("wal-mismatch", "convergence") for f in findings)


def test_audit_detects_divergence():
    cluster = run_clean_cluster("abp")
    cluster.replicas[0].store.install("x1", "rogue", "ghost")
    findings = audit_cluster(cluster, strict_wal=False)
    assert any(f.category == "convergence" for f in findings)


def test_audit_flags_truncated_trace():
    cluster = run_clean_cluster("rbp", trace=True)
    assert not cluster.trace.truncated
    assert audit_cluster(cluster) == []
    cluster.trace.capacity = len(cluster.trace)
    cluster.trace.emit(0.0, "auditor-test", "overflow")
    findings = audit_cluster(cluster)
    assert any(f.category == "trace-truncated" for f in findings)
    with pytest.raises(AssertionError, match="trace-truncated"):
        assert_clean(cluster)


def test_audit_flags_nonterminal_locals():
    from repro.core.transaction import Transaction

    cluster = run_clean_cluster("cbp")
    spec = TransactionSpec.make("zombie", 0, writes={"x0": 1})
    cluster.replicas[0].local["zombie#1"] = Transaction(spec, 1, 0.0, 0.0)
    findings = audit_cluster(cluster)
    assert any("zombie" in f.detail for f in findings)


def test_findings_render_readably():
    cluster = run_clean_cluster("rbp")
    cluster.replicas[1].locks.try_acquire("ghost", "x0", LockMode.EXCLUSIVE)
    finding = audit_cluster(cluster)[0]
    assert "site 1" in str(finding)
    assert "x0" in str(finding)
