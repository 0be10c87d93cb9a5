"""Tests for the post-run cluster auditor."""

import pytest

from repro.analysis.audit import assert_clean, audit_cluster
from repro.baselines.p2p_2pc import _WriteRound
from repro.core.causal_protocol import _TxState
from repro.core.cluster import Cluster, ClusterConfig
from repro.core.events import RbpDecisionQuery
from repro.core.reliable_protocol import _TxRecord
from repro.core.tally import Tally
from repro.core.transaction import TransactionSpec
from repro.db.locks import LockMode
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


def _rbp_ghost(replica):
    replica._live[GHOST] = _TxRecord(
        home=1,
        writes={"x0": 1},
        votes=Tally(),
        request_seen=True,
        voted_yes=True,
        heard=0.0,
        rounds={"x0": Tally()},
        unsent=[("x1", 2)],
    )
    replica.termination.hand_over(GHOST)
    replica.termination.on_query(RbpDecisionQuery(GHOST, 1, 1))


def _cbp_ghost(replica):
    replica._states[GHOST] = _TxState(GHOST, 1, (0.0, 1, "ghost"))


def _abp_ghost(replica):
    replica._shipped[GHOST] = {"x0": 1}


def _p2p_ghost(replica):
    replica._buffered[GHOST] = {"x0": 1}
    replica._write_round[GHOST] = _WriteRound("x0")
    replica._write_queue[GHOST] = [("x1", 2)]
    replica._votes[GHOST] = Tally({0: True})


#: protocol -> plant one ghost transaction under every ``in_flight()`` label.
GHOSTS = {"rbp": _rbp_ghost, "cbp": _cbp_ghost, "abp": _abp_ghost, "p2p": _p2p_ghost}


def test_audit_detects_protocol_leak():
    for protocol, plant in GHOSTS.items():
        cluster = run_clean_cluster(protocol)
        replica = cluster.replicas[0]
        assert not any(replica.in_flight().values())
        plant(replica)
        labels = sorted(replica.in_flight())
        assert labels and all(replica.in_flight()[label] == [GHOST] for label in labels)
        leaks = [f for f in audit_cluster(cluster) if f.category == "protocol-leak"]
        assert [f.detail for f in leaks] == [f"{label}: ['{GHOST}']" for label in labels]
        assert all(f.site == 0 for f in leaks)


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
