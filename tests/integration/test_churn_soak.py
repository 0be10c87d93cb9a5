"""E13 churn-soak integration cells: pinned counterexamples and the
sweep-layer digest contract.

The three pinned cells are shrunk reproducers from the churn property
test (``tests/properties/test_churn_props.py``).  Each one caught a
distinct protocol bug the first time the soak engine ran, and each stays
pinned so the bug cannot quietly return:

- **cbp / 10 sites / seed 1 — join-eviction race.**  A recovering site's
  JoinRequest admitted it into view N while the coordinator's failure
  detector still suspected it; the next suspicion-driven proposal
  evicted it in view N+1.  Messages multicast during the eviction window
  postdated the state transfer's clock cut — a permanent causal-delivery
  gap (hundreds of messages held back transitively).  Fixed by treating
  the join request as proof of life (``FailureDetector.refresh``).
- **cbp / 20 sites / seed 3 — orphan writer.**  CBP group-commits via
  implicit acknowledgments, so cohorts commit without the initiator; a
  home crashing before ``record_commit`` left installed versions with no
  recorded writer (a 1SR bookkeeping violation).  Fixed by cohort-side
  ``record_commit_provisional`` (ABP and P2P apply paths included).
- **p2p / 20 sites / seed 3 — all-members vote wedge.**  2PC tallies and
  ROWA write rounds waited on *every* view member with no re-evaluation
  on view change, so a voter crashing post-prepare wedged the home
  forever.  Fixed by re-judging them at every view change (now
  ``PointToPointReplica._rejudge``, P2P's answer to the one view-change walk).

Two more cells guard the RBP join-view defect (ROADMAP item 1a, closed):
a transaction in 2PC while a join view installed committed at the sites
still in the old view and aborted at the others, whose tally waited on the
joiner's NO; its retry then committed too.  **rbp / 12 sites / seed 564**
is the property test's own configuration; the 4-site recipe (one crash and
recovery under a steady update stream) runs RBP at four seeds that all
failed before the fix, and the other three protocols at seed 3, since all
four share the view-change walk.  Each RBP tally now waits only on the
sites its transaction was written to (its electorate).
"""

import pytest

from repro.analysis.experiment import run_sweep
from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec
from repro.workload.soak import SoakConfig, e13_smoke_cell, e13_tiny_cell, run_churn_soak


def test_cbp_join_eviction_race_cell():
    metrics = e13_smoke_cell("cbp", 10, 1)
    assert metrics["serializable"] == 1.0
    assert metrics["converged"] == 1.0
    assert metrics["unanswered"] == 0.0
    assert metrics["crashes"] == metrics["recoveries"] >= 3.0


def test_cbp_orphan_writer_cell():
    metrics = e13_smoke_cell("cbp", 20, 3)
    assert metrics["serializable"] == 1.0
    assert metrics["converged"] == 1.0
    assert metrics["unanswered"] == 0.0


def test_p2p_vote_wedge_cell():
    metrics = e13_smoke_cell("p2p", 20, 3)
    assert metrics["serializable"] == 1.0
    assert metrics["converged"] == 1.0
    assert metrics["unanswered"] == 0.0


def test_rbp_join_view_divergence_cell():
    run_churn_soak(
        "rbp", SoakConfig(sites=12, duration=8_000.0, trace=True, trace_capacity=2_000), 564
    )


@pytest.mark.parametrize(
    "protocol, seed",
    [("rbp", 1), ("rbp", 3), ("rbp", 4), ("rbp", 5), ("cbp", 3), ("abp", 3), ("p2p", 3)],
)
def test_rbp_join_view_divergence_at_four_sites(protocol, seed):
    """Site 3 crashes and rejoins mid-stream.  Before the fix, RBP's t231
    ended up installed twice (attempts 1 and 4), breaking 1SR and
    convergence."""
    cluster = Cluster(ClusterConfig(
        protocol=protocol, num_sites=4, num_objects=32, seed=seed,
        enable_failure_detector=True, fd_interval=20, fd_timeout=80,
    ))
    cluster.crash_site(3, at=50)
    cluster.recover_site(3, at=303)
    for i in range(400):
        cluster.submit(
            TransactionSpec.make(
                f"t{i}", i % 3, read_keys=[f"x{7 * i % 32}"], writes={f"x{(5 * i + 3) % 32}": i}
            ),
            at=1.3 * i,
        )
    result = cluster.run(max_time=100_000, stop_when=cluster.await_specs(400))
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged


def test_e13_sharded_sweep_digest_matches_serial():
    """The order-canonical merge contract over the churn-soak metric
    shape: ``jobs`` may change wall-clock, never a bit of the digest."""
    kwargs = dict(
        name="e13-digest",
        scenario=e13_tiny_cell,
        parameters=(5, 8),
        protocols=("rbp", "cbp", "abp", "p2p"),
        seeds=(1, 2),
    )
    serial = run_sweep(**kwargs, jobs=1)
    sharded = run_sweep(**kwargs, jobs=4)
    assert sharded.digest() == serial.digest()
    assert sharded.points == serial.points
