"""Unit tests for the churn scenario engine (E13)."""

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.sim.churn import ChurnSchedule


def churn_cluster(num_sites=7, seed=11, **overrides):
    defaults = dict(
        protocol="rbp",
        num_sites=num_sites,
        num_objects=16,
        seed=seed,
        enable_failure_detector=True,
        fd_interval=20.0,
        fd_timeout=80.0,
        relay=True,
    )
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def test_requires_failure_detector():
    cluster = churn_cluster(enable_failure_detector=False)
    with pytest.raises(ValueError, match="failure detector"):
        ChurnSchedule(cluster)


def test_default_victims_spare_the_coordinator():
    churn = ChurnSchedule(churn_cluster(num_sites=5))
    assert churn.default_victims() == [1, 2, 3, 4]


def test_max_concurrent_down_preserves_quorum():
    assert ChurnSchedule(churn_cluster(num_sites=5)).max_concurrent_down == 2
    assert ChurnSchedule(churn_cluster(num_sites=6)).max_concurrent_down == 2
    assert ChurnSchedule(churn_cluster(num_sites=7)).max_concurrent_down == 3


def test_rolling_restart_declares_paired_events():
    churn = ChurnSchedule(churn_cluster())
    end = churn.rolling_restart(start=1_000.0, victims=(1, 2, 3))
    crashes = [e for e in churn.plan if e[1] == "crash"]
    recoveries = [e for e in churn.plan if e[1] == "recover"]
    assert [site for _, _, site in crashes] == [1, 2, 3]
    assert [site for _, _, site in recoveries] == [1, 2, 3]
    for (crash_at, _, site), (recover_at, _, rsite) in zip(crashes, recoveries):
        assert site == rsite
        assert recover_at > crash_at
        # Detectability contract: downtime comfortably above fd_timeout.
        assert recover_at - crash_at >= 2.0 * 80.0
    assert end >= recoveries[-1][0]


def test_rolling_restart_is_sequential():
    """At most one site down at a time: each recovery precedes the next
    crash."""
    churn = ChurnSchedule(churn_cluster())
    churn.rolling_restart(start=500.0, victims=(1, 2, 3, 4))
    events = sorted(churn.plan)
    down = set()
    for _, action, site in events:
        if action == "crash":
            down.add(site)
        elif action == "recover":
            down.discard(site)
        assert len(down) <= 1


def test_cascade_respects_quorum_cap():
    churn = ChurnSchedule(churn_cluster(num_sites=5))  # max 2 down
    with pytest.raises(ValueError, match="quorum"):
        churn.cascade(at=1_000.0, victims=(1, 2, 3))


def test_cascade_recovers_in_crash_order():
    churn = ChurnSchedule(churn_cluster(num_sites=9))
    end = churn.cascade(at=2_000.0, victims=(3, 5, 7))
    crashes = [(t, s) for t, a, s in churn.plan if a == "crash"]
    recoveries = [(t, s) for t, a, s in churn.plan if a == "recover"]
    assert [s for _, s in crashes] == [3, 5, 7]
    assert [s for _, s in recoveries] == [3, 5, 7]
    assert [t for t, _ in recoveries] == sorted(t for t, _ in recoveries)
    assert end == max(t for t, _ in recoveries)


def test_overlapping_crash_rejected_at_declaration():
    churn = ChurnSchedule(churn_cluster())
    churn.rolling_restart(start=1_000.0, victims=(1,))
    crash_at, _, _ = churn.plan[0]
    with pytest.raises(ValueError, match="already down"):
        churn._crash(1, crash_at + 1.0)


def test_concurrent_crashes_beyond_quorum_rejected():
    churn = ChurnSchedule(churn_cluster(num_sites=5))  # max 2 down
    churn._crash(1, 100.0)
    churn._crash(2, 110.0)
    with pytest.raises(ValueError, match="quorum"):
        churn._crash(3, 120.0)


def test_recover_without_crash_rejected():
    churn = ChurnSchedule(churn_cluster())
    with pytest.raises(ValueError, match="preceding crash"):
        churn._recover(1, 500.0)


def test_plan_is_a_pure_function_of_the_seed():
    plans = []
    for _ in range(2):
        churn = ChurnSchedule(churn_cluster(seed=77))
        churn.rolling_restart(start=1_000.0, victims=(1, 2, 3))
        churn.cascade(at=6_000.0, victims=(4, 5))
        plans.append(list(churn.plan))
    assert plans[0] == plans[1]


def test_different_seeds_draw_different_plans():
    def plan_for(seed):
        churn = ChurnSchedule(churn_cluster(seed=seed))
        churn.rolling_restart(start=1_000.0, victims=(1, 2, 3))
        return list(churn.plan)

    assert plan_for(1) != plan_for(2)


def test_churn_plan_actually_drives_the_cluster():
    cluster = churn_cluster(num_sites=5, seed=13)
    churn = ChurnSchedule(cluster)
    churn.rolling_restart(start=200.0, victims=(4,), downtime=(300.0, 300.0))
    cluster.run_for(2_000.0)
    assert [e.action for e in churn.faults.events()] == ["crash", "recover"]
    assert all(r.alive for r in cluster.replicas)
