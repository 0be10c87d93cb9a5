"""Tests for matrix-clock stability tracking and uniform atomic delivery."""

from dataclasses import dataclass

from repro.broadcast.stability import StabilityTracker
from repro.broadcast.vector_clock import VectorClock


@dataclass
class Op:
    label: str
    kind: str = "op"


def test_stable_vector_is_min_of_rows():
    tracker = StabilityTracker(3, site=0)
    tracker.observe(0, VectorClock([5, 2, 0]))
    tracker.observe(1, VectorClock([3, 4, 1]))
    tracker.observe(2, VectorClock([4, 3, 2]))
    assert list(tracker.stable_vector()) == [3, 2, 0]


def test_rows_merge_monotonically():
    tracker = StabilityTracker(2, site=0)
    tracker.observe(1, VectorClock([3, 1]))
    tracker.observe(1, VectorClock([2, 5]))  # older in one entry
    assert list(tracker.row(1)) == [3, 5]


def test_is_stable():
    tracker = StabilityTracker(2, site=0)
    tracker.observe(0, VectorClock([4, 0]))
    tracker.observe(1, VectorClock([2, 0]))
    assert tracker.is_stable(0, 2)
    assert not tracker.is_stable(0, 3)


def test_advance_listener_fires_on_change_only():
    tracker = StabilityTracker(2, site=0)
    advances = []
    tracker.on_advance(lambda vec: advances.append(list(vec)))
    tracker.observe(0, VectorClock([1, 0]))
    assert advances == []  # row 1 still zero: min unchanged
    tracker.observe(1, VectorClock([1, 0]))
    assert advances == [[1, 0]]
    tracker.observe(1, VectorClock([1, 0]))  # no change
    assert advances == [[1, 0]]


def test_restrict_to_drops_departed_members():
    tracker = StabilityTracker(3, site=0)
    tracker.observe(0, VectorClock([5, 5, 5]))
    tracker.observe(1, VectorClock([5, 5, 5]))
    # Site 2 is silent and holds stability at zero...
    assert list(tracker.stable_vector()) == [0, 0, 0]
    # ...until a view change removes it.
    tracker.restrict_to([0, 1])
    assert list(tracker.stable_vector()) == [5, 5, 5]
    # Stability keeps advancing with the members' rows: site 2's last row
    # does not freeze the minimum at the view change.
    tracker.observe(0, VectorClock([9, 7, 5]))
    tracker.observe(1, VectorClock([8, 9, 5]))
    assert list(tracker.stable_vector()) == [8, 7, 5]


def test_uniform_total_order_waits_for_stability(harness_factory):
    """In uniform mode a lone ordered message is not delivered until every
    site's clock confirms receipt (carried by stability null messages)."""
    h = harness_factory(num_sites=3, stack="total", uniform=True)
    h.layers[0].broadcast(Op("solo"))
    # Shortly after the broadcast nothing is delivered anywhere (the data
    # needs one hop, the confirming clocks another).
    h.run(until=1.0)
    assert all(not h.delivered[site] for site in range(3))
    h.run(until=200.0)
    for site in range(3):
        ordered = [p.label for p, idx in h.delivered[site] if idx is not None]
        assert ordered == ["solo"]


def test_uniform_cluster_end_to_end():
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.workload import WorkloadConfig
    from repro.workload.runner import run_standard_mix

    plain = Cluster(ClusterConfig(protocol="abp", num_sites=4, seed=9))
    uniform = Cluster(ClusterConfig(protocol="abp", num_sites=4, seed=9, abp_uniform=True))
    results = {}
    for name, cluster in (("plain", plain), ("uniform", uniform)):
        results[name] = run_standard_mix(
            cluster, WorkloadConfig(num_sites=4), transactions=20, mpl=4
        )
        assert results[name].ok
        assert results[name].committed_specs == 20
    # Uniform delivery costs latency: it waits for global receipt.
    assert (
        results["uniform"].metrics.commit_latency(read_only=False).mean
        > results["plain"].metrics.commit_latency(read_only=False).mean
    )
