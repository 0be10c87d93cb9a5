"""Unit tests for the majority-quorum membership service."""

from repro.broadcast.failure_detector import FailureDetector
from repro.broadcast.membership import MembershipService, View
from repro.net.network import Network
from repro.net.router import ChannelRouter
from repro.net.transport import ReliableTransport
from repro.sim.engine import SimulationEngine


def build(num_sites=5, interval=10.0, timeout=35.0):
    engine = SimulationEngine()
    network = Network(engine, num_sites)
    detectors, services = [], []
    for site in range(num_sites):
        transport = ReliableTransport(engine, network, site)
        router = ChannelRouter(transport)
        detector = FailureDetector(
            engine, router, site, num_sites, interval=interval, timeout=timeout
        )
        service = MembershipService(engine, router, detector, site, num_sites)
        detectors.append(detector)
        services.append(service)
    return engine, network, detectors, services


def crash(engine, network, detectors, services, site, at):
    engine.schedule_at(at, network.set_site_up, site, False)
    engine.schedule_at(at, detectors[site].crash)
    engine.schedule_at(at, services[site].crash)


def test_initial_view_is_everyone():
    engine, network, detectors, services = build()
    view = services[0].view
    assert view.view_id == 0
    assert view.members == (0, 1, 2, 3, 4)
    assert view.has_quorum(5)


def test_view_excludes_crashed_site():
    engine, network, detectors, services = build()
    crash(engine, network, detectors, services, 3, at=50.0)
    engine.run(until=500.0)
    for site in (0, 1, 2, 4):
        assert services[site].view.members == (0, 1, 2, 4)
        assert services[site].view.view_id >= 1


def test_coordinator_failure_passes_leadership():
    engine, network, detectors, services = build()
    crash(engine, network, detectors, services, 0, at=50.0)
    engine.run(until=600.0)
    for site in (1, 2, 3, 4):
        assert services[site].view.members == (1, 2, 3, 4)
    assert services[1].i_am_coordinator()


def test_minority_partition_loses_primary_component():
    engine, network, detectors, services = build()
    engine.schedule(50.0, network.partitions.split, [[0, 1, 2], [3, 4]])
    engine.run(until=600.0)
    assert services[0].in_primary_component
    assert services[1].in_primary_component
    # The minority side cannot install a quorum view.
    assert not services[3].in_primary_component
    assert not services[4].in_primary_component


def test_listeners_fire_with_joined_set():
    engine, network, detectors, services = build()
    events = []
    services[0].add_listener(lambda view, joined: events.append((view.view_id, joined)))
    crash(engine, network, detectors, services, 4, at=50.0)
    engine.run(until=300.0)
    network.set_site_up(4, True)
    detectors[4].recover()
    services[4].recover()
    engine.run(until=900.0)
    assert any(4 in joined for _, joined in events)
    assert services[0].view.members == (0, 1, 2, 3, 4)
    assert services[4].view.members == (0, 1, 2, 3, 4)


def test_view_quorum_math():
    assert View(0, (0, 1, 2)).has_quorum(5)
    assert not View(0, (0, 1)).has_quorum(5)
    assert View(0, (0,)).has_quorum(1)


def test_stale_view_announcements_ignored():
    engine, network, detectors, services = build(num_sites=3)
    current = services[1].view
    stale = View(current.view_id - 1 if current.view_id else 0, (1,))
    # Deliver a stale announcement directly.
    from repro.broadcast.membership import ViewMessage

    services[1]._on_message(0, ViewMessage(stale))
    assert services[1].view == current


def test_view_id_collision_after_partition_resolves():
    """Regression: both sides of a partition advance their view counters
    independently; after healing, the stale side must not reject the
    coordinator's announcement forever (the join/resync path re-proposes
    past the collided counter)."""
    engine, network, detectors, services = build(num_sites=4)
    engine.schedule(50.0, network.partitions.split, [[0, 1, 2], [3]])
    engine.run(until=400.0)
    # Both sides have advanced independently.
    assert services[0].view.members == (0, 1, 2)
    assert services[3].view.members in ((3,), (0, 3), (0, 1, 3), (0, 2, 3))
    network.partitions.heal()
    engine.run(until=1500.0)
    final_views = {tuple(s.view.members) for s in services}
    assert final_views == {(0, 1, 2, 3)}
    ids = {s.view.view_id for s in services}
    assert len(ids) == 1


def test_join_request_is_proof_of_life():
    """Regression for the join-eviction race: the coordinator's stale
    suspicion of a joiner must be cleared by the JoinRequest itself.
    Without that, the joiner is admitted into view N but evicted again in
    view N+1 by the next suspicion-driven proposal — and every message
    multicast during the eviction window postdates the state transfer's
    clock cut, opening a permanent causal delivery gap."""
    from repro.broadcast.membership import JoinRequest

    engine, network, detectors, services = build()
    crash(engine, network, detectors, services, 4, at=50.0)
    engine.run(until=300.0)
    assert 4 in detectors[0].suspected
    assert 4 not in services[0].view.members
    # Deliver the join request directly, before site 4 has sent a single
    # heartbeat the coordinator could have heard.
    services[0]._on_message(4, JoinRequest(site=4, view_id=services[4].view.view_id))
    assert 4 not in detectors[0].suspected  # the request is proof of life
    assert 4 in services[0].view.members  # admitted...
    # ...and the next detector ticks do not evict the joiner again while
    # its silence clock is still inside the timeout.
    engine.run(until=engine.now + 20.0)
    assert 4 in services[0].view.members
