"""Tests for the message-based state-transfer recovery protocol."""

import dataclasses

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import AbortReason, TransactionSpec


def fault_cluster(protocol="rbp", **overrides):
    defaults = dict(
        protocol=protocol,
        num_sites=4,
        num_objects=16,
        seed=17,
        enable_failure_detector=True,
        fd_interval=20.0,
        fd_timeout=80.0,
        relay=True,  # agreement despite sender crash (DESIGN.md)
    )
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def spec(name, home, key, value):
    return TransactionSpec.make(name, home, read_keys=[key], writes={key: value})


def test_state_transfer_is_message_based():
    cluster = fault_cluster()
    cluster.crash_site(3, at=10.0)
    cluster.submit(spec("while_down", 0, "x0", "fresh"), at=500.0)
    cluster.run(max_time=10000)
    cluster.recover_site(3)
    result = cluster.run(max_time=60000)
    assert result.ok
    # The snapshot travelled as actual messages.
    assert result.messages_by_kind.get("recovery.request", 0) >= 1
    assert result.messages_by_kind.get("recovery.reply", 0) >= 1
    assert cluster.recovery_agents[3].transfers_completed == 1
    assert cluster.replicas[3].store.read("x0").value == "fresh"


def test_recovering_site_refuses_transactions():
    cluster = fault_cluster(retry_aborted=False)
    cluster.crash_site(3, at=10.0)
    cluster.run(max_time=1000)
    # Start recovery but submit before the transfer reply can possibly
    # arrive (same instant).
    cluster.recover_site(3)
    too_soon = cluster.submit(spec("too_soon", 3, "x0", 1), at=cluster.engine.now)
    result = cluster.run(max_time=60000)
    assert too_soon.last_outcome is AbortReason.SITE_FAILURE


def test_recovered_site_participates_again():
    cluster = fault_cluster()
    cluster.crash_site(2, at=10.0)
    cluster.run_for(2000)
    cluster.recover_site(2)
    cluster.run_for(2000)  # view rejoin + settle window + transfer
    assert not cluster.replicas[2].recovering
    post = cluster.submit(spec("post", 2, "x1", "back"), at=cluster.engine.now + 500.0)
    result = cluster.run(max_time=60000)
    assert result.ok
    assert post.committed
    for replica in cluster.replicas:
        assert replica.store.read("x1").value == "back"


@pytest.mark.parametrize("protocol", ["cbp", "abp"])
def test_broadcast_stack_fast_forward(protocol):
    """After recovery the causal/total layers resume cleanly: new updates
    from and to the recovered site commit and replicas converge."""
    cluster = fault_cluster(protocol=protocol, cbp_heartbeat=20.0)
    cluster.submit(spec("before", 0, "x0", "v0"), at=100.0)
    cluster.run(max_time=3000)
    cluster.crash_site(3)
    cluster.submit(spec("during", 1, "x1", "v1"), at=cluster.engine.now + 500.0)
    cluster.run(max_time=30000)
    cluster.recover_site(3)
    cluster.run(max_time=30000)
    after = cluster.submit(spec("after", 3, "x2", "v2"), at=cluster.engine.now + 500.0)
    toward = cluster.submit(spec("toward", 0, "x3", "v3"), at=cluster.engine.now + 600.0)
    result = cluster.run(max_time=120000)
    assert result.ok, result.serialization.explain()
    assert after.committed
    assert toward.committed
    assert cluster.replicas[3].store.read("x1").value == "v1"


def test_donor_must_be_in_primary_component():
    """A recovering site never clones from another recovering/minority
    site: the donor chosen is a primary-component member."""
    cluster = fault_cluster()
    cluster.crash_site(3, at=10.0)
    cluster.run_for(1000)
    cluster.recover_site(3)
    cluster.run_for(3000)
    served = [agent.transfers_served for agent in cluster.recovery_agents]
    assert sum(served) == 1
    donor_site = served.index(1)
    assert cluster.replicas[donor_site].has_quorum


def test_recovery_preserves_1sr_with_traffic_after_rejoin():
    cluster = fault_cluster(protocol="cbp", cbp_heartbeat=15.0)
    for n in range(4):
        cluster.submit(spec(f"pre{n}", n, f"x{n}", n), at=100.0 + n * 50.0)
    cluster.crash_site(1, at=600.0)
    for n in range(4):
        cluster.submit(
            spec(f"mid{n}", [0, 2, 3][n % 3], f"x{4 + n}", n), at=1500.0 + n * 50.0
        )
    cluster.recover_site(1, at=4000.0)
    for n in range(4):
        cluster.submit(spec(f"post{n}", n, f"x{8 + n}", n), at=6000.0 + n * 50.0)
    result = cluster.run(max_time=300000, stop_when=cluster.await_specs(12))
    assert result.ok, result.serialization.explain()
    assert result.committed_specs == 12


@pytest.mark.parametrize("fault", ["crash", "partition"])
def test_rbp_rejoiner_installs_a_transaction_decided_after_the_export(fault):
    """Site 3 rejoins while T writes 120 keys one round at a time, and T
    decides only after the donor exported: the snapshot lacks T, and site 3,
    outside T's electorate, received only the writes sent after it rejoined.
    It installs the rest from the donor's open record for T (a crashed site
    through the state transfer, a healed one through the in-place clone);
    with no such record it committed part of T and never converged."""
    cluster = fault_cluster(num_objects=120, seed=1, relay=False)
    if fault == "crash":
        cluster.crash_site(3, at=10.0)
        cluster.recover_site(3, at=400.0)
    else:
        cluster.engine.schedule_at(10.0, cluster.partition, [[0, 1, 2], [3]])
        cluster.engine.schedule_at(400.0, cluster.heal_partition)
    writes = {f"x{i}": 1 for i in range(120)}
    status = cluster.submit(TransactionSpec.make("T", 0, writes=writes), at=300.0)
    result = cluster.run(max_time=20_000, stop_when=cluster.await_specs(1))
    assert status.committed and status.attempts == 1
    # After the rejoin and the donor's 100 ms settle window.
    assert status.last_attempt.commit_time > 500.0
    assert result.converged and result.serialization.ok


def test_live_write_during_state_transfer_survives_snapshot_install():
    """Regression (found by the fault property test): a write committing in
    the window between the donor exporting its snapshot and the rejoiner
    installing it must not be rolled back by the install.

    With fault=(victim=1, crash_at=281, recovery_delay=1127) and a single
    write homed at site 0 submitted at t=1508, site 1 used to apply T0
    live mid-transfer and then clobber it with the (older) snapshot,
    leaving its store one version behind forever.  The site's router now
    holds protocol traffic while ``recovering`` and replays it after the
    install (see ``repro.core.recovery``).
    """
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=4,
            num_objects=12,
            seed=3,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            relay=True,
            max_attempts=30,
            retry_backoff=10.0,
            trace=True,
        )
    )
    cluster.crash_site(1, at=281.0)
    cluster.recover_site(1, at=281.0 + 1127.0)
    t0 = cluster.submit(
        TransactionSpec.make("T0", 0, read_keys=["x0"], writes={"x0": 0}), at=1508.0
    )
    result = cluster.run(max_time=300_000.0, stop_when=cluster.await_specs(1))
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    assert result.incomplete_specs == 0
    assert t0.committed
    # The hold actually engaged: site 1 replayed parked traffic.
    replays = [
        record
        for record in cluster.trace.records
        if record.kind == "recovery.replay"
    ]
    assert replays, "expected site 1 to defer deliveries during its transfer"


def _update(name, home, i, value):
    return TransactionSpec.make(
        name, home, read_keys=[f"x{i % 16}"], writes={f"x{(i + 1) % 16}": value}
    )


def _waves(*waves):
    """``(prefix, first_at, homes, count)`` per wave -> timed updates, 5 ms
    apart, homed round-robin over ``homes``."""
    return [
        (first_at + 5 * i, _update(f"{prefix}{i}", homes[i % len(homes)], i, f"{prefix}{i}"))
        for prefix, first_at, homes, count in waves
        for i in range(count)
    ]


def _blind_writes(count, first_at, gap):
    """``t0..`` homed round-robin over sites 0-2, ``t{i}`` writing ``x{i % 16}``."""
    return [
        (first_at + gap * i, TransactionSpec.make(f"t{i}", i % 3, writes={f"x{i % 16}": i}))
        for i in range(count)
    ]


EVERY_SITE, SURVIVORS = [0, 1, 2, 3], [0, 1, 3]
FAST_DETECTOR = dict(enable_failure_detector=True, fd_interval=20, fd_timeout=80)
#: config, (victim, its (crash at, recover at) pairs -- ``None``: never),
#: timed submissions.  Each fails on the tree before ``Process.every``, the
#: stack's ``export_state`` chain, or the router's hold of a site in state
#: transfer (the last five rows: a patch at the handler that forgot would
#: not do, since every protocol's traffic passes the one hold).
LIFECYCLE_RECIPES = {
    # The recovered site's deadlock sweep runs again: A and B deadlock at
    # site 1 behind C's write and a 10 ms sweep (not the 400 ms write
    # timeout) breaks the cycle.
    "p2p_sweep": (
        dict(protocol="p2p", num_objects=8, seed=3, **FAST_DETECTOR),
        (1, ((10, 300),)),
        [
            (1500, TransactionSpec.make("C", 1, writes={"x5": 1})),
            (1501, TransactionSpec.make("A", 1, read_keys=["x0", "x5"], writes={"x1": 1})),
            (1501, TransactionSpec.make("B", 1, read_keys=["x1", "x5"], writes={"x0": 1})),
        ],
    ),
    # The stability tick stops with its site: no null messages numbered
    # while down for every survivor to wait on after the recovery.
    "uniform_tick": (
        dict(protocol="abp", seed=5, abp_uniform=True),
        (2, ((100, 500),)),
        _waves(("a", 0, EVERY_SITE, 8), ("c", 1200, EVERY_SITE, 8)),
    ),
    # Batched ABP under static membership: group-committed order
    # assignments and coalesced traffic straddle the transfer, and the
    # rejoiner still catches up from the same reply an unbatched one gets.
    "batched_abp": (
        dict(protocol="abp", seed=5, batching=0.0),
        (2, ((100, 400),)),
        _waves(("a", 0, EVERY_SITE, 12), ("b", 120, SURVIVORS, 12), ("c", 900, EVERY_SITE, 12)),
    ),
    # Traffic reaching the rejoiner before its snapshot waits for it: ABP's
    # causal layer no longer delivers against the pre-crash clock (which
    # the adopted one then rewinds, holding messages back for good).
    "abp_transfer_hold": (
        dict(protocol="abp", seed=0), (3, ((50, 300),)), _blind_writes(24, 390, 0.5)
    ),
    # ... nor does P2P install decisions the snapshot then erases.
    "p2p_transfer_hold": (
        dict(protocol="p2p", seed=0), (3, ((50, 300),)), _blind_writes(24, 390, 0.5)
    ),
    # ... nor does CBP wedge when the downtime carried no null message to
    # mask the stale clock.
    "cbp_transfer_hold": (
        dict(protocol="cbp", seed=0, cbp_heartbeat=1000.0),
        (3, ((50, 300),)),
        _blind_writes(24, 390, 0.5),
    ),
    # A crash mid-transfer loses the transfer with the site: the next
    # recovery asks for a snapshot afresh.
    "crash_mid_transfer": (
        dict(protocol="rbp", seed=0, **FAST_DETECTOR),
        (3, ((50, 300), (350, 700))),
        _blind_writes(12, 2000, 5),
    ),
    # Uniform ABP takes stability over the view's members: a permanently
    # crashed member's last clock row no longer pins it.
    "uniform_permanent_crash": (
        dict(protocol="abp", seed=5, abp_uniform=True, **FAST_DETECTOR),
        (2, ((100, None),)),
        _waves(("a", 0, [0, 1, 0, 3], 8), ("c", 600, [0, 1, 1, 3], 8)),
    ),
}


@pytest.mark.parametrize("recipe", sorted(LIFECYCLE_RECIPES))
def test_site_lifecycle_survives_crash_and_recovery(recipe):
    config, (victim, lifecycle), submissions = LIFECYCLE_RECIPES[recipe]
    cluster = Cluster(ClusterConfig(**{"num_sites": 4, "num_objects": 16, **config}))
    for crash_at, recover_at in lifecycle:
        cluster.crash_site(victim, at=crash_at)
        if recover_at is not None:
            cluster.recover_site(victim, at=recover_at)
    for at, tx in submissions:
        cluster.submit(tx, at=at)
    result = cluster.run(max_time=20_000, stop_when=cluster.await_specs(len(submissions)))
    assert result.incomplete_specs == 0 and result.failed_specs == 0
    assert result.ok, result.serialization.explain()
    assert all(causal.pending_count() == 0 for causal in cluster.causals)
    assert not any(replica.recovering for replica in cluster.replicas)
    if recipe == "p2p_sweep":
        assert result.metrics.deadlocks_detected == 1
        assert cluster.replicas[victim].timeouts_fired == 0


def test_reply_rejects_a_stack_key_it_cannot_carry():
    """A layer exporting a key ``StateTransferReply`` has no field for fails
    at the donor, loudly, instead of being dropped on the way."""
    agent = fault_cluster("cbp").recovery_agents[0]
    export = agent.stack.export_state
    agent.stack.export_state = lambda: {**export(), "token_position": 3}
    with pytest.raises(TypeError, match="token_position"):
        agent._send_reply(1)


def _reply_shape(protocol, batching):
    """The fields a rejoiner's ``StateTransferReply`` carries (those not
    ``None``) and its protocol-state keys."""
    cluster = Cluster(
        ClusterConfig(
            protocol=protocol, num_sites=4, num_objects=16, seed=5, batching=batching
        )
    )
    replies = []
    stack = cluster.recovery_agents[2].stack
    adopt = stack.adopt_state
    stack.adopt_state = lambda reply: (replies.append(reply), adopt(reply))
    cluster.crash_site(2, at=100.0)
    cluster.recover_site(2, at=400.0)
    submissions = _waves(
        ("a", 0, EVERY_SITE, 8), ("b", 120, SURVIVORS, 8), ("c", 900, EVERY_SITE, 8)
    )
    for at, tx in submissions:
        cluster.submit(tx, at=at)
    result = cluster.run(max_time=20_000, stop_when=cluster.await_specs(len(submissions)))
    assert result.ok, result.serialization.explain()
    (reply,) = replies
    fields = {
        field.name
        for field in dataclasses.fields(reply)
        if getattr(reply, field.name) is not None
    }
    return fields, set(reply.protocol_state or ())


@pytest.mark.parametrize("protocol", ["cbp", "abp"])
def test_batched_reply_carries_the_unbatched_fields(protocol):
    """Batching changes how traffic is packed, not what a state transfer
    ships: the batched rejoiner's reply has the unbatched one's fields and
    protocol keys."""
    fields, keys = _reply_shape(protocol, None)
    assert "causal_clock" in fields
    assert _reply_shape(protocol, 2.0) == (fields, keys)
