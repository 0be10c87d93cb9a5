"""Cross-protocol equivalence on conflict-free workloads.

When transactions touch disjoint keys there is nothing for the protocols
to disagree about: every protocol must commit everything on the first
attempt and land every replica in the *identical, predictable* final
state.  This pins down the protocols' common semantics (the differences
measured elsewhere are purely about conflict handling and cost).
"""

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec

PROTOCOLS = ["rbp", "cbp", "abp", "p2p"]


def disjoint_workload(num_txs=24, sites=4):
    """Each transaction owns its own pair of keys: zero conflicts."""
    specs = []
    for n in range(num_txs):
        keys = [f"x{2 * n}", f"x{2 * n + 1}"]
        specs.append(
            TransactionSpec.make(
                f"T{n}",
                n % sites,
                read_keys=keys,
                writes={keys[0]: f"v{n}a", keys[1]: f"v{n}b"},
            )
        )
    return specs


def expected_state(specs):
    state = {}
    for spec in specs:
        state.update(spec.writes_dict())
    return state


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_conflict_free_workload_is_abort_free_and_predictable(protocol):
    specs = disjoint_workload()
    cluster = Cluster(
        ClusterConfig(protocol=protocol, num_sites=4, num_objects=48, seed=7)
    )
    for index, spec in enumerate(specs):
        cluster.submit(spec, at=index * 3.0)  # heavy overlap, no conflicts
    result = cluster.run(max_time=1_000_000)
    assert result.ok
    assert result.committed_specs == len(specs)
    assert result.metrics.aborts == 0  # zero conflicts => zero aborts
    final = expected_state(specs)
    for replica in cluster.replicas:
        for key, value in final.items():
            assert replica.store.read(key).value == value
            assert replica.store.read(key).version == 1


def test_all_protocols_agree_on_final_state():
    specs = disjoint_workload()
    final_states = {}
    for protocol in PROTOCOLS:
        cluster = Cluster(
            ClusterConfig(protocol=protocol, num_sites=4, num_objects=48, seed=7)
        )
        for index, spec in enumerate(specs):
            cluster.submit(spec, at=index * 3.0)
        result = cluster.run(max_time=1_000_000)
        assert result.ok
        final_states[protocol] = cluster.replicas[0].store.digest()
    assert len(set(final_states.values())) == 1


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_serial_single_key_counter(protocol):
    """A strictly sequential read-increment-write chain yields an exact
    counter value under every protocol — the no-lost-updates sanity core."""
    cluster = Cluster(ClusterConfig(protocol=protocol, num_sites=3, seed=8))
    increments = 10

    def submit_increment(n, at):
        def build():
            current = cluster.replicas[n % 3].store.read("x0").value
            cluster.submit(
                TransactionSpec.make(
                    f"inc{n}", n % 3, read_keys=["x0"], writes={"x0": current + 1}
                ),
                at=cluster.engine.now,
            )

        cluster.engine.schedule_at(at, build)

    for n in range(increments):
        submit_increment(n, at=n * 400.0)
    result = cluster.run(
        max_time=1_000_000, stop_when=cluster.await_specs(increments)
    )
    assert result.ok
    assert result.committed_specs == increments
    for replica in cluster.replicas:
        assert replica.store.read("x0").value == increments
