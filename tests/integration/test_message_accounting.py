"""Integration: the analytical message-cost model (the paper's comparative
claims about acknowledgment elimination) measured exactly.

For one update transaction with w writes on an otherwise idle n-site
cluster (no heartbeats, crash-free, direct dissemination):

- p2p : w writes + w acks + prepare + votes + decision   = (2w+3)(n-1)
- RBP : w writes + w acks + commit request, all (n-1), plus the
        decentralized votes: every site broadcasts to n-1 others = n(n-1)
- CBP : 1 batched write set + 1 commit request            = 2(n-1)
- ABP : 1 commit request, broadcast numbered by the sequencer = n-1,
        plus 1 forward to the sequencer when the home is not it
"""

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec


def run_one_update(protocol, num_sites, writes, home=0, **overrides):
    config = dict(
        protocol=protocol,
        num_sites=num_sites,
        num_objects=16,
        seed=1,
        cbp_heartbeat=None,
        retry_aborted=False,
    )
    config.update(overrides)
    cluster = Cluster(ClusterConfig(**config))
    spec = TransactionSpec.make(
        "tx", home, writes={f"x{i}": i for i in range(writes)}
    )
    cluster.submit(spec)
    # Give CBP's implicit acks a nudge: after the update lands, every other
    # site broadcasts one unrelated transaction so echoes exist.
    if protocol == "cbp":
        for site in range(1, num_sites):
            cluster.submit(
                TransactionSpec.make(f"echo{site}", site, writes={f"x{10 + site}": 0}),
                at=200.0 * site,
            )
    result = cluster.run(max_time=500000)
    assert result.serialization.ok
    return cluster, result


@pytest.mark.parametrize("n,w", [(3, 1), (5, 2), (4, 3)])
def test_p2p_message_count(n, w):
    _, result = run_one_update("p2p", n, w)
    assert result.messages_total("p2p.") == (2 * w + 3) * (n - 1)


@pytest.mark.parametrize("n,w", [(3, 1), (5, 2), (4, 3)])
def test_rbp_message_count(n, w):
    _, result = run_one_update("rbp", n, w)
    expected = (2 * w + 1) * (n - 1) + n * (n - 1)
    assert result.messages_total("rbp.") == expected


@pytest.mark.parametrize("n", [3, 5])
def test_cbp_message_count_excluding_echo_traffic(n):
    cluster, result = run_one_update("cbp", n, 2)
    # Count only the first transaction's own messages: one batched write
    # set and one commit request, each to n-1 peers.  The echo helpers add
    # their own 2(n-1) each; subtract them by counting per-kind totals.
    total_updates = 1 + (n - 1)  # tx + one echo per other site
    assert result.messages_by_kind["cbp.write"] == total_updates * (n - 1)
    assert result.messages_by_kind["cbp.commit_request"] == total_updates * (n - 1)
    assert result.messages_by_kind.get("cbp.nack", 0) == 0
    # Zero acknowledgment messages of any sort:
    assert not any("ack" in kind for kind in result.messages_by_kind)


@pytest.mark.parametrize("n", [3, 5])
def test_abp_message_count(n):
    for home in (0, n - 1):  # the sequencer, and a site that forwards to it
        _, result = run_one_update("abp", n, 2, home=home)
        assert result.messages_by_kind["abp.commit_request"] == n - 1
        assert result.messages_by_kind.get("abcast.forward", 0) == (home != 0)
        assert not any("ack" in kind for kind in result.messages_by_kind)
        assert not any("vote" in kind for kind in result.messages_by_kind)


def test_protocol_ordering_of_total_cost():
    """The paper's qualitative ranking for a single update transaction:
    ABP <= CBP < p2p < RBP (RBP pays the quadratic decentralized votes)."""
    n, w = 5, 2
    totals = {}
    for protocol in ("rbp", "cbp", "abp", "p2p"):
        # ABP's home is not the sequencer, so its forward is priced too.
        cluster, result = run_one_update(protocol, n, w, home=int(protocol == "abp"))
        if protocol == "cbp":
            # isolate the measured transaction's share (echo helpers ran too)
            updates = 1 + (n - 1)
            totals[protocol] = result.messages_total("cbp.") // updates
        else:
            totals[protocol] = result.messages_total(f"{protocol}.") + (
                result.messages_by_kind.get("abcast.forward", 0)
            )
    assert totals["abp"] == (n - 1) + 1
    assert totals["abp"] <= totals["cbp"] < totals["p2p"] < totals["rbp"]


def test_readonly_transactions_send_zero_messages_every_protocol():
    for protocol in ("rbp", "cbp", "abp", "p2p"):
        cluster = Cluster(
            ClusterConfig(
                protocol=protocol, num_sites=4, seed=2, cbp_heartbeat=None
            )
        )
        ro = cluster.submit(TransactionSpec.make("ro", 1, read_keys=["x0", "x1"]))
        result = cluster.run(max_time=1000.0)
        assert ro.committed
        protocol_msgs = {
            k: v
            for k, v in result.messages_by_kind.items()
            if not k.startswith(("fd.", "membership", "abcast.token"))
        }
        assert protocol_msgs == {}, (protocol, protocol_msgs)
