"""Tests for message capture and sequence diagrams."""

from repro.analysis.sequence import (
    MessageCapture,
    attach_capture,
    message_matrix,
    render_sequence,
)
from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec


def captured_run(protocol="rbp", **overrides):
    cluster = Cluster(
        ClusterConfig(**{**dict(protocol=protocol, num_sites=3, seed=44), **overrides})
    )
    capture = attach_capture(cluster.network)
    cluster.submit(
        TransactionSpec.make("t1", 0, read_keys=["x0"], writes={"x0": 1})
    )
    result = cluster.run()
    assert result.ok
    return cluster, capture


def test_capture_records_delivered_messages():
    cluster, capture = captured_run()
    assert len(capture.messages) == cluster.network.stats.delivered
    kinds = {m.kind for m in capture.messages}
    assert "rbp.write" in kinds and "rbp.vote" in kinds


def test_filter_by_kind_and_window():
    cluster, capture = captured_run()
    writes = capture.filtered(kind_prefix="rbp.write")
    assert writes and all(m.kind.startswith("rbp.write") for m in writes)
    early = capture.filtered(end=0.5)
    assert all(m.time <= 0.5 for m in early)


def test_render_sequence_shows_flow():
    cluster, capture = captured_run()
    art = render_sequence(capture.messages)
    assert "rbp.write" in art
    assert "s0 ──" in art
    assert "─▶ s1" in art or "─▶ s2" in art


def test_render_sequence_empty():
    assert "no messages" in render_sequence([])


def test_render_elides_beyond_max_lines():
    cluster, capture = captured_run(num_sites=4)
    art = render_sequence(capture.messages, max_lines=3)
    assert "more messages elided" in art


def test_message_matrix_counts():
    cluster, capture = captured_run()
    matrix = message_matrix(capture.messages, 3)
    # The home (site 0) broadcast writes/commit to both peers.
    assert matrix[0][1] > 0 and matrix[0][2] > 0
    # Votes flow between the peers too (decentralized 2PC!).
    assert matrix[1][2] > 0 and matrix[2][1] > 0
    assert matrix[0][0] + matrix[1][1] + matrix[2][2] >= 0  # loopbacks counted


def test_capture_capacity_bound():
    capture = MessageCapture(capacity=2)
    for n in range(5):
        capture.record(float(n), 0, 1, "k")
    assert len(capture.messages) == 2


def test_sequence_matches_round_structure():
    """The captured first round is write -> acks -> commit -> votes."""
    cluster, capture = captured_run()
    kinds_in_order = [m.kind for m in sorted(capture.messages, key=lambda m: m.time)]
    protocol_kinds = [k for k in kinds_in_order if k.startswith("rbp.")]
    assert protocol_kinds.index("rbp.write") < protocol_kinds.index("rbp.write_ack")
    assert protocol_kinds.index("rbp.write_ack") < protocol_kinds.index(
        "rbp.commit_request"
    )
    assert protocol_kinds.index("rbp.commit_request") < len(protocol_kinds) - 1
