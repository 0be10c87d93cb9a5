"""Tests for the protocol wire-event definitions."""

import dataclasses

from repro.baselines.p2p_events import P2pDecision, P2pPrepare, P2pVote, P2pWrite, P2pWriteAck
from repro.core.abp_events import AbpCommitRequest, AbpWriteSet
from repro.core.cbp_events import CbpCommitRequest, CbpNack, CbpNull, CbpWriteSet
from repro.core.rbp_events import RbpAbort, RbpCommitRequest, RbpVote, RbpWrite, RbpWriteAck
from repro.core.transaction import priority_of

ALL_EVENTS = [
    RbpWrite("T#1", 0, "x", 1, (0.0, 0, "T")),
    RbpWriteAck("T#1", "x", 1, True),
    RbpCommitRequest("T#1", 0, 0b11),
    RbpVote("T#1", 1, True),
    RbpAbort("T#1"),
    CbpWriteSet("T#1", 0, (("x", 1),), (0.0, 0, "T"), True),
    CbpCommitRequest("T#1", 0),
    CbpNack("T#1", 1, "conflict"),
    CbpNull(0),
    AbpCommitRequest("T#1", 0, (("x", 0),), (("x", 1),), ("x",)),
    AbpWriteSet("T#1", 0, (("x", 1),)),
    P2pWrite("T#1", "x", 1, (0.0, 0, "T")),
    P2pWriteAck("T#1", "x", 1, True),
    P2pPrepare("T#1"),
    P2pVote("T#1", 1, True),
    P2pDecision("T#1", True),
]


def test_every_event_has_namespaced_kind():
    for event in ALL_EVENTS:
        assert "." in event.kind, event
        prefix = event.kind.split(".")[0]
        assert prefix in ("rbp", "cbp", "abp", "p2p"), event


def test_kinds_are_unique_per_type():
    kinds = [event.kind for event in ALL_EVENTS]
    assert len(kinds) == len(set(kinds))


def test_kind_prefix_matches_protocol_class_name():
    for event in ALL_EVENTS:
        class_prefix = type(event).__name__[:3].lower()
        assert event.kind.startswith(class_prefix)


def test_all_events_are_dataclasses():
    for event in ALL_EVENTS:
        assert dataclasses.is_dataclass(event)


def test_priority_of():
    write = RbpWrite("T#1", 0, "x", 1, (1.0, 2, "T"))
    assert priority_of(write) == (1.0, 2, "T")
    assert priority_of(P2pPrepare("T#1")) is None


def test_payloads_carry_enough_to_route():
    """Every broadcast payload that the home must collect replies for
    carries the home site id."""
    assert RbpWrite("T#1", 3, "x", 1, ()).home == 3
    assert RbpCommitRequest("T#1", 3, 0b1000).home == 3
    assert CbpWriteSet("T#1", 3, (), (), True).home == 3
    assert CbpCommitRequest("T#1", 3).home == 3
    assert AbpCommitRequest("T#1", 3, (), (), ()).home == 3
