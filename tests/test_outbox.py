"""Unit tests for the swap-drain outbox and its one guarded flush timer."""

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.outbox import Outbox, by_destination


def test_one_timer_per_window_flushes_in_issue_order():
    engine = SimulationEngine()
    flushed = []
    outbox = Outbox(engine, lambda items: flushed.append((engine.now, items)), window=2.0)
    outbox.put("a")
    outbox.put("b")
    assert engine.pending_count() == 1 and len(outbox) == 2
    engine.run()
    assert flushed == [(2.0, ["a", "b"])]
    outbox.put("c")  # the next window arms its own timer
    assert engine.pending_count() == 1
    engine.run()
    assert flushed == [(2.0, ["a", "b"]), (4.0, ["c"])]


def test_reentrant_put_during_flush_lands_in_the_next_flush():
    engine = SimulationEngine()
    flushed = []

    def flush(items):
        flushed.append(list(items))
        if items == ["first"]:
            outbox.put("reentrant")  # e.g. a send delivered back synchronously

    outbox = Outbox(engine, flush)
    outbox.put("first")
    engine.run()
    assert flushed == [["first"], ["reentrant"]]


def test_clear_makes_an_armed_timer_a_noop():
    engine = SimulationEngine()
    outbox = Outbox(engine, lambda items: pytest.fail(f"flushed {items}"))
    outbox.put("doomed")
    outbox.clear()  # fail-stop crash
    engine.run()
    assert len(outbox) == 0
    # A put between the clear and the firing rides the timer already armed.
    flushed = []
    outbox = Outbox(engine, flushed.append, window=5.0)
    outbox.put("lost")
    outbox.clear()
    outbox.put("kept")
    assert engine.pending_count() == 1
    engine.run()
    assert flushed == [["kept"]]


def test_without_flush_callback_it_only_queues():
    engine = SimulationEngine()
    outbox = Outbox(engine)
    outbox.put(1)
    outbox.put(2)
    assert engine.pending_count() == 0
    assert outbox.drain() == [1, 2]
    assert outbox.drain() == []


def test_by_destination_sorts_destinations_and_keeps_issue_order():
    pairs = [(2, "a"), (0, "b"), (2, "c"), (1, "d"), (0, "e")]
    assert by_destination(pairs) == [(0, ["b", "e"]), (1, ["d"]), (2, ["a", "c"])]
