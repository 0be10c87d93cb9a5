"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    RUN_BUDGET,
    RUN_EXHAUSTED,
    RUN_HORIZON,
    RUN_PREDICATE,
    RUN_STOPPED,
    SimulationEngine,
    SimulationError,
)


def test_events_fire_in_time_order(engine):
    fired = []
    engine.schedule(5.0, fired.append, "b")
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(9.0, fired.append, "c")
    engine.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order(engine):
    fired = []
    for tag in ("first", "second", "third"):
        engine.schedule(3.0, fired.append, tag)
    engine.run()
    assert fired == ["first", "second", "third"]


def test_now_advances_to_event_time(engine):
    seen = []
    engine.schedule(2.5, lambda: seen.append(engine.now))
    engine.schedule(7.0, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [2.5, 7.0]


def test_run_until_stops_clock_at_bound(engine):
    fired = []
    engine.schedule(4.0, fired.append, "early")
    engine.schedule(100.0, fired.append, "late")
    engine.run(until=10.0)
    assert fired == ["early"]
    assert engine.now == 10.0


def test_events_scheduled_during_run_execute(engine):
    fired = []

    def outer():
        engine.schedule(1.0, fired.append, "inner")

    engine.schedule(1.0, outer)
    engine.run()
    assert fired == ["inner"]


def test_cancelled_event_does_not_fire(engine):
    fired = []
    handle = engine.schedule(1.0, fired.append, "x")
    handle.cancel()
    engine.run()
    assert fired == []
    assert not handle.pending


def test_cancel_after_fire_is_noop(engine):
    fired = []
    handle = engine.schedule(1.0, fired.append, "x")
    engine.run()
    handle.cancel()
    assert fired == ["x"]


def test_negative_delay_rejected(engine):
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected(engine):
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(1.0, lambda: None)


def test_stop_from_callback(engine):
    fired = []
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(2.0, engine.stop)
    engine.schedule(3.0, fired.append, "b")
    engine.run()
    assert fired == ["a"]


def test_stop_when_predicate(engine):
    fired = []
    for i in range(10):
        engine.schedule(float(i + 1), fired.append, i)
    engine.run(stop_when=lambda: len(fired) >= 4)
    assert fired == [0, 1, 2, 3]


def test_max_events_budget(engine):
    fired = []
    for i in range(10):
        engine.schedule(float(i + 1), fired.append, i)
    engine.run(max_events=3)
    assert len(fired) == 3


def test_step_returns_false_when_empty(engine):
    assert engine.step() is False
    engine.schedule(1.0, lambda: None)
    assert engine.step() is True
    assert engine.step() is False


def test_peek_time_skips_cancelled(engine):
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    handle.cancel()
    assert engine.peek_time() == 2.0


def test_pending_count(engine):
    handles = [engine.schedule(float(i + 1), lambda: None) for i in range(5)]
    handles[0].cancel()
    assert engine.pending_count() == 4


def test_engine_not_reentrant(engine):
    def reenter():
        with pytest.raises(SimulationError):
            engine.run()

    engine.schedule(1.0, reenter)
    engine.run()


def test_events_processed_counter(engine):
    for i in range(4):
        engine.schedule(float(i), lambda: None)
    engine.run()
    assert engine.events_processed == 4


def test_run_reports_stop_reason(engine):
    engine.schedule(1.0, lambda: None)
    engine.schedule(50.0, lambda: None)
    assert engine.run(until=10.0) == RUN_HORIZON  # event at 50 still queued
    assert engine.run(until=60.0) == RUN_EXHAUSTED
    assert engine.run(until=100.0) == RUN_EXHAUSTED  # idle to horizon
    assert engine.now == 100.0


def test_run_reason_distinguishes_idle_horizon_from_exhaustion(engine):
    """peek_time() is None both when idle-until-horizon consumed everything
    and when events remain beyond the bound; run()'s reason is the only
    reliable discriminator."""
    engine.schedule(5.0, lambda: None)
    reason = engine.run(until=10.0)
    assert reason == RUN_EXHAUSTED and engine.peek_time() is None
    engine.schedule_at(100.0, lambda: None)
    reason = engine.run(until=20.0)
    assert reason == RUN_HORIZON
    assert engine.peek_time() == 100.0


def test_run_reason_predicate_budget_stop(engine):
    fired = []
    for i in range(10):
        engine.schedule(float(i + 1), fired.append, i)
    assert engine.run(stop_when=lambda: len(fired) >= 2) == RUN_PREDICATE
    assert engine.run(max_events=3) == RUN_BUDGET
    engine.schedule(0.0, engine.stop)
    assert engine.run() == RUN_STOPPED


def test_pending_count_is_o1_and_correct_under_churn(engine):
    handles = [engine.schedule(float(i + 1), lambda: None) for i in range(100)]
    for handle in handles[::2]:
        handle.cancel()
    assert engine.pending_count() == 50
    handles[1].cancel()
    handles[1].cancel()  # double cancel must not double count
    assert engine.pending_count() == 49
    engine.run()
    assert engine.pending_count() == 0


def test_compaction_bounds_heap_under_cancel_churn(engine):
    """ARQ-style churn: arm timers, cancel nearly all before they fire.
    Without compaction the heap holds every cancelled entry until its
    deadline surfaces; with it, garbage stays below the compact threshold."""
    live = []

    def churn(rounds):
        for handle in live:
            handle.cancel()
        live.clear()
        if rounds <= 0:
            return
        for i in range(20):
            live.append(engine.schedule(1000.0 + i, lambda: None))
        engine.schedule(1.0, churn, rounds - 1)

    engine.schedule(0.0, churn, 500)  # 10k timers armed, all cancelled
    engine.run()
    assert engine.compactions > 0
    # Bounded: nowhere near the 10k cancelled entries, and pending is clean.
    assert engine.heap_size() <= 2 * engine.compact_min
    assert engine.pending_count() == 0


def _trace_run(engine):
    """A mixed schedule/cancel workload recording (time, tag) firings."""
    fired = []

    def work(round_no, cancel_these):
        for handle in cancel_these:
            handle.cancel()
        fired.append((engine.now, round_no))
        if round_no >= 40:
            return
        doomed = [
            engine.schedule(5.0 + (round_no * 7 + k) % 11, lambda: None)
            for k in range(6)
        ]
        engine.schedule(1.0 + (round_no % 3) * 0.5, work, round_no + 1, doomed)
        engine.schedule(0.25, fired.append, (engine.now, f"tick{round_no}"))

    engine.schedule(0.0, work, 0, [])
    engine.run()
    return fired


def test_compaction_is_invisible_to_event_ordering():
    """The same workload with compaction enabled and disabled must fire the
    same events at the same times in the same order."""
    compacting = SimulationEngine()
    compacting.compact_min = 4  # compact aggressively
    plain = SimulationEngine()
    plain.compact_min = 10**9  # never compact
    trace_a = _trace_run(compacting)
    trace_b = _trace_run(plain)
    assert trace_a == trace_b
    assert compacting.compactions > 0
    assert plain.compactions == 0


def test_reschedule_defers_pending_timer_in_place(engine):
    fired = []
    handle = engine.schedule(5.0, fired.append, "early")
    heap_before = engine.heap_size()
    again = engine.reschedule(handle, 9.0, fired.append, "late")
    assert again is handle  # reused, not reallocated
    assert engine.heap_size() == heap_before  # no extra heap entry
    engine.run()
    assert fired == ["late"]
    assert engine.now == 9.0


def test_reschedule_fresh_when_dead_or_earlier(engine):
    fired = []
    # None / fired / cancelled handles fall back to a fresh schedule.
    handle = engine.reschedule(None, 1.0, fired.append, "a")
    engine.run()
    assert fired == ["a"]
    replacement = engine.reschedule(handle, 1.0, fired.append, "b")
    assert replacement is not handle
    # An earlier deadline cannot reuse the heap position: cancel + push.
    final = engine.reschedule(replacement, 0.5, fired.append, "c")
    assert final is not replacement and not replacement.pending
    engine.run()
    assert fired == ["a", "c"]


def test_reschedule_deferred_timer_tiebreak_is_deterministic(engine):
    """A deferred timer is re-sorted with a fresh sequence number when its
    old position surfaces, so at an exactly shared deadline it fires after
    events that were directly scheduled there — deterministically."""
    fired = []
    handle = engine.schedule(2.0, fired.append, "timer")
    engine.reschedule(handle, 6.0, fired.append, "timer")
    engine.schedule(6.0, fired.append, "other")
    engine.run()
    assert fired == ["other", "timer"]


def test_zero_delay_event_runs_after_current(engine):
    order = []

    def first():
        order.append("first-start")
        engine.schedule(0.0, order.append, "zero")
        order.append("first-end")

    engine.schedule(1.0, first)
    engine.run()
    assert order == ["first-start", "first-end", "zero"]


def test_compaction_inside_callback_keeps_run_on_the_live_heap(engine):
    """A cancel storm inside a callback compacts the heap run() is reading:
    survivors, and events scheduled after the compaction by that same
    callback, all fire, in (time, schedule) order."""
    engine.compact_min = 4
    fired = []
    doomed = [engine.schedule(50.0 + i, fired.append, f"doomed{i}") for i in range(8)]
    engine.schedule(3.0, fired.append, "survivor-a")
    engine.schedule(3.0, fired.append, "survivor-b")

    def storm():
        for handle in doomed:
            handle.cancel()
        assert engine.compactions > 0
        engine.schedule(1.0, fired.append, "after-early")
        engine.schedule(2.0, fired.append, "after-same-time")

    engine.schedule(1.0, storm)
    assert engine.run() == RUN_EXHAUSTED
    assert fired == ["after-early", "survivor-a", "survivor-b", "after-same-time"]
    assert engine.heap_size() == 0 and engine.pending_count() == 0


def test_deferred_timer_surfacing_among_same_time_events_keeps_fifo(engine):
    """The deferred entry surfaces between two events at its old time and is
    re-sorted behind an event already queued at its new deadline; neither
    time's schedule order is disturbed."""
    fired = []
    engine.schedule(2.0, fired.append, "a")
    timer = engine.schedule(2.0, fired.append, "timer")
    engine.schedule(2.0, fired.append, "b")
    engine.schedule(6.0, fired.append, "c")
    engine.reschedule(timer, 6.0, fired.append, "timer")
    engine.schedule(2.0, lambda: engine.schedule(4.0, fired.append, "d"))
    engine.run()
    # "d" is pushed at t=2 after the timer was re-sorted to t=6, so it
    # follows the timer there.
    assert fired == ["a", "b", "c", "timer", "d"]


def test_run_until_leaves_a_deferred_timer_beyond_the_horizon_queued(engine):
    fired = []
    timer = engine.schedule(2.0, fired.append, "timer")
    engine.reschedule(timer, 10.0, fired.append, "timer")
    assert engine.run(until=5.0) == RUN_HORIZON
    assert fired == [] and engine.now == 5.0
    assert engine.pending_count() == 1 and engine.peek_time() == 10.0
    assert engine.run() == RUN_EXHAUSTED
    assert fired == ["timer"] and engine.now == 10.0


# -- handle-less events (``schedule_at``) ------------------------------------


def test_schedule_at_returns_no_handle(engine):
    assert engine.schedule_at(1.0, lambda: None) is None
    assert engine.schedule(1.0, lambda: None) is not None


def test_handle_less_and_handle_events_at_one_time_fire_in_schedule_order(engine):
    fired = []
    engine.schedule_at(4.0, fired.append, "at-1")
    engine.schedule(4.0, fired.append, "handle-1")
    engine.schedule_at(4.0, fired.append, "at-2")
    timer = engine.schedule(1.0, fired.append, "timer")
    engine.reschedule(timer, 4.0, fired.append, "deferred")  # re-sorted last
    engine.schedule(4.0, fired.append, "handle-2")
    engine.schedule_at(2.0, fired.append, "early")
    engine.run()
    assert fired == ["early", "at-1", "handle-1", "at-2", "handle-2", "deferred"]


def test_run_until_leaves_a_handle_less_event_beyond_the_horizon_queued(engine):
    fired = []
    engine.schedule_at(3.0, fired.append, "in")
    engine.schedule_at(10.0, fired.append, "beyond")
    assert engine.run(until=5.0) == RUN_HORIZON
    assert fired == ["in"] and engine.now == 5.0
    assert engine.pending_count() == 1 and engine.peek_time() == 10.0
    assert engine.run() == RUN_EXHAUSTED
    assert fired == ["in", "beyond"] and engine.now == 10.0


def test_step_peek_and_pending_count_see_handle_less_entries(engine):
    fired = []
    doomed = engine.schedule(1.0, fired.append, "doomed")
    engine.schedule_at(2.0, fired.append, "at")
    engine.schedule(3.0, fired.append, "handle")
    doomed.cancel()
    assert engine.pending_count() == 2 and engine.heap_size() == 3
    assert engine.peek_time() == 2.0  # the cancelled head is skipped
    assert engine.step() is True
    assert fired == ["at"] and engine.now == 2.0 and engine.events_processed == 1
    assert engine.pending_count() == 1 and engine.peek_time() == 3.0
    assert engine.step() is True and engine.step() is False
    assert fired == ["at", "handle"] and engine.pending_count() == 0


def test_compaction_keeps_handle_less_entries(engine):
    """A cancel storm compacts a heap that also holds handle-less events:
    the compaction drops only the cancelled handles, and the survivors of
    both kinds fire in (time, schedule) order."""
    engine.compact_min = 4
    fired = []
    doomed = [engine.schedule(5.0 + i, fired.append, f"doomed{i}") for i in range(8)]
    for i in range(3):
        engine.schedule_at(6.0, fired.append, f"at{i}")
    engine.schedule(6.0, fired.append, "handle")
    for handle in doomed:
        handle.cancel()
    # The seventh cancel compacts (7 > half of 12); the eighth stays.
    assert engine.compactions == 1
    assert engine.pending_count() == 4 and engine.heap_size() == 5
    engine.run()
    assert fired == ["at0", "at1", "at2", "handle"]
