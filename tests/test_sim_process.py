"""Unit tests for the fail-stop process abstraction."""

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.process import Process


class Ticker(Process):
    def __init__(self, engine):
        super().__init__(engine, "ticker")
        self.ticks = 0
        self.crashes = 0
        self.recoveries = 0

    def tick(self):
        self.ticks += 1
        self.schedule(1.0, self.tick)

    def on_crash(self):
        self.crashes += 1

    def on_recover(self):
        self.recoveries += 1


def test_scheduled_work_runs_while_alive():
    engine = SimulationEngine()
    ticker = Ticker(engine)
    ticker.schedule(1.0, ticker.tick)
    engine.run(until=5.5)
    assert ticker.ticks == 5


def test_crash_cancels_pending_timers():
    """A crash stops the tick chain: each timer armed before it is inert."""
    engine = SimulationEngine()
    ticker = Ticker(engine)
    ticker.schedule(1.0, ticker.tick)
    engine.schedule(3.5, ticker.crash)
    engine.run(until=100.0)
    assert ticker.ticks == 3
    assert ticker.crashes == 1
    assert not ticker.alive


def test_schedules_after_crash_do_not_fire():
    engine = SimulationEngine()
    ticker = Ticker(engine)
    ticker.crash()
    ticker.schedule(1.0, ticker.tick)
    engine.run()
    assert ticker.ticks == 0


def test_timers_from_before_crash_do_not_fire_after_recover():
    engine = SimulationEngine()
    ticker = Ticker(engine)
    ticker.schedule(10.0, ticker.tick)  # pre-crash timer
    engine.schedule(1.0, ticker.crash)
    engine.schedule(2.0, ticker.recover)
    engine.run(until=50.0)
    # The pre-crash timer is inert; recovery does not resurrect it.
    assert ticker.ticks == 0
    assert ticker.recoveries == 1
    assert ticker.alive


def test_crash_epoch_guards_in_flight_callbacks():
    """A timer armed pre-crash never fires, even if crash+recover both
    happen before its deadline (the epoch check catches stale closures)."""
    engine = SimulationEngine()
    ticker = Ticker(engine)
    ticker.schedule(5.0, ticker.tick)
    engine.schedule(1.0, ticker.crash)
    engine.schedule(2.0, ticker.recover)
    engine.schedule(6.0, lambda: ticker.schedule(1.0, ticker.tick))
    engine.run(until=10.0)
    assert ticker.ticks >= 1  # post-recovery timer works
    assert ticker.crashes == 1


def test_double_crash_and_double_recover_are_idempotent():
    engine = SimulationEngine()
    ticker = Ticker(engine)
    ticker.crash()
    ticker.crash()
    assert ticker.crashes == 1
    ticker.recover()
    ticker.recover()
    assert ticker.recoveries == 1


def test_after_a_crash_no_timer_runs_and_recover_restarts_each_loop_once():
    """The process keeps no list of its timers, and a crash cancels none of
    them: the epoch guard makes every timer armed before the crash inert,
    however many are pending, and each recovery starts an ``every`` loop
    once -- the stale tick of the loop's old epoch never adds a second."""
    engine = SimulationEngine()
    ticker = Ticker(engine)
    handles = [ticker.schedule(10.0 + n, ticker.tick) for n in range(1000)]
    looped = []
    ticker.every(5.0, lambda: looped.append(engine.now))
    for at, action in [(7.0, ticker.crash), (8.0, ticker.recover),
                       (14.0, ticker.crash), (16.0, ticker.recover)]:
        engine.schedule_at(at, action)
    engine.run(until=40.0)
    assert ticker.ticks == 0
    assert looped == [5.0, 13.0, 21.0, 26.0, 31.0, 36.0]
    assert not any(handle.cancelled for handle in handles)
    engine.run(until=1100.0)
    assert ticker.ticks == 0 and all(handle.fired for handle in handles)


def test_every_fires_while_alive_is_rearmed_once_and_ends_on_false():
    """``every``: a firing per interval; a crash silences the loop and each
    recovery starts exactly one again; ``False`` ends it for good."""
    engine = SimulationEngine()
    process = Process(engine, "p")
    fired, bounded = [], []
    process.every(10.0, lambda: fired.append(engine.now))
    # Returns False on its third run: ended, and no recovery brings it back.
    process.every(4.0, lambda: bounded.append(engine.now) or len(bounded) < 3)
    for at, action in [
        (35.0, process.crash),
        (50.0, process.recover),
        (50.0, process.recover),  # already up: no second loop
        (75.0, process.crash),
        (80.0, process.recover),
    ]:
        engine.schedule_at(at, action)
    engine.run(until=115.0)
    assert fired == [10.0, 20.0, 30.0, 60.0, 70.0, 90.0, 100.0, 110.0]
    assert bounded == [4.0, 8.0, 12.0]
    for interval in (0.0, -1.0):
        with pytest.raises(ValueError, match="interval"):
            process.every(interval, fired.clear)
