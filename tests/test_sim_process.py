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
    # The pre-crash timer was cancelled; recovery does not resurrect it.
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


def test_pruning_is_amortised_and_crash_still_cancels_everything():
    """With more than 256 timers genuinely pending, schedule() used to rebuild
    the timer list on every call; now only when the list has doubled."""
    engine = SimulationEngine()
    ticker = Ticker(engine)
    handles, rebuilds = [], 0
    for n in range(1000):
        before = ticker._timers
        handles.append(ticker.schedule(1000.0 + n, ticker.tick))
        rebuilds += ticker._timers is not before
    assert rebuilds == 2  # on outgrowing 256, then on doubling to 514
    for handle in handles[:900]:
        handle.cancel()
    while len(ticker._timers) >= len(handles):  # until the next doubling
        handles.append(ticker.schedule(5000.0, ticker.tick))
    assert len(handles) < 1100
    assert len(ticker._timers) == len(handles) - 900  # the dead are gone
    ticker.crash()
    assert not any(handle.pending for handle in handles)
    assert engine.pending_count() == 0
    engine.run()
    assert ticker.ticks == 0


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
