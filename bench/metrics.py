"""The benchmark's metric tables: names, units, kinds, directions, bounds.

Every metric is one of three kinds, and says which:

- ``host``  -- what the simulator costs to run on this machine (noisy;
  reported as the best of the timed repeats, because interference on the
  box only ever adds time, with median, min, max and n beside it);
- ``sim``   -- what the modelled protocol does in simulated time (repeats
  exactly for a fixed seed);
- ``count`` -- work done, counted by the program (repeats exactly).

``BENCHMARK.json`` at the repository root restates these tables for the
driver; ``run.py --check`` fails when the two disagree.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from tracer import SUBLAYERS


class Metric(NamedTuple):
    name: str
    kind: str  # "host" | "sim" | "count"
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end only: the share of the parent's value by which the metric
    #: may worsen before a change counts as a regression ...
    bound: Optional[float] = None
    #: ... and the absolute change ``--compare`` always allows, for a metric
    #: so small (or so often 0) that a share of it flags scheduler noise.
    floor: float = 0.0


#: What a user of the harness sees, gated by the driver.  The driver draws
#: a new seed for every run and wants each metric's interquartile spread
#: over ten runs inside its bound, so every bound here is at least three
#: times the widest spread measured on any workload in a quiet spell.  For
#: ``wall_s`` that is 2-7% (and 10-38% while a noisy neighbour is active:
#: the bound is the widest the driver allows); the sim bounds have to hold
#: the spread *across seeds* (throughput 3.0%, p50 0.8%, p99 8.4%).  Two
#: runs at one seed must agree exactly on every sim metric; ``--compare``
#: checks that.
END_TO_END = (
    Metric("setup_s", "host", "s", "lower", 0.25, floor=0.05),
    Metric("wall_s", "host", "s", "lower", 0.25),
    Metric("peak_rss_mb", "host", "MiB", "lower", 0.10),
    Metric("sim_commits_per_s", "sim", "txn/s", "higher", 0.10),
    Metric("sim_commit_p50_ms", "sim", "ms", "lower", 0.05),
    Metric("sim_commit_p99_ms", "sim", "ms", "lower", 0.25),
)

#: End-to-end too, but judged only by ``--compare`` at equal seeds, where
#: they repeat exactly.  The driver cannot gate them: the longest commit gap
#: is an extreme value that moves 40-90% from seed to seed on every
#: workload, and ``failed_frac`` is 0 until something breaks (its bound is
#: the absolute floor; the driver sees failures as ``attempted``/``failed``).
#: ``BENCHMARK.json`` lists both under ``per_layer`` so they are recorded.
SAME_SEED_END_TO_END = (
    Metric("sim_max_commit_gap_ms", "sim", "ms", "lower", 0.10),
    Metric("failed_frac", "sim", "ratio", "lower", 0.0, floor=0.002),
)

#: Printed beside the end-to-end metrics; not gated.
INFO = (
    Metric("cpu_s", "host", "s", "lower"),
    Metric("ops_attempted", "count", "count", "higher"),
    Metric("ops_failed", "count", "count", "lower"),
    Metric("commits", "count", "count", "higher"),
    Metric("update_commits", "count", "count", "higher"),
    Metric("sim_duration_ms", "sim", "ms", "lower"),
)

_LAYER_COUNTS = (
    Metric("sim.events", "count", "count", "lower"),
    Metric("sim.events_per_commit", "count", "1/txn", "lower"),
    Metric("sim.compactions", "count", "count", "lower"),
    Metric("sim.events_per_s", "host", "1/s", "higher"),
    Metric("sim.sim_s_per_wall_s", "host", "ratio", "higher"),
    Metric("net.datagrams_per_commit", "count", "1/txn", "lower"),
    Metric("net.bytes_per_commit", "count", "B/txn", "lower"),
    Metric("net.background_frac", "count", "ratio", "lower"),
    Metric("net.retransmissions_per_commit", "count", "1/txn", "lower"),
    Metric("net.dropped_loss", "count", "count", "lower"),
    Metric("net.delays_per_commit_p50", "sim", "ratio", "lower"),
    Metric("broadcast.broadcasts_per_commit", "count", "1/txn", "lower"),
    Metric("broadcast.delivers_per_commit", "count", "1/txn", "lower"),
    Metric("broadcast.view_changes", "count", "count", "lower"),
    Metric("core.attempts_per_commit", "count", "ratio", "lower"),
    Metric("core.update_abort_rate", "count", "ratio", "lower"),
    Metric("core.readonly_aborts", "count", "count", "lower"),
    Metric("core.rbp_write_timeouts", "count", "count", "lower"),
    Metric("core.rbp_in_doubt", "count", "count", "lower"),
    Metric("core.recoveries", "count", "count", "lower"),
    Metric("db.lock_acquires_per_commit", "count", "1/txn", "lower"),
    Metric("db.lock_denied_frac", "count", "ratio", "lower"),
    Metric("db.installs_per_commit", "count", "1/txn", "lower"),
    Metric("db.wal_appends_per_commit", "count", "1/txn", "lower"),
)

#: Counts the traced repeat makes at the boundaries it wraps.  They repeat
#: exactly, but only a traced child can report them.
_TRACED_COUNTS = ("broadcast.broadcasts_per_commit",)

_SUBLAYER_TIMES = tuple(
    metric
    for sublayer in SUBLAYERS
    for metric in (
        Metric(f"{sublayer}.self_s", "host", "s", "lower"),
        Metric(f"{sublayer}.self_frac", "host", "ratio", "lower"),
        Metric(f"{sublayer}.calls", "count", "count", "lower"),
    )
)

_TRACE_QUALITY = (
    Metric("trace.overhead_x", "host", "x", "lower"),
    Metric("trace.unattributed_frac", "host", "ratio", "lower"),
)

PER_LAYER = _LAYER_COUNTS + _SUBLAYER_TIMES + _TRACE_QUALITY

#: What ``--trace 1`` prints for the driver.
DRIVER_PER_LAYER = SAME_SEED_END_TO_END + PER_LAYER

#: Per-layer metrics only the traced repeat can report.
TRACED_ONLY = frozenset(
    _TRACED_COUNTS
    + tuple(m.name for m in _SUBLAYER_TIMES)
    + ("trace.unattributed_frac",)
)

BY_NAME = {m.name: m for m in END_TO_END + SAME_SEED_END_TO_END + INFO + PER_LAYER}

