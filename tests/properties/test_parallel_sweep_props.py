"""Property-based parallel-sweep determinism: for any seed set, sharding a
sweep across worker processes must produce the byte-identical measurement
digest the serial runner produces — for every protocol.

This is the contract the order-canonical merge exists for
(sorted-by-seed folds with ``math.fsum``):
``jobs`` may only change wall-clock, never a single bit of output.
Examples are kept small — each one runs real simulated clusters for all
four protocols, twice (serial and sharded).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.experiment import run_sweep
from repro.core.cluster import PROTOCOLS, Cluster, ClusterConfig
from repro.workload import WorkloadConfig
from repro.workload.runner import run_standard_mix


def _tiny_cell(protocol, parameter, seed):
    """One small but real simulation per cell; module-level so the
    process-pool path can pickle it."""
    cluster = Cluster(
        ClusterConfig(protocol=protocol, num_sites=parameter, num_objects=8, seed=seed)
    )
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=8, num_sites=parameter, read_ops=1, write_ops=1),
        transactions=6,
        mpl=2,
    )
    assert result.ok
    return {
        "commits": float(result.committed_specs),
        "messages": float(result.network_stats["sent"]),
        "p50 latency (ms)": result.metrics.commit_latency(read_only=False).p50,
    }


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seeds=st.lists(st.integers(0, 30), min_size=1, max_size=3, unique=True),
)
def test_sharded_sweep_digest_matches_serial_for_every_protocol(seeds):
    kwargs = dict(
        name="prop",
        scenario=_tiny_cell,
        parameters=(2,),
        protocols=PROTOCOLS,
        seeds=tuple(seeds),
    )
    serial = run_sweep(**kwargs, jobs=1)
    sharded = run_sweep(**kwargs, jobs=4)
    assert sharded.digest() == serial.digest()
    assert sharded.points == serial.points
