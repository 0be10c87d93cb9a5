"""Tests for the experiment sweep helper."""

import pytest

from repro.analysis.experiment import ExperimentSweep


def scenario(protocol, parameter, seed):
    return {
        "metric_a": float(parameter) * (1 if protocol == "p1" else 2) + seed,
        "metric_b": 100.0 - parameter,
    }


def make_sweep(**overrides):
    defaults = dict(
        name="demo",
        scenario=scenario,
        parameters=(1, 2, 4),
        protocols=("p1", "p2"),
        seeds=(0,),
    )
    defaults.update(overrides)
    return ExperimentSweep(**defaults)


def test_run_collects_all_points():
    sweep = make_sweep().run()
    assert len(sweep.points) == 6
    assert sweep.value(2, "p2", "metric_a") == 4.0


def test_series_follows_parameter_axis():
    sweep = make_sweep().run()
    assert sweep.series("p1", "metric_a") == [1.0, 2.0, 4.0]
    assert sweep.series("p2", "metric_a") == [2.0, 4.0, 8.0]


def test_seed_replication_averages():
    sweep = make_sweep(seeds=(0, 10)).run()
    assert sweep.value(1, "p1", "metric_a") == pytest.approx(6.0)  # (1 + 11)/2


def test_table_rendering():
    sweep = make_sweep().run()
    text = sweep.table("metric_a", parameter_label="x").render()
    assert "demo: metric_a" in text
    assert "p1" in text and "p2" in text
    assert "4.00" in text


def test_render_all_covers_every_metric():
    sweep = make_sweep().run()
    text = sweep.render_all()
    assert "metric_a" in text and "metric_b" in text


def test_unknown_lookup_raises():
    sweep = make_sweep().run()
    with pytest.raises(KeyError):
        sweep.value(99, "p1", "metric_a")


def test_progress_callback():
    lines = []
    make_sweep().run(progress=lines.append)
    assert len(lines) == 6
    assert any("p2 @ 4" in line for line in lines)


def _cluster_scenario(protocol, parameter, seed):
    """A real (tiny) cluster run per cell; module-level so it pickles for
    the process-pool path."""
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.workload import WorkloadConfig
    from repro.workload.runner import run_standard_mix

    cluster = Cluster(
        ClusterConfig(protocol=protocol, num_sites=parameter, num_objects=12, seed=seed)
    )
    result = run_standard_mix(
        cluster,
        WorkloadConfig(num_objects=12, num_sites=parameter, read_ops=1, write_ops=1),
        transactions=8,
        mpl=2,
    )
    assert result.ok
    return {
        "commits": float(result.committed_specs),
        "messages": float(result.network_stats["sent"]),
        "p50 latency (ms)": result.metrics.commit_latency(read_only=False).p50,
    }


def test_parallel_run_is_bit_identical_to_serial():
    serial = make_sweep(seeds=(0, 10)).run(jobs=1)
    parallel = make_sweep(seeds=(0, 10)).run(jobs=2)
    assert parallel.points == serial.points


def test_parallel_cluster_sweep_matches_serial():
    """Full-stack bit-identity: real simulations fanned across processes
    must aggregate to exactly the serial result, point for point."""
    kwargs = dict(
        name="mini",
        scenario=_cluster_scenario,
        parameters=(2, 3),
        protocols=("rbp", "abp"),
        seeds=(0,),
    )
    serial = ExperimentSweep(**kwargs).run()
    parallel = ExperimentSweep(**kwargs).run(jobs=2)
    assert parallel.points == serial.points


def test_parallel_progress_reports_every_cell():
    lines = []
    make_sweep().run(progress=lines.append, jobs=2)
    assert len(lines) == 6
