"""Measurement, statistics and reporting for experiments."""

from repro.analysis.audit import Finding, assert_clean, audit_cluster
from repro.analysis.charts import AsciiChart, chart_sweep
from repro.analysis.experiment import ExperimentSweep, run_sweep
from repro.analysis.metrics import (
    MetricsCollector,
    QuantileAccumulator,
    WelfordAccumulator,
    measurement_digest,
    merge_seed_measurements,
)
from repro.analysis.report import Table
from repro.analysis.stats import Summary, confidence_interval, percentile, summarize
from repro.analysis.timeline import TimelineBuilder, render_timeline

__all__ = [
    "AsciiChart",
    "ExperimentSweep",
    "Finding",
    "assert_clean",
    "audit_cluster",
    "chart_sweep",
    "MetricsCollector",
    "QuantileAccumulator",
    "Summary",
    "Table",
    "TimelineBuilder",
    "WelfordAccumulator",
    "confidence_interval",
    "measurement_digest",
    "merge_seed_measurements",
    "percentile",
    "render_timeline",
    "run_sweep",
    "summarize",
]
