"""Workload generation and load drivers for the experiments."""

from repro.workload.generator import WorkloadConfig

__all__ = ["WorkloadConfig"]
