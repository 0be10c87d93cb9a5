"""Measurement, statistics and reporting for experiments."""
