"""Benchmark baseline capture and comparison.

The perf trajectory of this reproduction is recorded as ``BENCH_*.json``
documents (one per capture) and enforced against a committed
``benchmarks/baseline.json`` — see :mod:`repro.bench.baseline`.
"""

from repro.bench.baseline import (
    DEFAULT_TOLERANCE,
    MIN_SECONDS_TOLERANCE,
    ComparisonReport,
    MetricCheck,
    capture_baseline,
    capture_run,
    compare_metrics,
    default_tolerances,
    format_report,
    headline_metrics,
    load_baseline,
    write_baseline,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "MIN_SECONDS_TOLERANCE",
    "ComparisonReport",
    "MetricCheck",
    "capture_baseline",
    "capture_run",
    "compare_metrics",
    "default_tolerances",
    "format_report",
    "headline_metrics",
    "load_baseline",
    "write_baseline",
]
