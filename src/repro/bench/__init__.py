"""Benchmark harness: stack builders, timed runs, sweep grids, reporting,
the parallel grid executor (``repro.bench.pool``), telemetry snapshots
(``repro.bench.snapshot``), the perf regression gate (``repro.bench.regress``),
and figure-shape assertions (``repro.bench.shapes``)."""

from repro.bench.pool import resolve_jobs, run_grid
from repro.bench.report import format_bytes, format_us, print_table, table
from repro.bench.runner import OPERATIONS, STACKS, Measurement, build, time_operation
from repro.bench.sweeps import (
    clear_cache,
    full_grid,
    measure,
    message_sizes,
    processor_configs,
    ratio_percent,
    small_message_sizes,
    warm_cache,
)

__all__ = [
    "STACKS",
    "OPERATIONS",
    "Measurement",
    "build",
    "time_operation",
    "measure",
    "ratio_percent",
    "message_sizes",
    "small_message_sizes",
    "processor_configs",
    "full_grid",
    "clear_cache",
    "warm_cache",
    "run_grid",
    "resolve_jobs",
    "format_bytes",
    "format_us",
    "table",
    "print_table",
]
