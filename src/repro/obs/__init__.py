"""``repro.obs`` — the observability subsystem.

Phase-level tracing, an always-on metrics registry, causal flow links, a
critical-path profiler, resource-occupancy timelines, wait-state
attribution, differential trace analysis, and Perfetto/JSON exports for the
SRM collective stack.  See ``docs/observability.md`` for the guide and
:mod:`repro.obs.taxonomy` for the phase and wait-state vocabulary.
"""

from repro.obs.calib import run_calibrate, validate_calibration_report
from repro.obs.critical import CriticalPath, Segment, critical_path
from repro.obs.diff import (
    PhaseDelta,
    TraceDiff,
    WaitDelta,
    capture_profile,
    diff_cells,
    diff_profiles,
    format_diff,
)
from repro.obs.export import chrome_trace, metrics_dump, write_json
from repro.obs.hub import Observability
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    TimeWeightedHistogram,
)
from repro.obs.monitor import ResourceMonitor, ResourceSample, ResourceTimeline
from repro.obs.spans import FlowLink, PhaseRecorder, PhaseSpan
from repro.obs.waits import WaitInterval, WaitReport, classify_waits

__all__ = [
    "Observability",
    "run_calibrate",
    "validate_calibration_report",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeWeightedHistogram",
    "PhaseRecorder",
    "PhaseSpan",
    "FlowLink",
    "CriticalPath",
    "Segment",
    "critical_path",
    "ResourceMonitor",
    "ResourceSample",
    "ResourceTimeline",
    "WaitInterval",
    "WaitReport",
    "classify_waits",
    "PhaseDelta",
    "WaitDelta",
    "TraceDiff",
    "capture_profile",
    "diff_cells",
    "diff_profiles",
    "format_diff",
    "chrome_trace",
    "metrics_dump",
    "write_json",
]
