"""Differential trace analysis: *where did the time go between two runs?*

Two runs of the same workload — baseline vs head snapshot cells, or policy A
vs policy B on live machines — are aligned phase-by-phase and wait-state-by-
wait-state, and the latency delta is attributed to the entries that grew.
The output names the guilty (state, resource, context) triple, so a perf
gate failure arrives as

    allreduce srm 64 KB x8 nodes regressed +7.2% -- +340.1us of
    bandwidth-contention on bus[0] during ring-step

instead of a bare ratio.

The unit of comparison is a *profile summary*: a plain dict with
``microseconds``, ``critical_path`` (the :meth:`CriticalPath.to_dict` form)
and ``wait_states`` (the :meth:`WaitReport.summary_us` form,
``state|context|resource -> us``).  Benchmark snapshot cells carry exactly
these fields, so :func:`diff_cells` diffs committed artifacts and
:func:`capture_profile` produces the same shape from a live machine —
one comparator serves both.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.obs.critical import critical_path
from repro.obs.waits import classify_waits

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Machine

__all__ = [
    "PhaseDelta",
    "WaitDelta",
    "TraceDiff",
    "capture_profile",
    "diff_profiles",
    "diff_cells",
    "format_diff",
]


@dataclass(frozen=True)
class PhaseDelta:
    """One critical-path phase, aligned across the two runs."""

    phase: str
    baseline_us: float
    candidate_us: float

    @property
    def delta_us(self) -> float:
        return self.candidate_us - self.baseline_us


@dataclass(frozen=True)
class WaitDelta:
    """One (wait state, context, resource) bucket, aligned across the runs."""

    state: str
    context: str
    resource: str
    baseline_us: float
    candidate_us: float

    @property
    def delta_us(self) -> float:
        return self.candidate_us - self.baseline_us

    @property
    def label(self) -> str:
        """Human phrasing: ``bandwidth-contention on bus[0] during ring-step``."""
        parts = [self.state]
        if self.resource != "-":
            parts.append(f"on {self.resource}")
        if self.context != "-":
            parts.append(f"during {self.context}")
        return " ".join(parts)


class TraceDiff:
    """The aligned comparison of two profile summaries."""

    def __init__(
        self,
        label: str,
        baseline_us: float,
        candidate_us: float,
        phases: list[PhaseDelta],
        waits: list[WaitDelta],
    ) -> None:
        self.label = label
        self.baseline_us = baseline_us
        self.candidate_us = candidate_us
        #: Largest positive delta first; ties and shrinkage after.
        self.phases = sorted(phases, key=lambda p: (-p.delta_us, p.phase))
        self.waits = sorted(
            waits, key=lambda w: (-w.delta_us, w.state, w.context, w.resource)
        )

    @property
    def delta_us(self) -> float:
        return self.candidate_us - self.baseline_us

    @property
    def ratio(self) -> float:
        if self.baseline_us <= 0:
            return float("inf") if self.candidate_us > 0 else 1.0
        return self.candidate_us / self.baseline_us

    def dominant_phase(self) -> PhaseDelta | None:
        """The critical-path phase that grew the most (None if nothing grew)."""
        if self.phases and self.phases[0].delta_us > 0:
            return self.phases[0]
        return None

    def dominant_wait(self) -> WaitDelta | None:
        """The wait bucket that grew the most (None if nothing grew)."""
        if self.waits and self.waits[0].delta_us > 0:
            return self.waits[0]
        return None

    def headline(self) -> str:
        """One line naming the change and its dominant cause."""
        change = (self.ratio - 1.0) * 100
        if change > 0:
            verdict = f"regressed +{change:.1f}%"
        elif change < 0:
            verdict = f"improved {change:.1f}%"
        else:
            verdict = "unchanged"
        line = (
            f"{self.label}: {self.baseline_us:.1f} -> {self.candidate_us:.1f} us "
            f"({verdict})"
        )
        wait = self.dominant_wait()
        phase = self.dominant_phase()
        if change > 0 and wait is not None:
            line += f" -- +{wait.delta_us:.1f}us of {wait.label}"
        elif change > 0 and phase is not None:
            line += f" -- +{phase.delta_us:.1f}us of {phase.phase} on the critical path"
        elif change < 0 and self.waits:
            shrunk = min(self.waits, key=lambda w: w.delta_us)
            if shrunk.delta_us < 0:
                line += f" -- {shrunk.delta_us:.1f}us of {shrunk.label}"
        return line

    def to_dict(self) -> dict:
        """JSON-ready form (maps key-sorted for byte stability)."""
        return {
            "label": self.label,
            "baseline_us": self.baseline_us,
            "candidate_us": self.candidate_us,
            "delta_us": self.delta_us,
            "ratio": self.ratio,
            "phases_us": {
                p.phase: {"baseline": p.baseline_us, "candidate": p.candidate_us}
                for p in sorted(self.phases, key=lambda p: p.phase)
            },
            "wait_states_us": {
                f"{w.state}|{w.context}|{w.resource}": {
                    "baseline": w.baseline_us,
                    "candidate": w.candidate_us,
                }
                for w in sorted(
                    self.waits, key=lambda w: (w.state, w.context, w.resource)
                )
            },
            "headline": self.headline(),
        }

    def __repr__(self) -> str:
        return f"<TraceDiff {self.label!r} delta={self.delta_us:+.1f}us>"


def capture_profile(
    machine: "Machine",
    start: float,
    end: float,
    microseconds: float | None = None,
) -> dict:
    """A profile summary of one live machine's ``[start, end]`` window.

    The same shape as a benchmark snapshot cell's telemetry fields, so the
    result can be diffed against committed cells or other live captures
    (:func:`repro.bench.snapshot.capture_cell` takes its telemetry from
    here).  A machine that recorded no span gets ``None`` and ``{}`` without
    running either analysis.
    """
    profile = {
        "microseconds": (
            microseconds if microseconds is not None else (end - start) * 1e6
        ),
        "critical_path": None,
        "wait_states": {},
    }
    recorder = machine.obs.recorder
    if recorder.spans:
        path = critical_path(recorder, start=start, end=end)
        waits = classify_waits(machine, start=start, end=end, critical=path)
        profile["critical_path"] = path.to_dict()
        profile["wait_states"] = waits.summary_us()
    return profile


def _phase_map(profile: dict) -> dict[str, float]:
    path = profile.get("critical_path")
    if not path:
        return {}
    return dict(path.get("phases_us", {}))


def _wait_map(profile: dict) -> dict[str, float]:
    return dict(profile.get("wait_states") or {})


def diff_profiles(baseline: dict, candidate: dict, label: str = "run") -> TraceDiff:
    """Align two profile summaries and attribute the latency delta."""
    base_phases, cand_phases = _phase_map(baseline), _phase_map(candidate)
    phases = [
        PhaseDelta(
            phase=name,
            baseline_us=base_phases.get(name, 0.0),
            candidate_us=cand_phases.get(name, 0.0),
        )
        for name in sorted(set(base_phases) | set(cand_phases))
    ]
    base_waits, cand_waits = _wait_map(baseline), _wait_map(candidate)
    waits = []
    for key in sorted(set(base_waits) | set(cand_waits)):
        state, _, rest = key.partition("|")
        context, _, resource = rest.partition("|")
        waits.append(
            WaitDelta(
                state=state,
                context=context or "-",
                resource=resource or "-",
                baseline_us=base_waits.get(key, 0.0),
                candidate_us=cand_waits.get(key, 0.0),
            )
        )
    return TraceDiff(
        label=label,
        baseline_us=float(baseline.get("microseconds", 0.0)),
        candidate_us=float(candidate.get("microseconds", 0.0)),
        phases=phases,
        waits=waits,
    )


def diff_cells(baseline: dict, candidate: dict) -> TraceDiff:
    """Diff two benchmark snapshot cells of the same grid key."""
    from repro.bench.report import format_bytes

    label = (
        f"{candidate['operation']} {candidate['stack']} "
        f"{format_bytes(candidate['nbytes'])} x{candidate['nodes']} nodes"
    )
    return diff_profiles(baseline, candidate, label=label)


def format_diff(diff: TraceDiff, top: int = 8) -> str:
    """A readable multi-line rendering of one trace diff."""
    lines = [diff.headline()]
    moved_phases = [p for p in diff.phases if abs(p.delta_us) > 1e-9]
    if moved_phases:
        lines.append("  critical path:")
        for p in moved_phases[:top]:
            lines.append(
                f"    {p.phase:<24} {p.baseline_us:>10.1f} -> {p.candidate_us:>10.1f} us"
                f"  ({p.delta_us:+.1f})"
            )
    moved_waits = [w for w in diff.waits if abs(w.delta_us) > 1e-9]
    if moved_waits:
        lines.append("  wait states:")
        for w in moved_waits[:top]:
            lines.append(
                f"    {w.label:<48} {w.baseline_us:>10.1f} -> "
                f"{w.candidate_us:>10.1f} us  ({w.delta_us:+.1f})"
            )
    if len(lines) == 1:
        lines.append("  no phase or wait-state movement recorded")
    return "\n".join(lines)
