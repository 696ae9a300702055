"""Critical-path attribution over phase spans and flow links.

The walker answers the question the paper's evaluation keeps asking
implicitly: *which phases is the makespan actually made of?*  Starting from
the last event of the window (the rank that finished last), it walks
simulated time backwards:

* inside an annotated phase it charges the elapsed interval to that phase and
  jumps to the phase's start — always the *innermost, latest-starting* span
  covering the instant, so a pipelined chunk's flag wait is charged to
  ``flag-wait``, not to the enclosing ``pipeline-chunk``;
* inside a **wait phase** (``flag-wait``, ``counter-wait``, ``stream-join``)
  it looks for the flow link that released the waiter, charges the detection
  tail to the wait, charges the link's transit time to ``put-flight`` (zero
  for same-time flag wakeups), and continues on the *source* rank at the
  moment the cause was issued — hopping across ranks exactly the way
  causality did;
* time covered by no span is charged to ``(untracked)``.

Every step attributes a contiguous interval ending at the cursor and moves
the cursor to that interval's start, so the per-phase durations sum to the
window extent *exactly* — the breakdown is a partition of the makespan, not
a sample of it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.obs.spans import PhaseRecorder, SpanTable
from repro.obs.taxonomy import PUT_FLIGHT, UNTRACKED, WAIT_PHASES

__all__ = ["CriticalPath", "Segment", "critical_path"]


@dataclass(frozen=True)
class Segment:
    """One attributed interval of the critical path."""

    rank: int
    start: float
    end: float
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class CriticalPath:
    """The walker's result: a rank-hopping partition of the window."""

    def __init__(self, segments: list[Segment], start: float, end: float) -> None:
        #: Chronological (earliest first) attributed segments.
        self.segments = segments
        self.start = start
        self.end = end

    @property
    def total(self) -> float:
        """The window extent the walk partitioned."""
        return self.end - self.start

    @property
    def attributed(self) -> float:
        """Sum of all segment durations (equals ``total`` by construction)."""
        return sum(segment.duration for segment in self.segments)

    def by_phase(self) -> dict[str, float]:
        """Critical-path seconds per phase, largest first."""
        totals: dict[str, float] = {}
        for segment in self.segments:
            totals[segment.phase] = totals.get(segment.phase, 0.0) + segment.duration
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def top(self, n: int = 10) -> list[Segment]:
        """The ``n`` longest individual segments."""
        return sorted(self.segments, key=lambda s: -s.duration)[:n]

    def to_dict(self) -> dict:
        """A compact JSON-ready summary for benchmark snapshots.

        Phase keys are sorted by name (not by weight) so two runs of the
        same workload serialize byte-identically and snapshot diffs stay
        stable; times are microseconds to match the benchmark tables.
        """
        by_phase = self.by_phase()
        return {
            "total_us": self.total * 1e6,
            "attributed_us": self.attributed * 1e6,
            "segments": len(self.segments),
            "ranks": len({segment.rank for segment in self.segments}),
            "phases_us": {name: by_phase[name] * 1e6 for name in sorted(by_phase)},
        }

    def __repr__(self) -> str:
        return (
            f"<CriticalPath {len(self.segments)} segments over "
            f"{self.total * 1e6:.1f}us>"
        )


def _lanes(
    spans: SpanTable, start: float, end: float
) -> tuple[dict[int, tuple[list, list, list, list]], int]:
    """The closed spans overlapping ``(start, end)``, per rank.

    Each rank's spans are sorted by (start, depth, row), and come as four
    lists: starts, ends, the running maximum of the ends, and names.  Also
    returns the rank of the span that ends last (the first such row), or 0
    when the window holds none.
    """
    starts = np.frombuffer(spans.start, dtype="d")
    ends = np.frombuffer(spans.end, dtype="d")
    rows = np.flatnonzero((ends == ends) & (ends > start) & (starts < end))
    if not len(rows):
        return {}, 0
    ranks = np.frombuffer(spans.rank, dtype="i")[rows]
    window_starts, window_ends = starts[rows], ends[rows]
    depths = np.frombuffer(spans.depth, dtype="i")[rows]
    last = int(ranks[np.argmax(window_ends)])
    order = np.lexsort((rows, depths, window_starts, ranks))
    sorted_ranks = ranks[order]
    sorted_ends = window_ends[order]
    cuts = (np.flatnonzero(sorted_ranks[1:] != sorted_ranks[:-1]) + 1).tolist()
    bounds = [0, *cuts, len(order)]
    starts_list = window_starts[order].tolist()
    ends_list = sorted_ends.tolist()
    names = spans.name
    names_list = [names[row] for row in rows[order].tolist()]
    lanes = {}
    for rank, lo, hi in zip(sorted_ranks[bounds[:-1]].tolist(), bounds, bounds[1:]):
        tops = np.maximum.accumulate(sorted_ends[lo:hi]).tolist()
        lanes[rank] = (starts_list[lo:hi], ends_list[lo:hi], tops, names_list[lo:hi])
    return lanes, last


def critical_path(
    recorder: PhaseRecorder,
    start: float | None = None,
    end: float | None = None,
    max_steps: int = 1_000_000,
) -> CriticalPath:
    """Walk the recorded spans/flows backwards and partition ``[start, end]``.

    ``start`` / ``end`` default to the extent of the recorded spans.  Raises
    ``ValueError`` when nothing usable was recorded.

    The walk reads the recorder's columns: on each rank, the span covering
    an instant is found by bisecting that rank's starts, and the releasing
    link by bisecting its arrivals (:meth:`FlowTable.arrivals`).
    """
    spans = recorder.spans
    spans.materialize()
    if start is None or end is None:
        ends = np.frombuffer(spans.end, dtype="d")
        closed = ends == ends  # NaN, while open, is unequal to itself
        if not closed.any():
            raise ValueError("no closed phase spans recorded")
        if start is None:
            start = float(np.frombuffer(spans.start, dtype="d")[closed].min())
        if end is None:
            end = float(ends[closed].max())
    if end < start:
        raise ValueError(f"critical_path window is inverted: [{start}, {end}]")

    # Start on the rank whose annotated activity ends last.
    lanes, rank = _lanes(spans, start, end)
    flows = recorder.flows
    arrivals = flows.arrivals()
    src_ranks, src_times = flows.src_rank, flows.src_ts

    segments: list[Segment] = []

    def attribute(seg_rank: int, seg_start: float, seg_end: float, phase: str) -> None:
        if seg_end > seg_start:
            segments.append(Segment(seg_rank, seg_start, seg_end, phase))

    t = end
    epsilon = 1e-15 * max(1.0, abs(end))
    steps = 0
    while t > start + epsilon and steps < max_steps:
        steps += 1
        lane = lanes.get(rank)
        if lane is None:
            attribute(rank, start, t, UNTRACKED)
            t = start
            continue
        starts, ends, tops, names = lane
        # The innermost latest-starting span with start < t <= end: the
        # last of the spans starting before t whose end reaches t.
        index = bisect.bisect_left(starts, t) - 1
        if index < 0 or tops[index] < t:
            # Nothing covers t: skip back to the latest end before it.
            floor = max(tops[index], start) if index >= 0 else start
            attribute(rank, floor, t, UNTRACKED)
            t = floor
            continue
        while ends[index] < t:
            index -= 1

        span_start = max(starts[index], start)
        name = names[index]
        if name in WAIT_PHASES and rank in arrivals:
            # The latest link into this rank arriving in [span_start, t).
            times, rows = arrivals[rank]
            link = bisect.bisect_left(times, t) - 1
            if link >= 0 and times[link] >= span_start:
                row = rows[link]
                src_rank, src_ts = src_ranks[row], src_times[row]
                if src_ts < t - epsilon:
                    arrival = min(max(times[link], span_start), t)
                    # Detection tail: from the cause's arrival to the cursor.
                    attribute(rank, arrival, t, name)
                    # Transit: from the cause's issue to its arrival.
                    if arrival > src_ts:
                        attribute(src_rank, src_ts, arrival, PUT_FLIGHT)
                    rank = src_rank
                    t = min(src_ts, t)
                    continue
        attribute(rank, span_start, t, name)
        t = span_start

    if t > start + epsilon:  # pragma: no cover - max_steps safety valve
        attribute(rank, start, t, UNTRACKED)

    segments.reverse()
    return CriticalPath(segments, start, end)
