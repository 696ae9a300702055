"""Wait-state attribution: *why* did a rank sit there?

The critical-path walker (:mod:`repro.obs.critical`) says which phases the
makespan is made of; this module explains the blocked ones.  Every closed
span whose phase is in :data:`~repro.obs.taxonomy.WAIT_PHASES` (``flag-wait``,
``counter-wait``, ``stream-join``) is one *blocked interval*, and
:func:`classify_waits` assigns each exactly one state from the taxonomy in
:mod:`repro.obs.taxonomy`:

* the **releasing flow link** (the put/store that woke the waiter) splits
  the interval into *issue lag* (waiting for the peer to even issue the
  release) and *transit* (the release in flight through the fabric);
  whichever dominates makes the interval ``late-sender`` or
  ``late-release``;
* a ``late-release`` whose in-flight window mostly overlapped a saturated
  :class:`~repro.sim.resources.SharedBandwidth` link (>= 2 sharers, rate
  fully consumed — per the resource timelines recorded by
  :class:`~repro.obs.monitor.ResourceMonitor`) is upgraded to
  ``bandwidth-contention`` and blames the most-contended resource;
* linkless blocks overlapping a queued :class:`~repro.sim.resources.FifoResource`
  become ``resource-queueing``; linkless blocks under bus/NIC saturation
  become ``bandwidth-contention``;
* an interval no longer than the spin-poll + yield detection tail is
  ``detection-only`` (the wait was satisfied on entry — nothing was late);
* whatever survives is ``unattributed``, kept explicit so coverage is a
  measurable number (the verify quick grid keeps it under 1% of the
  makespan; see ``tests/test_obs_waits.py``).

Classification is a pure read of recorded spans, flows, and timelines — it
never touches the simulation.
"""

from __future__ import annotations

import bisect
import typing
from dataclasses import dataclass

import numpy as np

from repro.obs.taxonomy import (
    WAIT_BANDWIDTH_CONTENTION,
    WAIT_DETECTION_ONLY,
    WAIT_LATE_RELEASE,
    WAIT_LATE_SENDER,
    WAIT_PHASES,
    WAIT_RESOURCE_QUEUEING,
    WAIT_UNATTRIBUTED,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Machine
    from repro.obs.critical import CriticalPath
    from repro.obs.monitor import ResourceMonitor, ResourceTimeline

__all__ = ["WaitInterval", "WaitReport", "classify_waits"]

#: A late release counts as bandwidth contention when at least this fraction
#: of its in-flight window overlapped a saturated shared link.
CONTENTION_THRESHOLD = 0.5


@dataclass(frozen=True)
class WaitInterval:
    """One classified blocked interval of one rank."""

    rank: int
    start: float
    end: float
    #: The wait phase that recorded the block (``flag-wait``, ...).
    phase: str
    #: The enclosing protocol phase (``ring-step``, ``pipeline-chunk``, ...)
    #: or ``"-"`` for a root-level wait.
    context: str
    #: The assigned wait state (see :data:`repro.obs.taxonomy.WAIT_STATES`).
    state: str
    #: The blamed resource (``bus[0]``, ``nic_in[2]``, ...) when the state
    #: involves one, else ``None``.
    resource: str | None
    #: True when the interval overlaps a critical-path wait segment of the
    #: same rank and phase.
    on_critical_path: bool
    #: Kind of the releasing flow link, when one was found.
    link_kind: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def key(self) -> str:
        """The aggregation key used in snapshots: ``state|context|resource``."""
        return f"{self.state}|{self.context}|{self.resource or '-'}"


class WaitReport:
    """Every blocked interval of a window, classified."""

    def __init__(self, intervals: list[WaitInterval], start: float, end: float) -> None:
        self.intervals = intervals
        self.start = start
        self.end = end

    @property
    def makespan(self) -> float:
        return self.end - self.start

    @property
    def total_blocked(self) -> float:
        """Summed blocked seconds across every rank (can exceed makespan)."""
        return sum(interval.duration for interval in self.intervals)

    def by_state(self, critical_only: bool = False) -> dict[str, float]:
        """Blocked seconds per wait state, largest first."""
        totals: dict[str, float] = {}
        for interval in self.intervals:
            if critical_only and not interval.on_critical_path:
                continue
            totals[interval.state] = totals.get(interval.state, 0.0) + interval.duration
        return dict(sorted(totals.items(), key=lambda item: (-item[1], item[0])))

    def by_key(self) -> dict[str, float]:
        """Blocked seconds per ``state|context|resource`` key, key-sorted."""
        totals: dict[str, float] = {}
        for interval in self.intervals:
            key = interval.key()
            totals[key] = totals.get(key, 0.0) + interval.duration
        return {key: totals[key] for key in sorted(totals)}

    def by_rank_state(self) -> dict[tuple[int, str], float]:
        """Blocked seconds per (rank, state)."""
        totals: dict[tuple[int, str], float] = {}
        for interval in self.intervals:
            key = (interval.rank, interval.state)
            totals[key] = totals.get(key, 0.0) + interval.duration
        return totals

    def unattributed_fraction(self) -> float:
        """Unattributed blocked seconds as a fraction of the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.by_state().get(WAIT_UNATTRIBUTED, 0.0) / self.makespan

    def summary_us(self) -> dict[str, float]:
        """``state|context|resource -> microseconds``, key-sorted (for
        snapshot cells; byte-stable across identical runs)."""
        return {key: seconds * 1e6 for key, seconds in self.by_key().items()}

    def to_dict(self) -> dict:
        """A JSON-ready summary (all maps key-sorted for byte stability)."""
        states = self.by_state()
        critical = self.by_state(critical_only=True)
        return {
            "window_us": self.makespan * 1e6,
            "intervals": len(self.intervals),
            "blocked_us": self.total_blocked * 1e6,
            "states_us": {name: states[name] * 1e6 for name in sorted(states)},
            "critical_states_us": {
                name: critical[name] * 1e6 for name in sorted(critical)
            },
            "detail_us": self.summary_us(),
            "unattributed_fraction": self.unattributed_fraction(),
        }

    def __repr__(self) -> str:
        return (
            f"<WaitReport {len(self.intervals)} intervals, "
            f"{self.total_blocked * 1e6:.1f}us blocked>"
        )


def _node_bandwidth(monitor: "ResourceMonitor", node: int) -> list["ResourceTimeline"]:
    """The bandwidth timelines of one node: its bus and its two NIC links."""
    timelines = []
    for name in (f"bus[{node}]", f"nic_in[{node}]", f"nic_out[{node}]"):
        timeline = monitor.get(name)
        if timeline is not None:
            timelines.append(timeline)
    return timelines


def _most_contended(
    timelines: typing.Iterable["ResourceTimeline"], start: float, end: float
) -> tuple["ResourceTimeline | None", float]:
    best, best_overlap = None, 0.0
    for timeline in timelines:
        overlap = timeline.contended_seconds(start, end)
        if overlap > best_overlap:
            best, best_overlap = timeline, overlap
    return best, best_overlap


def _most_queued(
    timelines: typing.Iterable["ResourceTimeline"], start: float, end: float
) -> tuple["ResourceTimeline | None", float]:
    best, best_overlap = None, 0.0
    for timeline in timelines:
        overlap = timeline.queued_seconds(start, end)
        if overlap > best_overlap:
            best, best_overlap = timeline, overlap
    return best, best_overlap


def classify_waits(
    machine: "Machine",
    start: float | None = None,
    end: float | None = None,
    critical: "CriticalPath | None" = None,
    contention_threshold: float = CONTENTION_THRESHOLD,
) -> WaitReport:
    """Classify every blocked interval recorded in ``[start, end]``.

    ``start`` / ``end`` default to the extent of the recorded spans (use the
    launch window for per-call attribution).  ``critical`` marks intervals
    that lie on the critical path when given.

    The spans, flows and samples are read as columns: the wait spans are
    selected with masks, each wait's context comes from the ``parent`` and
    ``name`` columns, and its releasing link from a bisection of its rank's
    arrivals (:meth:`FlowTable.arrivals`).
    """
    recorder = machine.obs.recorder
    monitor = machine.obs.monitor
    spans = recorder.spans
    spans.materialize()
    starts = np.frombuffer(spans.start, dtype="d")
    ends = np.frombuffer(spans.end, dtype="d")
    closed = ends == ends  # NaN, while open, is unequal to itself
    if start is None:
        start = float(starts[closed].min()) if closed.any() else 0.0
    if end is None:
        end = float(ends[closed].max()) if closed.any() else 0.0
    eps = 1e-12 * max(1.0, abs(end))

    names = spans.name
    waiting = np.fromiter(map(WAIT_PHASES.__contains__, names), dtype=bool, count=len(names))
    rows = np.flatnonzero(closed & waiting & (ends > start + eps) & (starts < end - eps))
    ranks = np.frombuffer(spans.rank, dtype="i")[rows].tolist()
    blocked_starts = starts[rows].tolist()
    blocked_ends = ends[rows].tolist()
    rows = rows.tolist()
    parents = spans.parent

    # Critical-path wait segments per (rank, phase) for overlap marking.
    critical_segments: dict[tuple[int, str], list[tuple[float, float]]] = {}
    if critical is not None:
        for segment in critical.segments:
            if segment.phase in WAIT_PHASES:
                critical_segments.setdefault(
                    (segment.rank, segment.phase), []
                ).append((segment.start, segment.end))

    flows = recorder.flows
    arrivals = flows.arrivals()
    kinds, src_ranks, src_times = flows.kind, flows.src_rank, flows.src_ts
    cost = machine.cost
    detection_bound = cost.flag_poll_interval + cost.yield_cost + eps
    node_of = machine.spec.node_of
    if monitor is not None:
        fifos = monitor.by_kind("fifo")
        bandwidth = [_node_bandwidth(monitor, node) for node in range(machine.spec.nodes)]

    intervals: list[WaitInterval] = []
    for row, rank, span_start, span_end in zip(rows, ranks, blocked_starts, blocked_ends):
        s = max(span_start, start)
        e = min(span_end, end)
        if e - s <= 0:
            continue
        name = names[row]
        context = "-"
        parent = parents[row]
        while parent >= 0:
            if names[parent] not in WAIT_PHASES:
                context = names[parent]
                break
            parent = parents[parent]

        state = WAIT_UNATTRIBUTED
        resource: str | None = None
        # The latest link into this rank arriving within [s - eps, e + eps].
        times, links = arrivals.get(rank, ((), ()))
        index = bisect.bisect_right(times, e + eps) - 1
        link = links[index] if index >= 0 and times[index] >= s - eps else -1
        if link >= 0:
            src_rank, src_ts = src_ranks[link], src_times[link]
            arrival = min(times[index], e)
            issue_lag = max(0.0, min(src_ts, arrival) - s)
            transit = max(0.0, arrival - max(src_ts, s))
            if issue_lag <= eps and transit <= eps:
                state = WAIT_DETECTION_ONLY
            elif transit > issue_lag:
                state = WAIT_LATE_RELEASE
                if monitor is not None:
                    flight_start = max(src_ts, s)
                    source, sink = node_of(src_rank), node_of(rank)
                    candidates = (
                        bandwidth[source]
                        if source == sink
                        else bandwidth[source] + bandwidth[sink]
                    )
                    best, overlap = _most_contended(candidates, flight_start, arrival)
                    if (
                        best is not None
                        and overlap >= contention_threshold * (arrival - flight_start)
                    ):
                        state = WAIT_BANDWIDTH_CONTENTION
                        resource = best.name
            else:
                state = WAIT_LATE_SENDER
        else:
            blocked = e - s
            if blocked <= detection_bound:
                state = WAIT_DETECTION_ONLY
            elif monitor is not None:
                fifo_best, fifo_overlap = _most_queued(fifos, s, e)
                if fifo_best is not None and fifo_overlap >= contention_threshold * blocked:
                    state = WAIT_RESOURCE_QUEUEING
                    resource = fifo_best.name
                else:
                    best, overlap = _most_contended(bandwidth[node_of(rank)], s, e)
                    if best is not None and overlap >= contention_threshold * blocked:
                        state = WAIT_BANDWIDTH_CONTENTION
                        resource = best.name

        on_critical = False
        for seg_start, seg_end in critical_segments.get((rank, name), ()):
            if min(seg_end, e) - max(seg_start, s) > eps:
                on_critical = True
                break

        intervals.append(
            WaitInterval(
                rank=rank,
                start=s,
                end=e,
                phase=name,
                context=context,
                state=state,
                resource=resource,
                on_critical_path=on_critical,
                link_kind=kinds[link] if link >= 0 else None,
            )
        )

    intervals.sort(key=lambda i: (i.start, i.rank, i.end, i.phase))
    return WaitReport(intervals, start, end)
