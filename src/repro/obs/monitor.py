"""Per-resource occupancy and queue-depth timelines.

A :class:`ResourceMonitor` hangs off the engine the same way the verifier and
fault plan do (``engine.monitor``): the contention resources in
:mod:`repro.sim.resources` consult it with one ``is None`` test and, when it
is attached, report every occupancy transition as a timestamped sample.
Recording is purely passive — no events are scheduled, no clocks advance —
so a monitored run is bit-identical to an unmonitored one (the same
contract as spans and metrics, asserted by ``tests/test_obs_invariance.py``).

Each resource gets one :class:`ResourceTimeline`, a piecewise-constant
signal of

* ``occupancy`` — active transfers on a :class:`~repro.sim.resources.SharedBandwidth`
  link, granted slots of a :class:`~repro.sim.resources.FifoResource`,
  open/closed state of a :class:`~repro.sim.resources.Gate`;
* ``queued`` — requests waiting behind a full FIFO resource, or processes
  parked on a closed gate;
* ``saturated`` — for bandwidth links: the water-filling allocation consumed
  the whole link rate (someone's share is being squeezed); for FIFO
  resources: every slot is granted.

The timelines answer the wait-state classifier's questions ("was the bus
oversubscribed while rank 3 sat in flag-wait?") through
:meth:`ResourceTimeline.seconds_matching`, and export as Perfetto counter
tracks through :func:`repro.obs.export.chrome_trace`.
"""

from __future__ import annotations

import bisect
import typing

from repro.obs.columns import ColumnTable

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["ResourceSample", "SampleTable", "ResourceTimeline", "ResourceMonitor"]


class ResourceSample(typing.NamedTuple):
    """One occupancy transition of one resource."""

    time: float
    occupancy: int
    queued: int
    saturated: bool


class SampleTable(ColumnTable):
    """Samples as columns; indexing builds :class:`ResourceSample` values."""

    FIELDS = (("time", "d"), ("occupancy", "i"), ("queued", "i"), ("saturated", "B"))
    CLOCKS = ("time",)

    __slots__ = ("time", "occupancy", "queued", "saturated")

    def _record(self, index: int, values: tuple) -> ResourceSample:
        time, occupancy, queued, saturated = values
        return ResourceSample(time, occupancy, queued, bool(saturated))

    def last(self) -> tuple | None:
        """The last row as (time, occupancy, queued, saturated), or None.

        A replayed block carries its last row, so reading it copies nothing.
        """
        pending = self._pending
        if pending:
            closing = pending[-1][1]
            if closing is not None:
                return (closing[0] + pending[-2], *closing[1:])
            self.materialize()
        if not self.time:
            return None
        return (self.time[-1], self.occupancy[-1], self.queued[-1], self.saturated[-1])

    def _copy(self, tail: dict[str, typing.Any], t0: float, payload: typing.Any = None) -> None:
        """Append one replayed block.  Its ``payload`` is (boundary,
        closing): the state the window left the row before it in (None
        when unchanged), set first as :meth:`ResourceTimeline.record` did,
        and the block's last row, window-relative, for :meth:`last`."""
        if payload is not None and payload[0] is not None:
            self.occupancy[-1], self.queued[-1], self.saturated[-1] = payload[0]
        super()._copy(tail, t0)


class ResourceTimeline:
    """The piecewise-constant occupancy history of one resource.

    Each sample holds from its timestamp until the next sample; the last
    sample holds forever.  Consecutive identical states are coalesced and a
    same-timestamp re-record replaces the previous sample, so the series is
    strictly increasing in time.  (A same-time re-record back to the state
    before leaves two equal samples in a row.)  The samples are stored as
    columns in :attr:`table`.
    """

    __slots__ = ("name", "kind", "table")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        #: ``"bandwidth"`` | ``"fifo"`` | ``"gate"``.
        self.kind = kind
        self.table = SampleTable()

    def record(
        self, time: float, occupancy: int, queued: int, saturated: bool = False
    ) -> None:
        """Append one transition (coalescing no-ops and same-time updates)."""
        table = self.table
        if table._pending:
            table.materialize()
        times = table.time
        if times:
            if (
                table.occupancy[-1] == occupancy
                and table.queued[-1] == queued
                and table.saturated[-1] == saturated
            ):
                return
            if times[-1] == time:
                table.occupancy[-1] = occupancy
                table.queued[-1] = queued
                table.saturated[-1] = saturated
                return
        times.append(time)
        table.occupancy.append(occupancy)
        table.queued.append(queued)
        table.saturated.append(saturated)

    # -- queries -------------------------------------------------------------

    @property
    def samples(self) -> list[ResourceSample]:
        """The recorded transitions, chronologically."""
        return list(self.table)

    def seconds_matching(
        self,
        start: float,
        end: float,
        occupancy: int = 0,
        queued: int = 0,
        saturated: bool = False,
    ) -> float:
        """Total seconds in ``[start, end]`` whose sample has at least
        ``occupancy`` active and ``queued`` waiting, and is saturated when
        ``saturated`` is set.

        Time before the first sample counts as not matching (the resource
        did not exist / was idle).  The walk reads the sample columns.
        """
        table = self.table
        if table._pending:
            table.materialize()
        times = table.time
        count = len(times)
        if end <= start or not count:
            return 0.0
        occupancies, queues, saturations = table.occupancy, table.queued, table.saturated
        total = 0.0
        index = max(0, bisect.bisect_right(times, start) - 1)
        while index < count:
            seg_start = max(times[index], start)
            seg_end = times[index + 1] if index + 1 < count else end
            seg_end = min(seg_end, end)
            if (
                seg_end > seg_start
                and occupancies[index] >= occupancy
                and queues[index] >= queued
                and (saturations[index] or not saturated)
            ):
                total += seg_end - seg_start
            if seg_end >= end:
                break
            index += 1
        return total

    def contended_seconds(self, start: float, end: float) -> float:
        """Seconds in the window with >= 2 sharers on a saturated resource."""
        return self.seconds_matching(start, end, occupancy=2, saturated=True)

    def queued_seconds(self, start: float, end: float) -> float:
        """Seconds in the window with at least one request queued."""
        return self.seconds_matching(start, end, queued=1)

    def max_occupancy(self) -> int:
        self.table.materialize()
        return max(self.table.occupancy, default=0)

    def max_queued(self) -> int:
        self.table.materialize()
        return max(self.table.queued, default=0)

    def to_dict(self, until: float) -> dict:
        """Summary stats over ``[first sample, until]`` (JSON-ready)."""
        self.table.materialize()
        times = self.table.time
        first = times[0] if times else until
        return {
            "kind": self.kind,
            "samples": len(times),
            "max_occupancy": self.max_occupancy(),
            "max_queued": self.max_queued(),
            "contended_seconds": self.contended_seconds(first, until),
            "queued_seconds": self.queued_seconds(first, until),
        }

    def __repr__(self) -> str:
        return (
            f"<ResourceTimeline {self.name!r} kind={self.kind} "
            f"samples={len(self.table)}>"
        )


class ResourceMonitor:
    """The registry of every monitored resource on one engine."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: Resource name -> its timeline, in registration order.
        self.timelines: dict[str, ResourceTimeline] = {}
        self._anonymous = 0

    def register(self, name: str | None, kind: str) -> ResourceTimeline:
        """Create (or fetch) the timeline for a resource.

        Unnamed resources get a stable synthetic name; a name collision
        reuses the existing timeline (resources are long-lived and uniquely
        named in practice — ``bus[i]``, ``nic_in[i]``, ...).
        """
        if name is None:
            name = f"{kind}#{self._anonymous}"
            self._anonymous += 1
        timeline = self.timelines.get(name)
        if timeline is None:
            timeline = ResourceTimeline(name, kind)
            self.timelines[name] = timeline
        return timeline

    def get(self, name: str) -> ResourceTimeline | None:
        return self.timelines.get(name)

    def by_kind(self, kind: str) -> list[ResourceTimeline]:
        return [t for t in self.timelines.values() if t.kind == kind]

    def to_dict(self) -> dict:
        """All timelines' summary stats, key-sorted (JSON-ready)."""
        now = self.engine.now
        return {
            name: self.timelines[name].to_dict(now)
            for name in sorted(self.timelines)
        }

    def __repr__(self) -> str:
        return f"<ResourceMonitor resources={len(self.timelines)}>"
