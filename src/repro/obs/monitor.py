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

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["ResourceSample", "ResourceTimeline", "ResourceMonitor"]


class ResourceSample(typing.NamedTuple):
    """One occupancy transition of one resource."""

    time: float
    occupancy: int
    queued: int
    saturated: bool


class ResourceTimeline:
    """The piecewise-constant occupancy history of one resource.

    Each sample holds from its timestamp until the next sample; the last
    sample holds forever.  Consecutive identical states are coalesced and a
    same-timestamp re-record replaces the previous sample, so the series is
    strictly increasing in time with no redundant points.
    """

    __slots__ = ("name", "kind", "_times", "_samples")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        #: ``"bandwidth"`` | ``"fifo"`` | ``"gate"``.
        self.kind = kind
        self._times: list[float] = []
        self._samples: list[ResourceSample] = []

    def record(
        self, time: float, occupancy: int, queued: int, saturated: bool = False
    ) -> None:
        """Append one transition (coalescing no-ops and same-time updates)."""
        samples = self._samples
        if samples:
            last = samples[-1]
            if (
                last.occupancy == occupancy
                and last.queued == queued
                and last.saturated == saturated
            ):
                return
            if last.time == time:
                samples[-1] = ResourceSample(time, occupancy, queued, saturated)
                return
        samples.append(ResourceSample(time, occupancy, queued, saturated))
        self._times.append(time)

    # -- queries -------------------------------------------------------------

    @property
    def samples(self) -> list[ResourceSample]:
        """The recorded transitions, chronologically."""
        return list(self._samples)

    def seconds_matching(
        self,
        start: float,
        end: float,
        predicate: typing.Callable[[ResourceSample], bool],
    ) -> float:
        """Total seconds in ``[start, end]`` whose sample satisfies ``predicate``.

        Time before the first sample counts as not matching (the resource
        did not exist / was idle).
        """
        if end <= start or not self._samples:
            return 0.0
        total = 0.0
        index = max(0, bisect.bisect_right(self._times, start) - 1)
        times, samples = self._times, self._samples
        count = len(samples)
        while index < count:
            sample = samples[index]
            seg_start = max(sample.time, start)
            seg_end = times[index + 1] if index + 1 < count else end
            seg_end = min(seg_end, end)
            if seg_end > seg_start and predicate(sample):
                total += seg_end - seg_start
            if seg_end >= end:
                break
            index += 1
        return total

    def contended_seconds(self, start: float, end: float) -> float:
        """Seconds in the window with >= 2 sharers on a saturated resource."""
        return self.seconds_matching(
            start, end, lambda s: s.occupancy >= 2 and s.saturated
        )

    def queued_seconds(self, start: float, end: float) -> float:
        """Seconds in the window with at least one request queued."""
        return self.seconds_matching(start, end, lambda s: s.queued >= 1)

    def max_occupancy(self) -> int:
        return max((s.occupancy for s in self._samples), default=0)

    def max_queued(self) -> int:
        return max((s.queued for s in self._samples), default=0)

    def to_dict(self, until: float) -> dict:
        """Summary stats over ``[first sample, until]`` (JSON-ready)."""
        first = self._samples[0].time if self._samples else until
        return {
            "kind": self.kind,
            "samples": len(self._samples),
            "max_occupancy": self.max_occupancy(),
            "max_queued": self.max_queued(),
            "contended_seconds": self.contended_seconds(first, until),
            "queued_seconds": self.queued_seconds(first, until),
        }

    def __repr__(self) -> str:
        return (
            f"<ResourceTimeline {self.name!r} kind={self.kind} "
            f"samples={len(self._samples)}>"
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
