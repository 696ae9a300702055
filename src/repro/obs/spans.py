"""Nested phase spans and causal flow links, recorded against the sim clock.

A :class:`PhaseRecorder` hangs off the machine's observability hub and is fed
by every layer of the stack:

* protocols and substrates open **phases** with ``with task.phase(name):``
  around ``yield from`` blocks — entry and exit read the engine clock, so a
  span's extent is exactly the simulated time the block covered, including
  all suspensions inside it.  Phases nest per *simulated process*: a
  pipelined chunk phase contains the flag waits and copies it performs, and
  concurrent helper processes of the same rank (put deliveries, large-message
  forwarders, the Fig. 5 stage processes) get their own span stacks and
  their own export tracks, so sibling processes never mis-nest.
* substrates record **flow links** — put → remote counter increment,
  flag store → waiter wakeup — giving the cross-rank causal edges that the
  critical-path walker follows and that Perfetto draws as flow arrows.

Recording never touches the event queue and never advances the clock, so an
instrumented run is bit-identical to an uninstrumented one (asserted by
``tests/test_obs_invariance.py``).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task
    from repro.sim.engine import Engine

__all__ = ["PhaseSpan", "FlowLink", "PhaseRecorder"]


class PhaseSpan:
    """One annotated phase of one rank (possibly nested)."""

    __slots__ = ("index", "rank", "name", "start", "end", "depth", "parent", "track", "detail")

    def __init__(
        self,
        index: int,
        rank: int,
        name: str,
        start: float,
        depth: int,
        parent: int,
        track: int,
        detail: str = "",
    ) -> None:
        self.index = index
        self.rank = rank
        self.name = name
        self.start = start
        #: ``None`` while the phase is still open.
        self.end: float | None = None
        #: Nesting depth within this span's process (0 = outermost).
        self.depth = depth
        #: Index of the enclosing span, or -1 for a root span.
        self.parent = parent
        #: Per-rank sub-track: 0 for the first process that recorded a phase
        #: on this rank (the program generator), 1.. for helper processes.
        self.track = track
        #: Free-form attribute (e.g. the dispatch layer's ``op/variant``).
        self.detail = detail

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def __repr__(self) -> str:
        end = f"{self.end:.6g}" if self.end is not None else "open"
        return (
            f"<PhaseSpan {self.name} rank={self.rank} track={self.track} "
            f"[{self.start:.6g}..{end}] depth={self.depth}>"
        )


@dataclass(frozen=True)
class FlowLink:
    """A causal edge from one rank's action to another rank's progress."""

    kind: str
    src_rank: int
    src_ts: float
    dst_rank: int
    dst_ts: float
    detail: str = ""


class _PhaseContext:
    """Context manager opening/closing one span around a ``yield from``."""

    __slots__ = ("_recorder", "_rank", "_name", "_detail", "_span")

    def __init__(
        self, recorder: "PhaseRecorder", rank: int, name: str, detail: str = ""
    ) -> None:
        self._recorder = recorder
        self._rank = rank
        self._name = name
        self._detail = detail
        self._span: PhaseSpan | None = None

    def __enter__(self) -> PhaseSpan:
        self._span = self._recorder._open_span(self._rank, self._name, self._detail)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._span is not None
        self._recorder._close_span(self._rank, self._span)
        return None


class _NullContext:
    """Shared no-op context for a disabled recorder."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class PhaseRecorder:
    """Phase spans + flow links for one machine."""

    def __init__(self, engine: "Engine", enabled: bool = True) -> None:
        self.engine = engine
        self.enabled = enabled
        self.spans: list[PhaseSpan] = []
        self.flows: list[FlowLink] = []
        #: Open-span stacks keyed by (rank, process identity).
        self._stacks: dict[tuple[int, int], list[PhaseSpan]] = {}
        #: Export sub-track per (rank, process identity).
        self._tracks: dict[tuple[int, int], int] = {}
        self._next_track: dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def _process_key(self, rank: int) -> tuple[int, int]:
        active = self.engine.active_process
        return (rank, id(active) if active is not None else 0)

    def phase(self, task: "Task", name: str, detail: str = "") -> typing.ContextManager:
        """A context manager recording one phase of ``task``."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _PhaseContext(self, task.rank, name, detail)

    def _open_span(self, rank: int, name: str, detail: str = "") -> PhaseSpan:
        key = self._process_key(rank)
        stack = self._stacks.get(key)
        if stack is None:
            stack = []
            self._stacks[key] = stack
        track = self._tracks.get(key)
        if track is None:
            track = self._next_track.get(rank, 0)
            self._next_track[rank] = track + 1
            self._tracks[key] = track
        parent = stack[-1].index if stack else -1
        span = PhaseSpan(
            index=len(self.spans),
            rank=rank,
            name=name,
            start=self.engine.now,
            depth=len(stack),
            parent=parent,
            track=track,
            detail=detail,
        )
        self.spans.append(span)
        stack.append(span)
        return span

    def _close_span(self, rank: int, span: PhaseSpan) -> None:
        span.end = self.engine.now
        key = self._process_key(rank)
        stack = self._stacks.get(key)
        if stack and stack[-1] is span:
            stack.pop()
            if not stack:
                del self._stacks[key]
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)

    def flow(
        self,
        kind: str,
        src_rank: int,
        src_ts: float,
        dst_rank: int,
        dst_ts: float,
        detail: str = "",
    ) -> None:
        """Record a causal edge (no-op when disabled)."""
        if not self.enabled:
            return
        self.flows.append(FlowLink(kind, src_rank, src_ts, dst_rank, dst_ts, detail))

    # -- queries -------------------------------------------------------------

    def ranks(self) -> list[int]:
        return sorted({span.rank for span in self.spans})

    def by_phase(self) -> dict[str, float]:
        """Total closed-span seconds per phase name (inclusive of children)."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.end is None:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def clear(self) -> None:
        """Drop all recorded spans and flows (open stacks survive)."""
        self.spans = []
        self.flows = []

    def __repr__(self) -> str:
        return (
            f"<PhaseRecorder spans={len(self.spans)} flows={len(self.flows)} "
            f"enabled={self.enabled}>"
        )
