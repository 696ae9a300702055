"""Nested phase spans and causal flow links, recorded against the sim clock.

A :class:`PhaseRecorder` hangs off the machine's observability hub and is fed
by every layer of the stack:

* protocols open **phases** with ``with task.phase(name):`` around
  ``yield from`` blocks — entry and exit read the engine clock, so a
  span's extent is exactly the simulated time the block covered, including
  all suspensions inside it.  The substrate operations, which open no span
  inside theirs, record **leaf** spans through :meth:`PhaseRecorder.leaf`:
  the same row, written when the operation starts, and its end stored when
  the operation resumes.  Phases nest per *simulated process*: a
  pipelined chunk phase contains the flag waits and copies it performs, and
  concurrent helper processes of the same rank (put deliveries, large-message
  forwarders, the Fig. 5 stage processes) get their own span stacks and
  their own export tracks, so sibling processes never mis-nest.  Stacks are
  keyed on the engine's process serial, and a process takes the lowest
  track on its rank that no live process holds: tracks depend on the
  simulation alone, and there are only as many as there are overlapping
  helpers.
* substrates record **flow links** — put → remote counter increment,
  flag store → waiter wakeup — giving the cross-rank causal edges that the
  critical-path walker follows and that Perfetto draws as flow arrows.

Both are stored as columns (:class:`SpanTable`, :class:`FlowTable`; see
:mod:`repro.obs.columns`), not as one object per record; reading builds
:class:`PhaseSpan` and :class:`FlowLink` values on demand.

Recording never touches the event queue and never advances the clock, so an
instrumented run is bit-identical to an uninstrumented one (asserted by
``tests/test_obs_invariance.py``).
"""

from __future__ import annotations

import math
import typing
from array import array
from dataclasses import dataclass

import numpy as np

from repro.obs.columns import ColumnTable

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task
    from repro.sim.engine import Engine

__all__ = ["PhaseSpan", "FlowLink", "SpanTable", "FlowTable", "PhaseRecorder"]

NAN = math.nan


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
        #: Per-rank export sub-track: the lowest track on this rank that no
        #: live process held when this span's process first recorded here —
        #: 0 for the program generator, 1.. for concurrent helper processes.
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


class SpanTable(ColumnTable):
    """Phase spans as columns; indexing builds :class:`PhaseSpan` values.

    ``end`` is NaN while a span is open.
    """

    FIELDS = (
        ("rank", "i"),
        ("name", ""),
        ("start", "d"),
        ("end", "d"),
        ("depth", "i"),
        ("parent", "q"),
        ("track", "i"),
        ("detail", ""),
    )
    CLOCKS = ("start", "end")

    __slots__ = ("rank", "name", "start", "end", "depth", "parent", "track", "detail")

    def _record(self, index: int, values: tuple) -> PhaseSpan:
        rank, name, start, end, depth, parent, track, detail = values
        span = PhaseSpan(index, rank, name, start, depth, parent, track, detail)
        if end == end:  # NaN, while open, is unequal to itself
            span.end = end
        return span

    def _values(self, record: PhaseSpan) -> list:
        values = super()._values(record)
        if record.end is None:
            values[3] = NAN
        return values

    def _copy(self, tail: dict[str, typing.Any], t0: float, payload: typing.Any = None) -> None:
        """Append one block: ``parent`` holds offsets into the block (or -1),
        made row indices here.  A replayed window's ``payload`` is
        (members, request numbers): each member (offset, index, before,
        after) names that window's request in a ``request`` span, whose
        detail is ``before``, the request number at ``index`` and
        ``after``."""
        base = len(self.start)
        parent = tail["parent"]
        super()._copy({**tail, "parent": np.where(parent >= 0, parent + base, -1)}, t0)
        if payload is not None:
            members, sequences = payload
            detail = self.detail
            for offset, index, before, after in members:
                detail[base + offset] = f"{before}{sequences[index]}{after}"


class FlowTable(ColumnTable):
    """Flow links as columns; indexing builds :class:`FlowLink` values."""

    FIELDS = (
        ("kind", ""),
        ("src_rank", "i"),
        ("src_ts", "d"),
        ("dst_rank", "i"),
        ("dst_ts", "d"),
        ("detail", ""),
    )
    CLOCKS = ("src_ts", "dst_ts")

    __slots__ = ("kind", "src_rank", "src_ts", "dst_rank", "dst_ts", "detail")

    def _record(self, index: int, values: tuple) -> FlowLink:
        return FlowLink(*values)

    def arrivals(self) -> dict[int, tuple[list[float], list[int]]]:
        """Per destination rank: its links' arrival times, ascending, and the
        rows holding them.  The sort is stable, so links arriving at the same
        time keep the order they were recorded in."""
        self.materialize()
        if not self.dst_ts:
            return {}
        ranks = np.frombuffer(self.dst_rank, dtype="i")
        times = np.frombuffer(self.dst_ts, dtype="d")
        order = np.lexsort((times, ranks))
        sorted_ranks = ranks[order]
        cuts = (np.flatnonzero(sorted_ranks[1:] != sorted_ranks[:-1]) + 1).tolist()
        bounds = [0, *cuts, len(order)]
        sorted_times = times[order].tolist()
        rows = order.tolist()
        return {
            rank: (sorted_times[lo:hi], rows[lo:hi])
            for rank, lo, hi in zip(sorted_ranks[bounds[:-1]].tolist(), bounds, bounds[1:])
        }


class _Lane:
    """One process's open spans and export track on one rank."""

    __slots__ = ("process", "track", "open")

    def __init__(self, process: typing.Any, track: int) -> None:
        #: The process recording here (None: code outside any process).
        self.process = process
        self.track = track
        #: Row indices of this process's open spans, innermost last.
        self.open: list[int] = []


class _PhaseContext:
    """Context manager opening/closing one span around a ``yield from``."""

    __slots__ = ("_recorder", "_rank", "_name", "_detail", "_ends", "_index", "_open")

    def __init__(
        self, recorder: "PhaseRecorder", rank: int, name: str, detail: str = ""
    ) -> None:
        self._recorder = recorder
        self._rank = rank
        self._name = name
        self._detail = detail

    def __enter__(self) -> None:
        recorder = self._recorder
        lane = recorder._lane(self._rank)
        self._ends, self._index = recorder._open_row(lane, self._rank, self._name, self._detail)
        self._open = lane.open
        self._open.append(self._index)

    def __exit__(self, exc_type, exc, tb) -> None:
        index = self._index
        self._ends[index] = self._recorder.engine.now
        stack = self._open
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:  # pragma: no cover - defensive
            stack.remove(index)
        return None


class _NullContext:
    """Shared no-op context for a disabled recorder."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_CONTEXT = _NullContext()

#: What a disabled recorder's :meth:`PhaseRecorder.leaf` returns: its close
#: writes into a throwaway slot.
_NO_LEAF = (array("d", [NAN]), 0)


class PhaseRecorder:
    """Phase spans + flow links for one machine, recorded as columns."""

    def __init__(self, engine: "Engine", enabled: bool = True) -> None:
        self.engine = engine
        self.enabled = enabled
        self.spans = SpanTable()
        self.flows = FlowTable()
        #: (rank, process serial) -> that process's lane on that rank.
        self._lanes: dict[tuple[int, int], _Lane] = {}
        #: Per rank: track -> the lane holding it.
        self._held: dict[int, dict[int, _Lane]] = {}

    # -- recording -----------------------------------------------------------

    def _lane(self, rank: int) -> _Lane:
        process = self.engine.active_process
        key = (rank, process.serial if process is not None else 0)
        lane = self._lanes.get(key)
        if lane is None:
            lane = _Lane(process, self._claim_track(rank))
            self._lanes[key] = lane
            self._held[rank][lane.track] = lane
        return lane

    def _claim_track(self, rank: int) -> int:
        """The lowest track on ``rank`` that no live process holds.

        Lanes of finished processes are released here, leftover open spans
        included, so their tracks go to the processes that come after.
        """
        held = self._held.setdefault(rank, {})
        for track, lane in list(held.items()):
            process = lane.process
            if process is not None and not process.is_alive:
                del held[track]
                del self._lanes[(rank, process.serial)]
        track = 0
        while track in held:
            track += 1
        return track

    def _open_row(self, lane: _Lane, rank: int, name: str, detail: str) -> tuple:
        """Append an open span of ``lane``'s process; returns the end column
        it must close into and its row.

        The close writes into the table the span opened in, even after a
        clear() swapped in a new one.
        """
        stack = lane.open
        spans = self.spans
        if spans._pending:
            spans.materialize()
        ends = spans.end
        row = len(ends)
        spans.rank.append(rank)
        spans.name.append(name)
        spans.start.append(self.engine.now)
        ends.append(NAN)
        spans.depth.append(len(stack))
        spans.parent.append(stack[-1] if stack else -1)
        spans.track.append(lane.track)
        spans.detail.append(detail)
        return ends, row

    def phase(self, task: "Task", name: str, detail: str = "") -> typing.ContextManager:
        """A context manager recording one phase of ``task``."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _PhaseContext(self, task.rank, name, detail)

    def leaf(self, rank: int, name: str) -> tuple:
        """Open a leaf span of ``rank``: one that opens no span inside it.

        Writes the same row ``with phase(...)`` would, but pushes nothing on
        the process's stack.  Returns ``(ends, row)``; the caller closes the
        span with ``ends[row] = engine.now`` in a ``finally`` block, so an
        operation that raises or whose process is closed ends its span the
        way a ``with`` block would::

            ends, row = recorder.leaf(task.rank, FLAG_SET)
            try:
                yield engine.timeout(cost)
            finally:
                ends[row] = engine.now

        A disabled recorder returns a shared one-slot sink.
        """
        if not self.enabled:
            return _NO_LEAF
        return self._open_row(self._lane(rank), rank, name, "")

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
        flows = self.flows
        if flows._pending:
            flows.materialize()
        flows.kind.append(kind)
        flows.src_rank.append(src_rank)
        flows.src_ts.append(src_ts)
        flows.dst_rank.append(dst_rank)
        flows.dst_ts.append(dst_ts)
        flows.detail.append(detail)

    # -- queries -------------------------------------------------------------

    def ranks(self) -> list[int]:
        self.spans.materialize()
        return sorted(set(self.spans.rank))

    def by_phase(self) -> dict[str, float]:
        """Total closed-span seconds per phase name (inclusive of children)."""
        totals: dict[str, float] = {}
        spans = self.spans
        spans.materialize()
        for name, start, end in zip(spans.name, spans.start, spans.end):
            if end != end:  # NaN: still open
                continue
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def clear(self) -> None:
        """Start new span and flow tables (their pending blocks go with them).

        Open spans survive on their processes' stacks: they still parent
        and deepen the spans opened under them, but close into the old table.
        """
        self.spans = SpanTable()
        self.flows = FlowTable()

    def __repr__(self) -> str:
        return (
            f"<PhaseRecorder spans={len(self.spans)} flows={len(self.flows)} "
            f"enabled={self.enabled}>"
        )
