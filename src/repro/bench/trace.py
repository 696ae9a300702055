"""Collective-call tracing and ASCII timeline rendering.

A :class:`Tracer` wraps any collective stack (SRM or a baseline) and records
one span per (rank, operation) call, plus the per-task substrate counters
accumulated inside it (copies, reduce passes, puts, MPI messages, interrupts,
yields).  The timeline renderer draws rank lanes against simulated time —
a poor man's Vampir — which makes the pipelining structure of the SRM
protocols (and the serial hops of the baselines) directly visible:

    rank  0 BBBBBBBB............
    rank  1 ...BBBBBBBBBB.......
    rank  4 ......BBBBBBBBBBB...

Used by ``python -m repro trace`` and handy in tests to assert *how* an
operation executed, not just how long it took.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.machine.cluster import Machine, Task
from repro.sim.process import ProcessGenerator

__all__ = ["Span", "Tracer", "TracedStack", "assign_glyphs"]


def assign_glyphs(operations: typing.Iterable[str]) -> dict[str, str]:
    """One *distinct* glyph per operation name.

    Naive first-letter glyphs collide (``broadcast`` and ``barrier`` both
    render ``B``); here each operation, in sorted order, takes the first
    unused character from its own letters, falling back to digits.
    """
    glyphs: dict[str, str] = {}
    used: set[str] = set()
    for operation in sorted(set(operations)):
        candidates = [ch.upper() for ch in operation if ch.isalnum()]
        candidates += list("0123456789")
        glyph = next((c for c in candidates if c not in used), "?")
        glyphs[operation] = glyph
        used.add(glyph)
    return glyphs


@dataclass(frozen=True)
class Span:
    """One rank's participation in one collective call."""

    rank: int
    operation: str
    call_index: int
    start: float
    end: float
    copies: int
    bytes_copied: int
    reduce_ops: int
    puts: int
    mpi_sends: int
    interrupts: int
    yields: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for every traced collective call on one machine."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.spans: list[Span] = []
        self._call_counter: dict[str, int] = {}

    def wrap(self, stack: typing.Any) -> "TracedStack":
        """A stack façade whose operations record spans into this tracer."""
        return TracedStack(self, stack)

    # -- recording ----------------------------------------------------------

    def _snapshot(self, task: Task) -> tuple[int, ...]:
        return (
            task.stats.copies,
            task.stats.bytes_copied,
            task.stats.reduce_ops,
            task.lapi.stats.puts,
            task.mpi.stats.sends,
            task.stats.interrupts,
            task.stats.yields,
        )

    def _record(
        self,
        task: Task,
        operation: str,
        call_index: int,
        start: float,
        before: tuple[int, ...],
    ) -> None:
        after = self._snapshot(task)
        delta = tuple(a - b for a, b in zip(after, before))
        self.spans.append(
            Span(
                rank=task.rank,
                operation=operation,
                call_index=call_index,
                start=start,
                end=task.engine.now,
                copies=delta[0],
                bytes_copied=delta[1],
                reduce_ops=delta[2],
                puts=delta[3],
                mpi_sends=delta[4],
                interrupts=delta[5],
                yields=delta[6],
            )
        )

    def _next_call(self, operation: str) -> int:
        index = self._call_counter.get(operation, 0)
        self._call_counter[operation] = index + 1
        return index

    # -- queries -------------------------------------------------------------

    def calls(self, operation: str | None = None) -> list[Span]:
        """Spans, optionally filtered by operation name."""
        if operation is None:
            return list(self.spans)
        return [span for span in self.spans if span.operation == operation]

    def makespan(self, operation: str, call_index: int = 0) -> float:
        """Latest end minus earliest start across ranks for one call."""
        spans = [
            s for s in self.spans if s.operation == operation and s.call_index == call_index
        ]
        if not spans:
            raise ValueError(f"no spans recorded for {operation}[{call_index}]")
        return max(s.end for s in spans) - min(s.start for s in spans)

    def totals(self) -> dict[str, int]:
        """Aggregate substrate counters over every recorded span."""
        keys = ("copies", "bytes_copied", "reduce_ops", "puts", "mpi_sends", "interrupts", "yields")
        return {key: sum(getattr(span, key) for span in self.spans) for key in keys}

    # -- rendering -------------------------------------------------------------

    def timeline(
        self,
        operation: str | None = None,
        width: int = 72,
        max_lanes: int = 32,
    ) -> str:
        """ASCII gantt: one lane per rank, one block per active span."""
        if width < 1:
            raise ConfigurationError(f"timeline width must be >= 1 column, got {width}")
        spans = self.calls(operation)
        if not spans:
            return "(no spans recorded)"
        start = min(s.start for s in spans)
        end = max(s.end for s in spans)
        extent = max(end - start, 1e-12)
        ranks = sorted({s.rank for s in spans})[:max_lanes]
        operations = sorted({s.operation for s in spans})
        glyphs = assign_glyphs(operations)
        lines = [
            f"t = {start * 1e6:.1f} .. {end * 1e6:.1f} us "
            f"({extent * 1e6:.1f} us span, {len(spans)} spans)"
        ]
        for rank in ranks:
            lane = ["."] * width
            for span in spans:
                if span.rank != rank:
                    continue
                first = int((span.start - start) / extent * (width - 1))
                last = int((span.end - start) / extent * (width - 1))
                for column in range(first, max(last, first) + 1):
                    lane[column] = glyphs[span.operation]
            lines.append(f"rank {rank:>4} " + "".join(lane))
        if len(ranks) < len({s.rank for s in spans}):
            lines.append(f"... ({len({s.rank for s in spans}) - len(ranks)} more lanes)")
        lines.append("legend: " + "  ".join(f"{glyphs[op]}={op}" for op in operations))
        return "\n".join(lines)


class TracedStack:
    """Duck-typed collective stack recording spans into a Tracer."""

    def __init__(self, tracer: Tracer, stack: typing.Any) -> None:
        self._tracer = tracer
        self._stack = stack
        self.name = f"traced:{getattr(stack, 'name', type(stack).__name__)}"

    def _traced(
        self, operation: str, task: Task, call: typing.Callable[[], ProcessGenerator]
    ) -> ProcessGenerator:
        call_index = self._tracer._next_call(f"{operation}:{task.rank}")
        start = task.engine.now
        before = self._tracer._snapshot(task)
        yield from call()
        self._tracer._record(task, operation, call_index, start, before)

    def broadcast(self, task: Task, buffer, root: int = 0) -> ProcessGenerator:
        yield from self._traced(
            "broadcast", task, lambda: self._stack.broadcast(task, buffer, root)
        )

    def reduce(self, task: Task, src, dst=None, op=None, root: int = 0) -> ProcessGenerator:
        from repro.mpi.ops import SUM

        yield from self._traced(
            "reduce", task, lambda: self._stack.reduce(task, src, dst, op or SUM, root)
        )

    def allreduce(self, task: Task, src, dst, op=None) -> ProcessGenerator:
        from repro.mpi.ops import SUM

        yield from self._traced(
            "allreduce", task, lambda: self._stack.allreduce(task, src, dst, op or SUM)
        )

    def barrier(self, task: Task) -> ProcessGenerator:
        yield from self._traced("barrier", task, lambda: self._stack.barrier(task))
