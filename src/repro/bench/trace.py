"""Collective-call tracing and ASCII timeline rendering.

:func:`trace_call` launches one call of a :data:`~repro.core.programs.PROGRAMS`
row on every rank of a fresh machine.  Each rank's program returns its
substrate counters (copies, reduce passes, puts, MPI messages, interrupts,
yields) as its call returns, so the :class:`~repro.machine.cluster.LaunchResult`
is the whole call record: the common start, each rank's finish time in
completion order, and each rank's counters.  The timeline renderer draws
rank lanes against simulated time — a poor man's Vampir — which makes the
pipelining structure of the SRM protocols (and the serial hops of the
baselines) directly visible:

    rank  0 BBBBBBBB............
    rank  1 BBBBBBBBBBBBB.......
    rank  4 BBBBBBBBBBBBBBBBB...

Used by ``python -m repro trace``/``profile`` and handy in tests to assert
*how* an operation executed, not just how long it took.
"""

from __future__ import annotations

import typing

from repro.core.programs import program_for
from repro.errors import ConfigurationError
from repro.machine.cluster import LaunchResult, Machine, Task

__all__ = ["COUNTERS", "assign_glyphs", "call_counters", "timeline", "totals", "trace_call"]

#: The per-call substrate counters, in export order.
COUNTERS = ("copies", "bytes_copied", "reduce_ops", "puts", "mpi_sends", "interrupts", "yields")


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


def call_counters(task: Task) -> dict[str, int]:
    """``task``'s substrate counters, keyed by :data:`COUNTERS`."""
    stats = task.stats
    return {
        "copies": stats.copies,
        "bytes_copied": stats.bytes_copied,
        "reduce_ops": stats.reduce_ops,
        "puts": task.lapi.stats.puts,
        "mpi_sends": task.mpi.stats.sends,
        "interrupts": stats.interrupts,
        "yields": stats.yields,
    }


def trace_call(machine: Machine, stack: typing.Any, operation: str, nbytes: int) -> LaunchResult:
    """One call of ``operation``'s row on every rank of the fresh ``machine``.

    Each rank returns :func:`call_counters` when its call returns, not when
    the launch ends: a rank's counters can still grow after its call is
    done (a late LAPI interrupt, a forwarded put), and those belong to no
    call.  The machine must be fresh, so the counters cover this one call.
    """
    run = program_for(operation)(machine.spec.total_tasks, nbytes)

    def program(task: Task):
        yield from run.call(stack, task)
        return call_counters(task)

    return machine.launch(program)


def totals(result: LaunchResult) -> dict[str, int]:
    """Each counter of :func:`trace_call`'s record, summed over ranks."""
    return {key: sum(counters[key] for counters in result.results.values()) for key in COUNTERS}


def timeline(
    operation: str, result: LaunchResult, width: int = 72, max_lanes: int = 32
) -> str:
    """ASCII gantt of :func:`trace_call`'s record: one lane per rank."""
    if width < 1:
        raise ConfigurationError(f"timeline width must be >= 1 column, got {width}")
    start = result.start_time
    extent = max(result.end_time - start, 1e-12)
    ranks = sorted(result.finish_times)
    glyph = assign_glyphs([operation])[operation]
    lines = [
        f"t = {start * 1e6:.1f} .. {result.end_time * 1e6:.1f} us "
        f"({extent * 1e6:.1f} us span, {len(ranks)} spans)"
    ]
    shown = ranks[:max_lanes]
    for rank in shown:
        last = int((result.finish_times[rank] - start) / extent * (width - 1))
        lines.append(f"rank {rank:>4} " + glyph * (last + 1) + "." * (width - last - 1))
    if len(shown) < len(ranks):
        lines.append(f"... ({len(ranks) - len(shown)} more lanes)")
    lines.append(f"legend: {glyph}={operation}")
    return "\n".join(lines)
