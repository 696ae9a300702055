"""Tests for the tracing / timeline module."""

import numpy as np
import pytest

from repro.bench import build
from repro.bench.trace import Tracer, assign_glyphs
from repro.machine import ClusterSpec
from repro.mpi.ops import SUM


def traced_machine(name="srm", nodes=2, tasks=2):
    machine, stack = build(name, ClusterSpec(nodes=nodes, tasks_per_node=tasks))
    tracer = Tracer(machine)
    return machine, tracer, tracer.wrap(stack)


def run_broadcast(machine, traced, nbytes=1024, repeats=1):
    total = machine.spec.total_tasks
    buffers = {r: np.zeros(nbytes, np.uint8) for r in range(total)}
    buffers[0][:] = 1

    def program(task):
        for _ in range(repeats):
            yield from traced.broadcast(task, buffers[task.rank], root=0)

    machine.launch(program)
    return buffers


def test_spans_cover_every_rank():
    machine, tracer, traced = traced_machine()
    run_broadcast(machine, traced)
    assert {span.rank for span in tracer.spans} == {0, 1, 2, 3}
    assert all(span.operation == "broadcast" for span in tracer.spans)


def test_span_times_ordered_and_positive():
    machine, tracer, traced = traced_machine()
    run_broadcast(machine, traced)
    for span in tracer.spans:
        assert span.end >= span.start
        assert span.duration >= 0


def test_call_index_increments_per_repeat():
    machine, tracer, traced = traced_machine()
    run_broadcast(machine, traced, repeats=3)
    indices = sorted(s.call_index for s in tracer.calls("broadcast") if s.rank == 0)
    assert indices == [0, 1, 2]


def test_makespan_matches_engine_span():
    machine, tracer, traced = traced_machine()
    run_broadcast(machine, traced)
    assert tracer.makespan("broadcast") == pytest.approx(machine.now, rel=0.01)


def test_makespan_unknown_call_raises():
    machine, tracer, traced = traced_machine()
    with pytest.raises(ValueError):
        tracer.makespan("broadcast")


def test_totals_count_substrate_activity():
    machine, tracer, traced = traced_machine()
    run_broadcast(machine, traced, nbytes=2048)
    totals = tracer.totals()
    assert totals["copies"] > 0
    assert totals["bytes_copied"] >= 2048
    assert totals["puts"] >= 1  # one inter-node edge
    assert totals["mpi_sends"] == 0  # SRM never touches MPI p2p


def test_mpi_stack_records_sends_not_puts():
    machine, tracer, traced = traced_machine(name="ibm")
    run_broadcast(machine, traced)
    totals = tracer.totals()
    assert totals["mpi_sends"] >= 3
    assert totals["puts"] == 0


def test_all_operations_traceable():
    machine, tracer, traced = traced_machine()
    total = machine.spec.total_tasks
    sources = {r: np.full(16, 1.0) for r in range(total)}
    outs = {r: np.zeros(16) for r in range(total)}
    destination = np.zeros(16)

    def program(task):
        yield from traced.barrier(task)
        dst = destination if task.rank == 0 else None
        yield from traced.reduce(task, sources[task.rank], dst, SUM, root=0)
        yield from traced.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    machine.launch(program)
    operations = {span.operation for span in tracer.spans}
    assert operations == {"barrier", "reduce", "allreduce"}
    assert np.all(destination == total)


def test_timeline_renders_lanes():
    machine, tracer, traced = traced_machine()
    run_broadcast(machine, traced)
    art = tracer.timeline("broadcast", width=40)
    lines = art.splitlines()
    assert lines[0].startswith("t = ")
    assert sum(1 for line in lines if line.startswith("rank")) == 4
    assert "B" in art  # broadcast glyph


def test_glyphs_are_unique_per_operation():
    # The naive first-letter scheme collides on broadcast/barrier.
    glyphs = assign_glyphs(["broadcast", "barrier", "reduce", "allreduce"])
    assert len(set(glyphs.values())) == 4
    assert glyphs["barrier"] != glyphs["broadcast"]


def test_glyphs_fall_back_to_digits():
    # Operations sharing every letter exhaust the name-based candidates.
    glyphs = assign_glyphs(["ab", "ba", "aab", "abb"])
    assert len(set(glyphs.values())) == 4


def test_timeline_distinguishes_broadcast_and_barrier():
    machine, tracer, traced = traced_machine()
    buffers = {r: np.zeros(512, np.uint8) for r in range(4)}

    def program(task):
        yield from traced.barrier(task)
        yield from traced.broadcast(task, buffers[task.rank], root=0)

    machine.launch(program)
    art = tracer.timeline()
    legend = art.splitlines()[-1]
    assert legend.startswith("legend:")
    assert "=barrier" in legend and "=broadcast" in legend
    barrier_glyph = legend.split("=barrier")[0].split()[-1]
    broadcast_glyph = legend.split("=broadcast")[0].split()[-1]
    assert barrier_glyph != broadcast_glyph
    lanes = [line for line in art.splitlines() if line.startswith("rank")]
    assert any(barrier_glyph in lane and broadcast_glyph in lane for lane in lanes)


def test_timeline_empty():
    machine, tracer, traced = traced_machine()
    assert tracer.timeline() == "(no spans recorded)"


def test_timeline_width_must_be_positive():
    from repro.errors import ConfigurationError

    machine, tracer, traced = traced_machine()
    run_broadcast(machine, traced)
    for width in (0, -3):
        with pytest.raises(ConfigurationError, match="width"):
            tracer.timeline("broadcast", width=width)
    lanes = [line for line in tracer.timeline("broadcast", width=1).splitlines()
             if line.startswith("rank")]
    assert lanes and all(len(line) == len("rank    0 ") + 1 for line in lanes)


def test_timeline_lane_cap():
    machine, tracer, traced = traced_machine(nodes=2, tasks=4)
    run_broadcast(machine, traced)
    art = tracer.timeline("broadcast", width=30, max_lanes=3)
    assert "more lanes" in art
