"""Tests for the call record (`repro.bench.trace`) and its renderings."""

import pytest

from repro.bench import build
from repro.bench.runner import STACKS
from repro.bench.trace import (
    COUNTERS,
    assign_glyphs,
    call_counters,
    timeline,
    totals,
    trace_call,
)
from repro.core.programs import PROGRAMS
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec
from repro.obs.export import chrome_trace, metrics_dump

LANE_PREFIX = len("rank    0 ")


def traced(operation="broadcast", name="srm", nodes=2, tasks=2, nbytes=1024):
    machine, stack = build(name, ClusterSpec(nodes=nodes, tasks_per_node=tasks))
    return machine, trace_call(machine, stack, operation, nbytes)


def lanes(art):
    return [line for line in art.splitlines() if line.startswith("rank")]


@pytest.mark.parametrize("name", STACKS)
@pytest.mark.parametrize("operation", PROGRAMS)
def test_call_record_and_its_renderings(operation, name):
    machine, result = traced(operation, name, nbytes=2048)
    ranks = list(range(machine.spec.total_tasks))
    # One record per rank: a finish time and the rank's counters.
    assert sorted(result.finish_times) == ranks
    assert sorted(result.results) == ranks
    assert all(tuple(counters) == COUNTERS for counters in result.results.values())

    # One Perfetto call slice per rank, carrying that rank's counters.
    slices = [e for e in chrome_trace(machine, (operation, result)) if e.get("cat") == "call"]
    assert sorted(e["tid"] // 64 for e in slices) == ranks
    for event in slices:
        rank = event["tid"] // 64
        assert event["name"] == f"{operation}[0]"
        assert event["args"] == result.results[rank]
        # Read at return: no counter exceeds the rank's launch-end total.
        at_end = call_counters(machine.tasks[rank])
        assert all(event["args"][key] <= at_end[key] for key in COUNTERS)
        assert event["ts"] == result.start_time * 1e6
        assert event["dur"] == (result.finish_times[rank] - result.start_time) * 1e6

    # The metrics dump lists the same calls, in the same (completion) order.
    calls = metrics_dump(machine, (operation, result))["calls"]
    assert [call["rank"] for call in calls] == [e["tid"] // 64 for e in slices]
    for call, event in zip(calls, slices):
        assert call["operation"] == operation and call["call_index"] == 0
        assert call["start"] * 1e6 == event["ts"]
        assert (call["end"] - call["start"]) * 1e6 == event["dur"]

    summed = totals(result)
    assert summed == {
        key: sum(result.results[rank][key] for rank in ranks) for key in COUNTERS
    }

    art = timeline(operation, result, width=20)
    assert len(lanes(art)) == len(ranks)
    assert all(len(lane) == LANE_PREFIX + 20 for lane in lanes(art))
    capped = timeline(operation, result, width=20, max_lanes=3)
    assert len(lanes(capped)) == 3
    assert f"... ({len(ranks) - 3} more lanes)" in capped


def test_counters_are_read_when_the_call_returns():
    # In an 8 B SRM reduce on 4x4, rank 12 takes a LAPI interrupt after its
    # call has returned: the launch-end total is not the call's count.
    machine, result = traced("reduce", "srm", nodes=4, tasks=4, nbytes=8)
    assert result.results[12]["interrupts"] == 0
    assert call_counters(machine.tasks[12])["interrupts"] == 1


def test_spans_cover_every_rank():
    _machine, result = traced()
    assert set(result.finish_times) == {0, 1, 2, 3}
    assert set(result.results) == {0, 1, 2, 3}


def test_span_times_ordered_and_positive():
    _machine, result = traced()
    assert all(end >= result.start_time for end in result.finish_times.values())
    assert result.elapsed >= 0


def test_makespan_matches_engine_span():
    machine, result = traced()
    assert result.elapsed == pytest.approx(machine.now, rel=0.01)


def test_totals_count_substrate_activity():
    _machine, result = traced(nbytes=2048)
    summed = totals(result)
    assert summed["copies"] > 0
    assert summed["bytes_copied"] >= 2048
    assert summed["puts"] >= 1  # one inter-node edge
    assert summed["mpi_sends"] == 0  # SRM never touches MPI p2p


def test_mpi_stack_records_sends_not_puts():
    _machine, result = traced(name="ibm")
    summed = totals(result)
    assert summed["mpi_sends"] >= 3
    assert summed["puts"] == 0


def test_timeline_renders_lanes():
    _machine, result = traced()
    art = timeline("broadcast", result, width=40)
    lines = art.splitlines()
    assert lines[0].startswith("t = ")
    assert len(lanes(art)) == 4
    assert lines[-1] == "legend: B=broadcast"


def test_glyphs_are_unique_per_operation():
    # The naive first-letter scheme collides on broadcast/barrier.
    glyphs = assign_glyphs(["broadcast", "barrier", "reduce", "allreduce"])
    assert len(set(glyphs.values())) == 4
    assert glyphs["barrier"] != glyphs["broadcast"]


def test_glyphs_fall_back_to_digits():
    # Operations sharing every letter exhaust the name-based candidates.
    glyphs = assign_glyphs(["ab", "ba", "aab", "abb"])
    assert len(set(glyphs.values())) == 4


def test_timeline_width_must_be_positive():
    _machine, result = traced()
    for width in (0, -3):
        with pytest.raises(ConfigurationError, match="width"):
            timeline("broadcast", result, width=width)
    narrow = lanes(timeline("broadcast", result, width=1))
    assert narrow and all(len(line) == LANE_PREFIX + 1 for line in narrow)


def test_timeline_lane_cap():
    _machine, result = traced(nodes=2, tasks=4)
    art = timeline("broadcast", result, width=30, max_lanes=3)
    assert "more lanes" in art
