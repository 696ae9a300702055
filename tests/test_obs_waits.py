"""Tests for wait-state attribution (repro.obs.waits).

Two layers:

* **decision rules** — synthetic spans/flows/timelines injected into a fresh
  machine's recorder exercise each classification branch in isolation;
* **end-to-end coverage** — real collective runs must classify every blocked
  interval, including the ISSUE acceptance bar: no cell of the verify quick
  grid leaves more than 1% of its makespan ``unattributed``.
"""

import numpy as np
import pytest

from repro.bench.runner import build, looped_program, operation_body
from repro.core import FixedPolicy
from repro.machine import ClusterSpec
from repro.mpi.ops import SUM
from repro.obs.critical import critical_path
from repro.obs.monitor import ResourceMonitor
from repro.obs.spans import PhaseSpan
from repro.obs.taxonomy import (
    FLOW_PUT_COUNTER,
    FLOW_RING_SIGNAL,
    RING_STEP,
    WAIT_BANDWIDTH_CONTENTION,
    WAIT_DETECTION_ONLY,
    WAIT_LATE_RELEASE,
    WAIT_LATE_SENDER,
    WAIT_RESOURCE_QUEUEING,
    WAIT_STATES,
    WAIT_UNATTRIBUTED,
)
from repro.obs.waits import WaitInterval, WaitReport, classify_waits
from repro.verify.runner import quick_grid


# ---------------------------------------------------------------------------
# Synthetic decision-rule tests
# ---------------------------------------------------------------------------


def synthetic_machine():
    """A built (never launched) machine: empty recorder, live monitor."""
    machine, _ = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    return machine


def add_wait(machine, rank, start, end, phase="flag-wait", context=None):
    """Append a closed wait span (optionally nested under a context span)."""
    recorder = machine.obs.recorder
    parent = -1
    depth = 0
    if context is not None:
        outer = PhaseSpan(
            index=len(recorder.spans), rank=rank, name=context,
            start=start, depth=0, parent=-1, track=0,
        )
        outer.end = end
        recorder.spans.append(outer)
        parent = outer.index
        depth = 1
    span = PhaseSpan(
        index=len(recorder.spans), rank=rank, name=phase,
        start=start, depth=depth, parent=parent, track=0,
    )
    span.end = end
    recorder.spans.append(span)
    return span


def only_interval(machine, **kwargs):
    report = classify_waits(machine, start=0.0, end=100.0, **kwargs)
    assert len(report.intervals) == 1
    return report.intervals[0]


def test_late_release_when_transit_dominates():
    machine = synthetic_machine()
    add_wait(machine, 0, 10.0, 20.0, context=RING_STEP)
    # Issued exactly as the wait began, then ten seconds in flight.
    machine.obs.recorder.flow(FLOW_PUT_COUNTER, 2, 10.0, 0, 20.0)
    interval = only_interval(machine)
    assert interval.state == WAIT_LATE_RELEASE
    assert interval.context == RING_STEP
    assert interval.link_kind == FLOW_PUT_COUNTER
    assert interval.resource is None


def test_late_sender_when_issue_lag_dominates():
    machine = synthetic_machine()
    add_wait(machine, 1, 30.0, 40.0)
    # The peer only issued the release at t=38: eight seconds of issue lag
    # versus two of transit.
    machine.obs.recorder.flow(FLOW_PUT_COUNTER, 3, 38.0, 1, 40.0)
    interval = only_interval(machine)
    assert interval.state == WAIT_LATE_SENDER
    assert interval.context == "-"


def test_late_release_upgrades_to_bandwidth_contention():
    machine = synthetic_machine()
    add_wait(machine, 0, 10.0, 20.0, context=RING_STEP)
    machine.obs.recorder.flow(FLOW_PUT_COUNTER, 2, 10.0, 0, 20.0)
    # The destination node's memory bus was saturated by two sharers for the
    # whole flight window.
    bus = machine.obs.monitor.get("bus[0]")
    assert bus is not None
    bus.record(10.0, 2, 0, True)
    bus.record(20.0, 0, 0, False)
    interval = only_interval(machine)
    assert interval.state == WAIT_BANDWIDTH_CONTENTION
    assert interval.resource == "bus[0]"


def test_contention_below_threshold_stays_late_release():
    machine = synthetic_machine()
    add_wait(machine, 0, 10.0, 20.0)
    machine.obs.recorder.flow(FLOW_PUT_COUNTER, 2, 10.0, 0, 20.0)
    # Saturated for only 3 of the 10 in-flight seconds: under the 50% bar.
    bus = machine.obs.monitor.get("bus[0]")
    bus.record(10.0, 2, 0, True)
    bus.record(13.0, 0, 0, False)
    interval = only_interval(machine)
    assert interval.state == WAIT_LATE_RELEASE
    assert interval.resource is None


def test_satisfied_on_entry_is_detection_only():
    machine = synthetic_machine()
    add_wait(machine, 0, 50.0, 51.0)
    # The release landed before (at) the moment the wait began: the one
    # second is all spin-poll detection tail, nothing was late.
    machine.obs.recorder.flow(FLOW_PUT_COUNTER, 2, 49.0, 0, 50.0)
    interval = only_interval(machine)
    assert interval.state == WAIT_DETECTION_ONLY


def test_linkless_short_block_is_detection_only():
    machine = synthetic_machine()
    bound = machine.cost.flag_poll_interval
    add_wait(machine, 0, 5.0, 5.0 + bound)
    interval = only_interval(machine)
    assert interval.state == WAIT_DETECTION_ONLY


def test_linkless_block_behind_full_fifo_is_resource_queueing():
    machine = synthetic_machine()
    add_wait(machine, 2, 60.0, 70.0)
    dma = machine.obs.monitor.register("dma[1]", "fifo")
    dma.record(60.0, 1, 2, True)
    dma.record(70.0, 0, 0, False)
    interval = only_interval(machine)
    assert interval.state == WAIT_RESOURCE_QUEUEING
    assert interval.resource == "dma[1]"


def test_linkless_block_under_saturation_is_bandwidth_contention():
    machine = synthetic_machine()
    add_wait(machine, 3, 80.0, 90.0)  # rank 3 lives on node 1
    bus = machine.obs.monitor.get("bus[1]")
    bus.record(80.0, 2, 0, True)
    bus.record(90.0, 0, 0, False)
    interval = only_interval(machine)
    assert interval.state == WAIT_BANDWIDTH_CONTENTION
    assert interval.resource == "bus[1]"


def test_unexplained_block_stays_unattributed():
    machine = synthetic_machine()
    add_wait(machine, 1, 40.0, 45.0, phase="counter-wait")
    interval = only_interval(machine)
    assert interval.state == WAIT_UNATTRIBUTED
    report = classify_waits(machine, start=0.0, end=100.0)
    assert report.unattributed_fraction() == pytest.approx(0.05)


def test_window_clips_and_filters_spans():
    machine = synthetic_machine()
    add_wait(machine, 0, 10.0, 20.0)   # straddles the window end
    add_wait(machine, 1, 90.0, 95.0)   # entirely outside
    report = classify_waits(machine, start=0.0, end=15.0)
    assert len(report.intervals) == 1
    assert report.intervals[0].end == pytest.approx(15.0)


# ---------------------------------------------------------------------------
# WaitReport aggregation
# ---------------------------------------------------------------------------


def make_interval(rank=0, start=0.0, end=1.0, state=WAIT_LATE_SENDER,
                  context="ring-step", resource=None, critical=False):
    return WaitInterval(
        rank=rank, start=start, end=end, phase="flag-wait", context=context,
        state=state, resource=resource, on_critical_path=critical,
        link_kind=None,
    )


def test_report_aggregations():
    intervals = [
        make_interval(rank=0, start=0.0, end=3.0, critical=True),
        make_interval(rank=1, start=0.0, end=1.0,
                      state=WAIT_BANDWIDTH_CONTENTION, resource="bus[0]"),
        make_interval(rank=1, start=2.0, end=4.0, state=WAIT_UNATTRIBUTED,
                      context="-"),
    ]
    report = WaitReport(intervals, start=0.0, end=10.0)
    assert report.makespan == pytest.approx(10.0)
    assert report.total_blocked == pytest.approx(6.0)
    # Largest state first.
    assert list(report.by_state()) == [
        WAIT_LATE_SENDER, WAIT_UNATTRIBUTED, WAIT_BANDWIDTH_CONTENTION,
    ]
    assert report.by_state(critical_only=True) == {WAIT_LATE_SENDER: 3.0}
    # by_key is key-sorted; keys carry state|context|resource.
    keys = list(report.by_key())
    assert keys == sorted(keys)
    assert "bandwidth-contention|ring-step|bus[0]" in keys
    assert report.summary_us()["late-sender|ring-step|-"] == pytest.approx(3e6)
    assert report.by_rank_state()[(1, WAIT_UNATTRIBUTED)] == pytest.approx(2.0)
    assert report.unattributed_fraction() == pytest.approx(0.2)
    data = report.to_dict()
    assert data["intervals"] == 3
    assert data["blocked_us"] == pytest.approx(6e6)
    assert data["unattributed_fraction"] == pytest.approx(0.2)
    assert list(data["detail_us"]) == sorted(data["detail_us"])


def test_interval_key_and_duration():
    interval = make_interval(resource="nic_in[2]",
                             state=WAIT_BANDWIDTH_CONTENTION)
    assert interval.key() == "bandwidth-contention|ring-step|nic_in[2]"
    assert interval.duration == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# End-to-end classification
# ---------------------------------------------------------------------------


def run_allreduce(nodes=2, tasks=2, nbytes=4096, policy=None):
    machine, stack = build(
        "srm", ClusterSpec(nodes=nodes, tasks_per_node=tasks), policy=policy
    )
    total = machine.spec.total_tasks
    count = max(1, nbytes // 8)
    sources = {r: np.full(count, float(r + 1)) for r in range(total)}
    outs = {r: np.zeros(count) for r in range(total)}

    def program(task):
        yield from stack.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    result = machine.launch(program)
    return machine, result


def classify(machine, result):
    path = critical_path(
        machine.obs.recorder, start=result.start_time, end=result.end_time
    )
    return classify_waits(
        machine, start=result.start_time, end=result.end_time, critical=path
    )


def test_allreduce_waits_fully_classified():
    machine, result = run_allreduce()
    report = classify(machine, result)
    assert report.intervals
    assert all(i.state in WAIT_STATES for i in report.intervals)
    assert all(result.start_time <= i.start <= i.end <= result.end_time
               for i in report.intervals)
    assert report.unattributed_fraction() <= 0.01
    # The critical path runs through at least one wait.
    assert any(i.on_critical_path for i in report.intervals)


def test_ring_allreduce_waits_are_attributed():
    machine, result = run_allreduce(
        nodes=4, tasks=2, nbytes=65536, policy=FixedPolicy({"allreduce": "ring"})
    )
    report = classify(machine, result)
    ring_waits = [i for i in report.intervals if i.context == RING_STEP]
    assert ring_waits, "the ring protocol should block inside ring-step"
    # The FIFO-chained arrival signals carry flow links, so ring waits are
    # attributable like direct counter puts.
    assert any(i.link_kind == FLOW_RING_SIGNAL for i in ring_waits)
    assert report.unattributed_fraction() <= 0.01


def test_classification_is_deterministic():
    first = classify(*run_allreduce()).to_dict()
    second = classify(*run_allreduce()).to_dict()
    assert first == second


def test_monitor_records_node_resources():
    machine, _ = run_allreduce()
    monitor = machine.obs.monitor
    assert isinstance(monitor, ResourceMonitor)
    for node in range(2):
        bus = monitor.get(f"bus[{node}]")
        assert bus is not None and bus.kind == "bandwidth"
        assert bus.samples, "SMP traffic must touch the node bus"
    dump = monitor.to_dict()
    assert list(dump) == sorted(dump)


def test_quick_grid_leaves_under_one_percent_unattributed():
    """ISSUE acceptance: every blocked interval in the verify quick grid is
    classified — unattributed stays under 1% of each cell's makespan."""
    for cell in quick_grid():
        spec = ClusterSpec(nodes=cell.nodes, tasks_per_node=cell.procs)
        machine, stack = build("srm", spec)
        body = operation_body(machine, stack, cell.operation, cell.nbytes)
        result = machine.launch(looped_program(body, 2))
        report = classify(machine, result)
        assert report.intervals, cell.cell_id
        fraction = report.unattributed_fraction()
        assert fraction <= 0.01, (
            f"{cell.cell_id}: {fraction:.2%} of the makespan unattributed"
        )
