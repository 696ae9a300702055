"""Observation must never perturb the simulation.

A machine built with ``observe=False`` swaps the metrics registry and phase
recorder for no-ops; everything the simulation computes — output buffers,
makespans, even the number of engine events processed — must be bit-identical
to an instrumented run.
"""

import re

import numpy as np

from repro.core.srm import SRM
from repro.machine import ClusterSpec
from repro.machine.cluster import Machine
from repro.mpi.ops import SUM


def run_op(observe, op, nbytes, nodes=2, tasks=4):
    machine = Machine(ClusterSpec(nodes=nodes, tasks_per_node=tasks), observe=observe)
    srm = SRM(machine)
    total = machine.spec.total_tasks
    count = max(1, nbytes // 8)
    buffers = {r: np.zeros(max(1, nbytes), np.uint8) for r in range(total)}
    if total:
        buffers[0][:] = np.arange(max(1, nbytes), dtype=np.uint8) % 251
    sources = {r: np.full(count, float(r + 1)) for r in range(total)}
    outs = {r: np.zeros(count) for r in range(total)}
    destination = np.zeros(count)

    def program(task):
        if op == "broadcast":
            yield from srm.broadcast(task, buffers[task.rank], root=0)
        elif op == "reduce":
            dst = destination if task.rank == 0 else None
            yield from srm.reduce(task, sources[task.rank], dst, SUM, root=0)
        elif op == "allreduce":
            yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)
        else:
            yield from srm.barrier(task)

    result = machine.launch(program)
    data = {
        "broadcast": buffers,
        "reduce": {0: destination},
        "allreduce": outs,
        "barrier": {},
    }[op]
    return machine, result, data


def assert_invariant(op, nbytes):
    machine_on, result_on, data_on = run_op(True, op, nbytes)
    machine_off, result_off, data_off = run_op(False, op, nbytes)
    # Identical timing, to the last event...
    assert result_on.elapsed == result_off.elapsed
    assert result_on.finish_times == result_off.finish_times
    assert machine_on.engine.now == machine_off.engine.now
    assert machine_on.engine.events_processed == machine_off.engine.events_processed
    # ...and bit-identical data.
    assert set(data_on) == set(data_off)
    for rank in data_on:
        assert np.array_equal(data_on[rank], data_off[rank])
    # The off switch really is off; the on switch really recorded.
    assert not machine_off.obs.recorder.spans
    assert not machine_off.obs.recorder.flows
    assert machine_off.obs.metrics.to_dict() == {}
    assert machine_on.obs.recorder.spans


def test_broadcast_small_invariant():
    assert_invariant("broadcast", 8192)


def test_broadcast_large_invariant():
    assert_invariant("broadcast", 262144)


def test_reduce_invariant():
    assert_invariant("reduce", 16384)


def test_allreduce_exchange_invariant():
    assert_invariant("allreduce", 8192)


def test_allreduce_pipelined_invariant():
    assert_invariant("allreduce", 262144)


def test_barrier_invariant():
    assert_invariant("barrier", 0)


def test_observe_flag_defaults_on():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=2))
    assert machine.obs.enabled
    assert machine.obs.metrics.enabled


# ---------------------------------------------------------------------------
# compiled replay: replayed windows must re-emit the recorded observability
# ---------------------------------------------------------------------------


def _window_spans(recorder, t0, t1):
    """Spans of one window, time-shifted and with window-relative parents.

    The window is half-open in the span's *start*: zero-length spans (e.g.
    ``request`` dispatch) sit exactly on quiescence boundaries, so a span
    starting at ``t1`` belongs to the next window, not this one.
    """
    eps = 1e-9
    rows = [
        (index, span)
        for index, span in enumerate(recorder.spans)
        if span.start >= t0 - eps
        and span.start < t1 - eps
        and span.end is not None
        and span.end <= t1 + eps
    ]
    base = rows[0][0] if rows else 0
    normalized = []
    for index, span in rows:
        detail = re.sub(r"#\d+", "#N", span.detail or "")
        parent = span.parent - base if span.parent >= 0 else -1
        normalized.append(
            (
                span.name,
                span.rank,
                span.depth,
                span.track,
                round(span.start - t0, 9),
                round(span.end - t0, 9),
                parent,
                detail,
            )
        )
    return normalized


def _record_counts(machine):
    """Flow links recorded so far, and samples per resource timeline."""
    obs = machine.obs
    samples = {name: len(t.samples) for name, t in obs.monitor.timelines.items()}
    return len(obs.recorder.flows), samples


def test_replayed_window_reemits_recorded_observability():
    """Phase spans, flow links, resource samples, critical-path breakdown,
    and wait classification of a replayed window match the recorded run it
    was compiled from (shifted to the replay window's start; invocation
    numbers normalized)."""
    from repro.core import SRMConfig
    from repro.obs.critical import critical_path
    from repro.obs.waits import classify_waits

    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    srm = SRM(machine, config=SRMConfig(compiled_replay=True))
    total = machine.spec.total_tasks
    buffers = {r: np.zeros(2048, np.uint8) for r in range(total)}
    plans = [srm.plan_broadcast(machine.task(r), buffers[r], root=0) for r in range(total)]

    manager = None
    windows = []  # (t0, t1, was_hit, counts at start, counts at end)
    for window in range(8):
        buffers[0][:] = window + 1
        t0 = machine.engine.now
        counts = _record_counts(machine)
        hits_before = machine.engine.trace.hit_count if machine.engine.trace else 0
        for plan in plans:
            plan.start()
        machine.engine.run()
        manager = machine.engine.trace
        windows.append(
            (t0, machine.engine.now, manager.hit_count > hits_before, counts, _record_counts(machine))
        )

    # Pick a recorded (miss) window and a replayed (hit) window of the same
    # slot parity — the replay applied exactly that recorded trace.
    recorded = max(i for i, (_, _, hit, _, _) in enumerate(windows) if not hit)
    replayed = max(
        i for i, (_, _, hit, _, _) in enumerate(windows) if hit and i % 2 == recorded % 2
    )
    rec_t0, rec_t1, _, rec_from, rec_to = windows[recorded]
    rep_t0, rep_t1, _, rep_from, rep_to = windows[replayed]

    # Same wall of phase spans, time-shifted.
    recorder = machine.obs.recorder
    rec_spans = _window_spans(recorder, rec_t0, rec_t1)
    rep_spans = _window_spans(recorder, rep_t0, rep_t1)
    assert rec_spans, "recorded window produced no spans"
    assert rec_spans == rep_spans

    # Same flow links, time-shifted, in the same order.
    def flow_rows(start, stop, t0):
        return [
            (link.kind, link.src_rank, round(link.src_ts - t0, 9), link.dst_rank,
             round(link.dst_ts - t0, 9), link.detail)
            for link in recorder.flows[start:stop]
        ]

    rec_flows = flow_rows(rec_from[0], rec_to[0], rec_t0)
    assert rec_flows, "recorded window produced no flow links"
    assert rec_flows == flow_rows(rep_from[0], rep_to[0], rep_t0)

    # Same occupancy signal on every resource, time-shifted.  A replayed
    # window's first sample goes through record() and may coalesce into the
    # state the window began in, so compare the changes of state.
    def state_changes(name, start, stop, t0):
        samples = machine.obs.monitor.timelines[name].samples
        first = start.get(name, 0)
        state = samples[first - 1][1:] if first else None
        changes = []
        for sample in samples[first : stop[name]]:
            if sample[1:] != state:
                state = sample[1:]
                changes.append((round(sample.time - t0, 9), *state))
        return changes

    rec_changes = {name: state_changes(name, rec_from[1], rec_to[1], rec_t0) for name in rec_to[1]}
    assert any(rec_changes.values()), "recorded window changed no resource state"
    assert rec_changes == {
        name: state_changes(name, rep_from[1], rep_to[1], rep_t0) for name in rep_to[1]
    }

    # Same critical-path breakdown over the window...
    rec_path = critical_path(recorder, start=rec_t0, end=rec_t1)
    rep_path = critical_path(recorder, start=rep_t0, end=rep_t1)
    rec_segments = [
        (s.phase, s.rank, round(s.start - rec_t0, 9), round(s.end - rec_t0, 9))
        for s in rec_path.segments
    ]
    rep_segments = [
        (s.phase, s.rank, round(s.start - rep_t0, 9), round(s.end - rep_t0, 9))
        for s in rep_path.segments
    ]
    assert rec_segments == rep_segments

    # ...and the same wait-state classification.
    rec_waits = classify_waits(machine, start=rec_t0, end=rec_t1)
    rep_waits = classify_waits(machine, start=rep_t0, end=rep_t1)

    def wait_rows(report, t0):
        return sorted(
            (
                interval.rank,
                interval.phase,
                interval.context,
                interval.state,
                interval.resource,
                interval.on_critical_path,
                round(interval.start - t0, 9),
                round(interval.end - t0, 9),
            )
            for interval in report.intervals
        )

    assert wait_rows(rec_waits, rec_t0) == wait_rows(rep_waits, rep_t0)


def test_replayed_windows_keep_no_object_per_record():
    """Spans, flow links and resource samples are stored as columns, so the
    records of replayed windows add (almost) nothing for the cyclic garbage
    collector to walk: at most 1% of the records as tracked objects."""
    import gc

    from repro.core import SRMConfig

    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    srm = SRM(machine, config=SRMConfig(compiled_replay=True))
    total = machine.spec.total_tasks
    buffers = [np.zeros(65536, np.uint8) for _ in range(total)]
    plans = [srm.plan_broadcast(machine.task(r), buffers[r], root=0) for r in range(total)]

    def window():
        for plan in plans:
            plan.start()
        machine.engine.run()

    def records():
        obs = machine.obs
        flows, samples = _record_counts(machine)
        return len(obs.recorder.spans) + flows + sum(samples.values())

    for _ in range(4):  # record both slot parities, then replay
        window()
    hits = machine.engine.trace.hit_count
    gc.collect()
    objects, recorded = len(gc.get_objects()), records()
    for _ in range(10):
        window()
    gc.collect()
    grown, recorded = len(gc.get_objects()) - objects, records() - recorded
    assert machine.engine.trace.hit_count == hits + 10
    assert recorded > 5000
    assert grown <= 0.01 * recorded
