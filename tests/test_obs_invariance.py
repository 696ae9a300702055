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


def test_deferred_rows_read_back_unchanged_whatever_the_read_pattern():
    """A replayed window's span and flow rows wait as pending blocks until
    something reads or appends.  Two identical machines run one persistent
    program — a 2 KB broadcast from root 1, a pipelined 20,000-double SUM
    allreduce and a 16 KB reduce to root 4 — for 9 windows, rebinding every
    plan at window 5 (a re-record whose span mark falls after pending rows)
    and then one blocking allreduce (slow-path spans after pending rows).
    One machine reads every row after every window, the other only at the
    end: lengths, columns, critical path, wait report and Perfetto export
    agree.  A slow-path twin anchors the rows themselves, so a block copied
    at the wrong time or parent base fails even when both replaying
    machines copy it the same way."""
    import json

    from repro.core import SRMConfig
    from repro.obs.critical import critical_path
    from repro.obs.export import chrome_trace
    from repro.obs.waits import classify_waits

    total = 6

    def arguments():
        """Fresh buffers: per rank, the broadcast's, allreduce's and reduce's."""
        bcast = {r: np.zeros(2048, np.uint8) for r in range(total)}
        bcast[1][:] = np.arange(2048) % 251
        sources = {r: np.full(20000, float(r + 1)) for r in range(total)}
        outs = {r: np.zeros(20000) for r in range(total)}
        parts = {r: np.full(2048, float(r)) for r in range(total)}  # 16 KB
        reduced = np.zeros(2048)
        return [
            ((bcast[r],), (sources[r], outs[r]), (parts[r], reduced if r == 4 else None))
            for r in range(total)
        ]

    sides = []
    for compiled in (True, True, False):
        machine = Machine(ClusterSpec(nodes=3, tasks_per_node=2))
        srm = SRM(machine, config=SRMConfig(compiled_replay=compiled))
        plans = []
        for r, (bcast, allreduce, reduce) in enumerate(arguments()):
            task = machine.task(r)
            plans += [
                srm.plan_broadcast(task, *bcast, root=1),
                srm.plan_allreduce(task, *allreduce, SUM),
                srm.plan_reduce(task, *reduce, SUM, root=4),
            ]
        sides.append((machine, srm, plans))
    eager, lazy, twin = sides
    assert eager[2][1].decision.variant == "pipeline"

    lengths = {id(machine): [] for machine, _srm, _plans in sides}
    for window in range(9):
        for machine, _srm, plans in sides:
            if window == 5:
                fresh = [args for rank in arguments() for args in rank]
                for plan, args in zip(plans, fresh):
                    plan.rebind(*args)
            for plan in plans:
                plan.start()
            machine.engine.run()
            recorder = machine.obs.recorder
            if machine is eager[0]:
                list(recorder.spans)
                list(recorder.flows)
            lengths[id(machine)].append((len(recorder.spans), len(recorder.flows)))
    hits = lazy[0].engine.trace.hit_count
    assert hits >= 3 and eager[0].engine.trace.hit_count == hits
    pending = lazy[0].obs.recorder.spans
    assert len(pending.start) < len(pending), "no window left its rows pending"

    for machine, srm, _plans in sides:
        sources = {r: np.full(1000, float(r)) for r in range(total)}
        outs = {r: np.zeros(1000) for r in range(total)}

        def program(task, srm=srm, sources=sources, outs=outs):
            yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

        machine.launch(program)
        lengths[id(machine)].append(
            (len(machine.obs.recorder.spans), len(machine.obs.recorder.flows))
        )
    assert lengths[id(eager[0])] == lengths[id(lazy[0])] == lengths[id(twin[0])]

    def columns(machine):
        recorder = machine.obs.recorder
        out = {}
        for label, table in (("span", recorder.spans), ("flow", recorder.flows)):
            rows = list(table)  # materializes what is still pending
            assert len(rows) == len(table)
            for field, code in table.FIELDS:
                column = getattr(table, field)
                out[f"{label}.{field}"] = np.array(column) if code else list(column)
        return out

    reference = columns(twin[0])
    for machine in (eager[0], lazy[0]):
        got = columns(machine)
        for name, values in reference.items():
            if name.endswith(("start", "end", "_ts")):
                # Replayed clocks are t0 + rel: within rounding of the twin's.
                np.testing.assert_allclose(got[name], values, rtol=0, atol=1e-12, err_msg=name)
            else:
                assert np.array_equal(got[name], values), name
    eager_columns, lazy_columns = columns(eager[0]), columns(lazy[0])
    for name, values in eager_columns.items():
        if isinstance(values, list):
            assert values == lazy_columns[name], name
        else:  # bit for bit
            assert values.tobytes() == lazy_columns[name].tobytes(), name

    def analyses(machine):
        return (
            critical_path(machine.obs.recorder).to_dict(),
            classify_waits(machine).to_dict(),
            json.dumps(chrome_trace(machine)),
        )

    assert analyses(eager[0]) == analyses(lazy[0])
