"""Tests for phase spans, flow links, the critical-path walker, and exports."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import build
from repro.bench.runner import looped_program, operation_body
from repro.bench.trace import trace_call
from repro.cli import main
from repro.core import SRM, SRMConfig
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec, Machine
from repro.mpi.ops import SUM
from repro.obs.critical import critical_path
from repro.obs.export import chrome_trace, metrics_dump, write_json
from repro.obs.taxonomy import (
    FLOW_FLAG_WAKEUP,
    FLOW_PUT_COUNTER,
    PUT_FLIGHT,
    UNTRACKED,
    WAIT_PHASES,
)


def run_allreduce(nodes=2, tasks=2, nbytes=4096):
    machine, stack = build("srm", ClusterSpec(nodes=nodes, tasks_per_node=tasks))
    total = machine.spec.total_tasks
    count = max(1, nbytes // 8)
    sources = {r: np.full(count, float(r + 1)) for r in range(total)}
    outs = {r: np.zeros(count) for r in range(total)}

    def program(task):
        yield from stack.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    result = machine.launch(program)
    return machine, result


# -- span recording ---------------------------------------------------------


def test_spans_recorded_and_closed():
    machine, result = run_allreduce()
    spans = machine.obs.recorder.spans
    assert spans, "protocols should record phase spans"
    assert all(span.closed for span in spans)
    assert all(result.start_time <= span.start <= span.end <= result.end_time
               for span in spans)


def test_spans_nest_inside_parents():
    machine, _ = run_allreduce()
    spans = machine.obs.recorder.spans
    nested = [span for span in spans if span.depth > 0]
    assert nested, "protocol phases should contain substrate phases"
    for child in nested:
        parent = spans[child.parent]
        assert parent.rank == child.rank
        assert parent.start <= child.start
        assert parent.end >= child.end
        assert parent.depth == child.depth - 1


def test_spans_cover_every_rank():
    machine, _ = run_allreduce(nodes=2, tasks=2)
    assert machine.obs.recorder.ranks() == [0, 1, 2, 3]


def test_by_phase_totals_are_positive():
    machine, _ = run_allreduce()
    totals = machine.obs.recorder.by_phase()
    assert totals
    assert all(seconds >= 0 for seconds in totals.values())


def test_finished_processes_hand_their_tracks_on():
    """A process takes the lowest track on its rank that no live process
    holds.  Every request is kept alive, so no process address is reused
    and an address-keyed recorder would open new tracks every window."""
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    srm = SRM(machine, config=SRMConfig(compiled_replay=False))
    total = machine.spec.total_tasks
    buffers = [np.zeros(2048, np.uint8) for _ in range(total)]
    plans = [srm.plan_broadcast(machine.task(r), buffers[r], root=0) for r in range(total)]

    def max_tracks():
        tracks: dict[int, int] = {}
        for span in machine.obs.recorder.spans:
            tracks[span.rank] = max(tracks.get(span.rank, 0), span.track)
        return tracks

    kept = []
    for window in range(8):
        kept.append([plan.start() for plan in plans])
        machine.engine.run()
        if window == 1:
            after_two = max_tracks()
    assert max_tracks() == after_two


def test_clear_with_an_open_span_keeps_it_out_of_the_new_table():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=1))
    engine, task = machine.engine, machine.task(0)

    def program():
        with task.phase("outer"):
            yield engine.timeout(1.0)
            with task.phase("inner"):
                yield engine.timeout(1.0)
        with task.phase("after"):
            yield engine.timeout(1.0)

    engine.process(program())
    engine.run(until=0.5)
    recorder = machine.obs.recorder
    old = recorder.spans
    recorder.clear()
    engine.run()
    inner, after = recorder.spans
    # The open span still deepens and parents (by its old row) what opens
    # under it, but closes into the table it was opened in.
    assert (inner.name, inner.depth, inner.parent) == ("inner", 1, 0)
    assert (inner.start, inner.end) == (1.0, 2.0)
    assert (after.name, after.depth, after.parent) == ("after", 0, -1)
    assert (after.start, after.end) == (2.0, 3.0)
    assert [(s.name, s.end) for s in old] == [("outer", 2.0)]


def _leaf(recorder, engine, rank, name, seconds):
    """A hand-written leaf: one recorder call, one store on resume."""
    ends, row = recorder.leaf(rank, name)
    try:
        yield engine.timeout(seconds)
    finally:
        ends[row] = engine.now


def _span_columns(leaf):
    """The span columns of one program that records its probe spans through
    the leaf path (``leaf``) or through ``with task.phase(...)``."""
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=2))
    engine, recorder = machine.engine, machine.obs.recorder

    def probe(task, seconds):
        if leaf:
            yield from _leaf(recorder, engine, task.rank, "probe", seconds)
        else:
            with task.phase("probe"):
                yield engine.timeout(seconds)

    def helper(task):
        yield from probe(task, 3.0)

    def program(task):
        with task.phase("outer", detail="d"):
            yield from probe(task, 1.0)
            # A concurrent helper process records on its own track.
            engine.process(helper(task))
            with task.phase("after"):
                yield from probe(task, 1.0)
        yield from probe(task, 0.5)

    machine.launch(program)
    engine.run()  # the helpers outlive the programs
    spans = recorder.spans
    return {field: list(getattr(spans, field)) for field, _code in spans.FIELDS}


def test_leaf_writes_the_row_a_with_phase_writes():
    leaf, phase = _span_columns(leaf=True), _span_columns(leaf=False)
    assert leaf == phase
    # Row order is opening order; depth, parent and track are the nesting's.
    fields = ("rank", "name", "start", "end", "depth", "parent", "track")
    assert list(zip(*(leaf[field] for field in fields))) == [
        (0, "outer", 0.0, 2.0, 0, -1, 0),
        (0, "probe", 0.0, 1.0, 1, 0, 0),
        (1, "outer", 0.0, 2.0, 0, -1, 0),
        (1, "probe", 0.0, 1.0, 1, 2, 0),
        (0, "after", 1.0, 2.0, 1, 0, 0),
        (0, "probe", 1.0, 2.0, 2, 4, 0),
        (1, "after", 1.0, 2.0, 1, 2, 0),
        (1, "probe", 1.0, 2.0, 2, 6, 0),
        (0, "probe", 1.0, 4.0, 0, -1, 1),
        (1, "probe", 1.0, 4.0, 0, -1, 1),
        (0, "probe", 2.0, 2.5, 0, -1, 0),
        (1, "probe", 2.0, 2.5, 0, -1, 0),
    ]


def test_leaf_open_across_clear_closes_into_the_old_table():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=1))
    engine, recorder = machine.engine, machine.obs.recorder
    engine.process(_leaf(recorder, engine, 0, "flag-wait", 2.0))
    engine.run(until=0.5)
    old = recorder.spans
    recorder.clear()
    engine.run()
    assert len(recorder.spans) == 0
    assert [(s.name, s.start, s.end) for s in old] == [("flag-wait", 0.0, 2.0)]


def test_leaf_closes_when_its_operation_raises():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=1))
    engine, recorder = machine.engine, machine.obs.recorder

    def failing():
        ends, row = recorder.leaf(0, "counter-wait")
        try:
            yield engine.timeout(1.5)
            raise RuntimeError("operation failed")
        finally:
            ends[row] = engine.now

    process = engine.process(failing())
    with pytest.raises(RuntimeError, match="operation failed"):
        engine.run(until=process)
    (span,) = recorder.spans
    assert (span.start, span.end, span.depth) == (0.0, 1.5, 0)


def test_disabled_recorder_records_no_leaf():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=1), observe=False)
    engine, recorder = machine.engine, machine.obs.recorder
    engine.process(_leaf(recorder, engine, 0, "flag-set", 1.0))
    engine.run()
    assert len(recorder.spans) == 0 and engine.now == 1.0


# -- flow links -------------------------------------------------------------


def test_put_counter_flow_recorded():
    machine, _ = run_allreduce()
    flows = [f for f in machine.obs.recorder.flows if f.kind == FLOW_PUT_COUNTER]
    assert flows, "inter-node puts should link to their counter increments"
    cross = [f for f in flows if f.src_rank != f.dst_rank]
    assert cross, "at least one put crosses ranks"
    assert all(f.dst_ts >= f.src_ts for f in flows)


def test_flag_wakeup_flow_recorded():
    machine, _ = run_allreduce()
    flows = [f for f in machine.obs.recorder.flows if f.kind == FLOW_FLAG_WAKEUP]
    assert flows, "flag stores should link to the waiters they release"
    assert all(f.src_ts == f.dst_ts for f in flows)


# -- critical path ----------------------------------------------------------


def test_critical_path_partitions_makespan():
    machine, result = run_allreduce()
    path = critical_path(
        machine.obs.recorder, start=result.start_time, end=result.end_time
    )
    assert path.total == pytest.approx(result.elapsed)
    # The walk is a partition: attributed time equals the window exactly.
    assert path.attributed == pytest.approx(path.total, rel=1e-9)
    assert sum(path.by_phase().values()) == pytest.approx(path.total, rel=1e-9)
    # Acceptance bar: the printed breakdown covers >= 95% of the makespan.
    assert path.attributed >= 0.95 * result.elapsed


def test_critical_path_segments_are_chronological():
    machine, result = run_allreduce()
    path = critical_path(
        machine.obs.recorder, start=result.start_time, end=result.end_time
    )
    for earlier, later in zip(path.segments, path.segments[1:]):
        assert later.start == pytest.approx(earlier.end)


def test_critical_path_follows_flows_across_ranks():
    machine, result = run_allreduce(nodes=4, tasks=2, nbytes=16384)
    path = critical_path(
        machine.obs.recorder, start=result.start_time, end=result.end_time
    )
    assert len({segment.rank for segment in path.segments}) > 1


def test_critical_path_large_pipelined_allreduce():
    machine, result = run_allreduce(nodes=2, tasks=2, nbytes=262144)
    path = critical_path(
        machine.obs.recorder, start=result.start_time, end=result.end_time
    )
    assert path.attributed >= 0.95 * result.elapsed


def test_critical_path_without_spans_raises():
    machine, _stack = build("srm", ClusterSpec(nodes=1, tasks_per_node=2))
    with pytest.raises(ValueError):
        critical_path(machine.obs.recorder)


def _reference_walk(recorder, start, end):
    """The walk over ``PhaseSpan`` and ``FlowLink`` objects, one linear scan
    per step: the reference the column walker must match exactly."""
    spans = [s for s in recorder.spans if s.end is not None and s.end > start and s.start < end]
    by_rank = {}
    for span in sorted(spans, key=lambda s: (s.start, s.depth)):
        by_rank.setdefault(span.rank, []).append(span)
    links = sorted(recorder.flows, key=lambda f: f.dst_ts)
    rank = max(spans, key=lambda s: s.end).rank if spans else 0
    segments, t = [], end
    epsilon = 1e-15 * max(1.0, abs(end))

    def attribute(seg_rank, seg_start, seg_end, phase):
        if seg_end > seg_start:
            segments.append((seg_rank, seg_start, seg_end, phase))

    while t > start + epsilon:
        before = [s for s in by_rank.get(rank, []) if s.start < t]
        covering = [s for s in before if s.end >= t]
        if not covering:
            floor = max(max((s.end for s in before), default=start), start)
            attribute(rank, floor, t, UNTRACKED)
            t = floor
            continue
        span = covering[-1]
        span_start = max(span.start, start)
        if span.name in WAIT_PHASES:
            arrived = [f for f in links if f.dst_rank == rank and span_start <= f.dst_ts < t]
            if arrived and arrived[-1].src_ts < t - epsilon:
                link = arrived[-1]
                arrival = min(max(link.dst_ts, span_start), t)
                attribute(rank, arrival, t, span.name)
                if arrival > link.src_ts:
                    attribute(link.src_rank, link.src_ts, arrival, PUT_FLIGHT)
                rank, t = link.src_rank, min(link.src_ts, t)
                continue
        attribute(rank, span_start, t, span.name)
        t = span_start
    return segments[::-1]


@pytest.mark.parametrize(
    "stack_name,operation", [("srm", "broadcast"), ("srm", "allreduce"), ("ibm", "allreduce")]
)
def test_critical_path_matches_the_object_walk_on_every_window(stack_name, operation):
    # The MPI stack records substrate spans only, so its walk crosses gaps.
    machine, stack = build(stack_name, ClusterSpec(nodes=2, tasks_per_node=4))
    body = operation_body(machine, stack, operation, 65536)
    result = machine.launch(looped_program(body, 2))
    recorder = machine.obs.recorder
    first, last = result.start_time, result.end_time
    for lo, hi in ((0.0, 1.0), (0.0, 0.5), (0.3, 0.7), (0.5, 1.0), (0.42, 0.43)):
        start, end = first + lo * (last - first), first + hi * (last - first)
        path = critical_path(recorder, start=start, end=end)
        expected = _reference_walk(recorder, start, end)
        assert [(s.rank, s.start, s.end, s.phase) for s in path.segments] == expected


# -- exports ----------------------------------------------------------------


def test_chrome_trace_schema():
    machine, _ = run_allreduce()
    events = chrome_trace(machine)
    assert events
    json.dumps(events)  # must be serializable
    for event in events:
        assert event["ph"] in {"X", "s", "f", "M", "C"}
        assert "pid" in event
        if event["ph"] == "C":
            # Resource counter tracks: named signal, no thread affinity.
            assert event["name"].startswith("resource:")
            assert set(event["args"]) == {"occupancy", "queued", "saturated"}
        else:
            assert "tid" in event
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "args" in event


def test_chrome_trace_has_nested_phase_slices():
    machine, _ = run_allreduce()
    phases = [e for e in chrome_trace(machine) if e.get("cat") == "phase"]
    assert phases
    assert max(e["args"]["depth"] for e in phases) > 0


def test_chrome_trace_flow_event_pairs():
    machine, _ = run_allreduce()
    events = chrome_trace(machine)
    starts = {e["id"]: e for e in events if e["ph"] == "s"}
    finishes = {e["id"]: e for e in events if e["ph"] == "f"}
    assert starts and set(starts) == set(finishes)
    # Acceptance bar: a LAPI put is linked to its remote counter increment.
    put_flows = [e for e in starts.values() if e["name"] == FLOW_PUT_COUNTER]
    assert put_flows
    assert all(e["ph"] == "f" and e["bp"] == "e" for e in finishes.values())


def test_chrome_trace_with_tracer_call_slices():
    machine, stack = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    result = trace_call(machine, stack, "broadcast", 1024)
    events = chrome_trace(machine, ("broadcast", result))
    calls = [e for e in events if e.get("cat") == "call"]
    assert len(calls) == 4
    assert all(e["name"] == "broadcast[0]" for e in calls)


def test_chrome_trace_byte_stable_across_identical_runs():
    first = json.dumps(chrome_trace(run_allreduce()[0]))
    second = json.dumps(chrome_trace(run_allreduce()[0]))
    assert first == second


def test_chrome_trace_independent_of_flow_recording_order():
    import random

    machine, _ = run_allreduce()
    reference = json.dumps(chrome_trace(machine))
    # Shuffling the recorded flow list must not change the artifact: flow
    # events are sorted and ids assigned deterministically at export time.
    random.Random(7).shuffle(machine.obs.recorder.flows)
    assert json.dumps(chrome_trace(machine)) == reference


def test_chrome_trace_counter_tracks_sorted_and_optional():
    machine, _ = run_allreduce()
    counters = [e for e in chrome_trace(machine) if e["ph"] == "C"]
    assert counters, "resource occupancy must export as counter tracks"
    assert {e["name"] for e in counters} >= {"resource:bus[0]", "resource:bus[1]"}
    keys = [(e["ts"], e["name"]) for e in counters]
    assert keys == sorted(keys)
    without = chrome_trace(machine, include_counters=False)
    assert not any(e["ph"] == "C" for e in without)


def test_metrics_dump_structure():
    machine, _ = run_allreduce()
    dump = metrics_dump(machine)
    json.dumps(dump)
    assert dump["simulated_time"] > 0
    assert dump["events_processed"] > 0
    assert dump["metrics"]["task.copies"]["value"] > 0
    assert dump["phase_totals"]
    assert dump["flow_counts"][FLOW_PUT_COUNTER] > 0
    assert set(dump["tasks"]) == {0, 1, 2, 3}
    assert dump["tasks"][0]["lapi"]["puts"] >= 0
    assert dump["resources"]["bus[0]"]["kind"] == "bandwidth"
    assert list(dump["resources"]) == sorted(dump["resources"])


def test_write_json_roundtrip(tmp_path):
    target = tmp_path / "out.json"
    write_json(str(target), {"a": [1, 2]})
    assert json.loads(target.read_text()) == {"a": [1, 2]}


# -- CLI --------------------------------------------------------------------


def test_profile_cli_breakdown(capsys):
    code = main(
        ["profile", "--op", "allreduce", "--bytes", "4096", "--nodes", "2", "--tasks", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "critical path" in out
    assert "% of makespan" in out
    attributed = float(out.split("attributed: ")[1].split("%")[0])
    assert attributed >= 95.0


def test_profile_cli_writes_exports(tmp_path, capsys):
    chrome = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    code = main(
        [
            "profile", "--op", "barrier", "--nodes", "2", "--tasks", "2",
            "--chrome-out", str(chrome), "--json-out", str(metrics),
        ]
    )
    assert code == 0
    events = json.loads(chrome.read_text())
    assert any(e.get("cat") == "phase" for e in events)
    dump = json.loads(metrics.read_text())
    assert "phase_totals" in dump and "calls" in dump


def test_profile_cli_prints_wait_state_table(capsys):
    code = main(
        ["profile", "--op", "allreduce", "--bytes", "4096", "--nodes", "2", "--tasks", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "wait states" in out
    assert "blocked intervals" in out
    # The closed taxonomy: at least one named state shows up in the table.
    assert any(state in out for state in (
        "late-sender", "late-release", "bandwidth-contention",
        "resource-queueing", "detection-only",
    ))


def test_profile_cli_policy_diff(capsys):
    code = main(
        [
            "profile", "--op", "allreduce", "--bytes", "65536",
            "--nodes", "2", "--tasks", "2", "--policy", "cost", "--diff", "paper",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "differential analysis, policy paper (baseline) vs cost" in out
    assert "allreduce srm: policy paper -> cost" in out


SEED = Path(__file__).resolve().parent.parent / "BENCH_seed.json"


def _no_simulation(*_args, **_kwargs):
    raise AssertionError("profile built a machine before checking --diff")


def test_profile_snapshot_diff_rejects_other_tasks_per_node(monkeypatch):
    # The snapshot's cells ran 16 tasks per node; a 4-per-node profile
    # would be diffed against a capture of a different configuration.
    monkeypatch.setattr("repro.cli.build", _no_simulation)
    with pytest.raises(ConfigurationError, match="16 tasks per node, but --tasks is 4"):
        main(["profile", "--op", "broadcast", "--bytes", "8192", "--nodes", "4",
              "--tasks", "4", "--diff", str(SEED)])


def test_profile_snapshot_diff_rejects_other_policies(monkeypatch):
    monkeypatch.setattr("repro.cli.build", _no_simulation)
    with pytest.raises(ConfigurationError, match="paper policy, but --policy is fixed"):
        main(["profile", "--op", "allreduce", "--bytes", "65536", "--nodes", "4",
              "--tasks", "16", "--policy", "fixed", "--fixed", "allreduce=ring",
              "--diff", str(SEED)])


def test_trace_cli_fixed_policy(capsys):
    code = main(
        [
            "trace", "--op", "broadcast", "--bytes", "2048", "--nodes", "2",
            "--tasks", "2", "--policy", "fixed", "--fixed", "broadcast=pipelined",
        ]
    )
    assert code == 0
    assert "totals:" in capsys.readouterr().out


def test_trace_cli_fixed_policy_requires_choices(capsys):
    with pytest.raises(SystemExit):
        main(["trace", "--op", "broadcast", "--nodes", "2", "--tasks", "2",
              "--policy", "fixed"])


def test_trace_cli_chrome_out(tmp_path, capsys):
    target = tmp_path / "trace.json"
    code = main(
        [
            "trace", "--op", "broadcast", "--bytes", "2048",
            "--nodes", "2", "--tasks", "2", "--chrome-out", str(target),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"wrote Perfetto trace to {target}" in out
    events = json.loads(target.read_text())
    assert any(e.get("cat") == "call" for e in events)
    assert any(e.get("ph") == "s" for e in events)
