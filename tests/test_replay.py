"""Compiled-schedule replay: trace-record persistent windows, replay them.

The contract under test (:mod:`repro.core.replay`):

* a persistent plan's repeated ``start()``/``run()`` windows are recorded
  once and then replayed by the vectorized kernel — with buffers and event
  outcomes **byte-identical** to re-driving the slow path, and the engine
  clock equal within float rounding (the differential property test
  randomizes op, dtype, size, shape, root, and invalidation interleavings);
* ``replay.hits`` / ``replay.misses`` count the cache decisions (and
  ``replay.misses.<cause>`` why each miss happened, ``replay.dirty.<reason>``
  why a window ran untraced), and
  ``SRMConfig(compiled_replay=False)`` — the ``--no-replay`` escape hatch —
  keeps the engine untouched;
* ``rebind()`` invalidates cached traces, so post-rebind windows re-record
  against the new buffers instead of replaying stale views;
* a :class:`~repro.errors.DeadlockError` raised during a *recorded* window
  (some ranks never started) must not leave a half-written trace cached:
  the next window records from scratch on the slow path and then replays;
* an exception mid-recorded-window leaves an armed recording behind; the
  next flush discards it and restores the tapped instruments.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SRM, FixedPolicy, SRMConfig
from repro.core.replay import _HistogramTape, _running_total
from repro.errors import DeadlockError
from repro.machine import ClusterSpec, Machine
from repro.mpi.ops import SUM
from repro.sim import RandomScheduler
from repro.verify import runner


def make_pair(nodes=2, procs=2):
    """Two identical machines: compiled replay on and off."""
    on = Machine(ClusterSpec(nodes=nodes, tasks_per_node=procs))
    off = Machine(ClusterSpec(nodes=nodes, tasks_per_node=procs))
    return (
        (on, SRM(on, config=SRMConfig(compiled_replay=True))),
        (off, SRM(off, config=SRMConfig(compiled_replay=False))),
    )


def counter_values(machine):
    """The registry's counters (``task.*``, ``lapi.*``, ``shmem.flag_sets``,
    ``dispatch.*``), less replay's own, which only one twin has."""
    return {
        name: entry["value"]
        for name, entry in machine.obs.metrics.to_dict().items()
        if entry["kind"] == "counter" and not name.startswith("replay.")
    }


def drive_window(machine, plans):
    """One window: start every rank's plan while idle, run to quiescence."""
    requests = [plan.start() for plan in plans]
    machine.engine.run()
    for request in requests:
        assert request.completed
    return requests


# ---------------------------------------------------------------------------
# differential property: replayed windows are byte-identical to the slow path
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    op=st.sampled_from(["broadcast", "reduce", "allreduce", "barrier"]),
    dtype=st.sampled_from([np.uint8, np.float64]),
    # 16 KB runs the pipelined regime; 64 KB is the largest pipelined size.
    nbytes=st.sampled_from([16, 512, 4096, 16384, 65536]),
    procs=st.integers(min_value=2, max_value=3),
    root_seed=st.integers(min_value=0, max_value=7),
    invalidate_at=st.sampled_from([None, 2]),
    data=st.data(),
)
def test_replay_windows_match_slow_path(
    op, dtype, nbytes, procs, root_seed, invalidate_at, data
):
    """N windows on a replay machine == N windows on a slow-path twin.

    Every window rewrites the contributing payloads with fresh random bytes
    (same stream on both machines), so a replay that short-circuits the data
    movement — instead of re-executing it against the new input — cannot
    pass.  ``invalidate_at`` injects a mid-sequence ``invalidate()`` on both
    machines to check mixed record/replay interleavings.
    """
    total = 2 * procs
    root = root_seed % total
    count = max(1, nbytes // dtype().itemsize)
    windows = 5

    pair = make_pair(procs=procs)
    sides = []
    for machine, srm in pair:
        buffers = {r: np.zeros(count, dtype=dtype) for r in range(total)}
        outs = {r: np.zeros(count, dtype=np.float64) for r in range(total)}
        sources = {r: np.zeros(count, dtype=np.float64) for r in range(total)}
        if op == "broadcast":
            plans = [
                srm.plan_broadcast(machine.task(r), buffers[r], root=root)
                for r in range(total)
            ]
        elif op == "reduce":
            plans = [
                srm.plan_reduce(
                    machine.task(r),
                    sources[r],
                    outs[root] if r == root else None,
                    SUM,
                    root=root,
                )
                for r in range(total)
            ]
        elif op == "allreduce":
            plans = [
                srm.plan_allreduce(machine.task(r), sources[r], outs[r], SUM)
                for r in range(total)
            ]
        else:
            plans = [srm.plan_barrier(machine.task(r)) for r in range(total)]
        sides.append((machine, plans, buffers, sources, outs))

    for window in range(windows):
        if op == "broadcast":
            payload = data.draw(
                st.binary(min_size=count * dtype().itemsize, max_size=count * dtype().itemsize),
                label=f"window{window}",
            )
            fresh = np.frombuffer(payload, dtype=dtype).copy()
        elif op in ("reduce", "allreduce"):
            fills = data.draw(
                st.lists(
                    st.floats(min_value=-8, max_value=8, allow_nan=False),
                    min_size=total,
                    max_size=total,
                ),
                label=f"window{window}",
            )
        for machine, plans, buffers, sources, outs in sides:
            if invalidate_at is not None and window == invalidate_at:
                for plan in plans:
                    plan.invalidate()
            if op == "broadcast":
                buffers[root][:] = fresh
            elif op in ("reduce", "allreduce"):
                for r in range(total):
                    sources[r][:] = fills[r]
            drive_window(machine, plans)
        (_, _, bufs_on, _, outs_on), (_, _, bufs_off, _, outs_off) = sides
        for r in range(total):
            assert bufs_on[r].tobytes() == bufs_off[r].tobytes(), (
                f"window {window}: broadcast buffer of rank {r} diverged"
            )
            assert outs_on[r].tobytes() == outs_off[r].tobytes(), (
                f"window {window}: result buffer of rank {r} diverged"
            )

    # Identical simulated clocks: replay reproduced every event's timing.
    engine_on, engine_off = sides[0][0].engine, sides[1][0].engine
    assert engine_on.now == pytest.approx(engine_off.now, abs=1e-9)
    manager = engine_on.trace
    assert manager is not None and manager.hit_count > 0
    assert engine_off.trace is None
    # Identical counts: a replayed window moves each counter once, as the
    # slow path does.
    counts = counter_values(sides[0][0])
    assert "task.copies" in counts and "lapi.puts" in counts and "shmem.flag_sets" in counts
    assert counts == counter_values(sides[1][0])


def persistent_plans(op, srm, machine, root, count):
    """Every rank's ``op`` plan over zeroed float64 buffers of ``count``."""
    total = machine.spec.total_tasks
    if op == "broadcast":
        return [srm.plan_broadcast(machine.task(r), np.zeros(count), root=root) for r in range(total)]
    if op == "reduce":
        out = np.zeros(count)
        return [
            srm.plan_reduce(machine.task(r), np.zeros(count), out if r == root else None, SUM, root=root)
            for r in range(total)
        ]
    if op == "allreduce":
        return [
            srm.plan_allreduce(machine.task(r), np.zeros(count), np.zeros(count), SUM)
            for r in range(total)
        ]
    return [srm.plan_barrier(machine.task(r)) for r in range(total)]


@settings(max_examples=15, deadline=None)
@given(
    op=st.sampled_from(["broadcast", "reduce", "allreduce", "barrier"]),
    nbytes=st.sampled_from([16, 512, 4096, 16384, 65536]),
    procs=st.integers(min_value=2, max_value=3),
    root_seed=st.integers(min_value=0, max_value=7),
    invalidate_at=st.sampled_from([None, 2]),
)
@example(op="broadcast", nbytes=2048, procs=2, root_seed=0, invalidate_at=None)
def test_replay_windows_keep_the_slow_paths_monitor_rows(op, nbytes, procs, root_seed, invalidate_at):
    """N windows on a replay machine leave every resource timeline row for
    row as on a slow-path twin: states exactly, times within the clock
    tolerance of :func:`test_replay_windows_match_slow_path`.

    Rounding at a later window's start can fold two instants a few ULPs
    apart into one on either machine, so rows within that tolerance of
    each other count as one instant holding the later state, as
    ``record()`` keeps a same-time update."""
    machines = []
    for machine, srm in make_pair(procs=procs):
        plans = persistent_plans(op, srm, machine, root_seed % (2 * procs), max(1, nbytes // 8))
        for window in range(8):
            if window == invalidate_at:
                for plan in plans:
                    plan.invalidate()
            drive_window(machine, plans)
        machines.append(machine)
    assert machines[0].engine.trace.hit_count > 0
    on, off = (machine.obs.monitor.timelines for machine in machines)
    assert list(on) == list(off)

    def instants(timeline):
        rows = []
        for sample in timeline.samples:
            if rows and sample.time - rows[-1].time <= 1e-9:
                rows[-1] = sample._replace(time=rows[-1].time)
            else:
                rows.append(sample)
        return rows

    for name, timeline in off.items():
        rows, replayed = instants(timeline), instants(on[name])
        assert len(replayed) == len(rows), f"{name}: {len(replayed)} rows, slow path {len(rows)}"
        for index, (got, want) in enumerate(zip(replayed, rows)):
            assert got[1:] == want[1:], f"{name} row {index}: state {got} != {want}"
            assert got.time == pytest.approx(want.time, abs=1e-9), f"{name} row {index}"


@pytest.mark.parametrize("shape", [(2, 2), (4, 3)], ids=["2x2", "4x3"])
@pytest.mark.parametrize("count", [8, 3000, 9000, 20000])
def test_replay_of_ring_allreduce_windows_matches_slow_path(shape, count):
    """The ring allreduce reads only its reserved SMP windows, so the
    invocation parities alone key its windows: replayed windows stay
    byte-identical to the slow path, with the same clock."""
    nodes, procs = shape
    total = nodes * procs
    sides = []
    for compiled in (True, False):
        machine = Machine(ClusterSpec(nodes=nodes, tasks_per_node=procs))
        srm = SRM(
            machine,
            config=SRMConfig(compiled_replay=compiled),
            policy=FixedPolicy({"allreduce": "ring"}),
        )
        sources = {r: np.zeros(count) for r in range(total)}
        outs = {r: np.zeros(count) for r in range(total)}
        plans = [
            srm.plan_allreduce(machine.task(r), sources[r], outs[r], SUM)
            for r in range(total)
        ]
        assert plans[0].decision.variant == "ring"
        sides.append((machine, plans, sources, outs))

    rng = np.random.default_rng(count)
    for window in range(8):
        fills = rng.standard_normal((total, count))
        for machine, plans, sources, outs in sides:
            for r in range(total):
                sources[r][:] = fills[r]
            drive_window(machine, plans)
        (_, _, _, outs_on), (_, _, _, outs_off) = sides
        for r in range(total):
            assert outs_on[r].tobytes() == outs_off[r].tobytes(), (
                f"window {window}: result buffer of rank {r} diverged"
            )

    engine_on, engine_off = sides[0][0].engine, sides[1][0].engine
    assert engine_on.trace.hit_count > 0
    assert engine_on.now == pytest.approx(engine_off.now, rel=1e-12)


def test_replayed_operator_passes_keep_their_order():
    """A persistent broadcast, a pipelined allreduce and a reduce on 3x2,
    fed random-normal doubles: float sums depend on the order of operator
    passes, so a kernel that drops, reorders or re-rounds one leaves other
    bytes than the slow-path twin after that window."""
    nodes, procs = 3, 2
    total = nodes * procs
    count = 4096
    sides = []
    for compiled in (True, False):
        machine = Machine(ClusterSpec(nodes=nodes, tasks_per_node=procs))
        srm = SRM(
            machine,
            config=SRMConfig(compiled_replay=compiled),
            policy=FixedPolicy({"allreduce": "pipeline"}),
        )
        weights = {r: np.zeros(count) for r in range(total)}
        grads = {r: np.zeros(count) for r in range(total)}
        grad_sum = np.zeros(count)
        sources = {r: np.zeros(count) for r in range(total)}
        outs = {r: np.zeros(count) for r in range(total)}
        plans = []
        for r in range(total):
            task = machine.task(r)
            plans.append(srm.plan_broadcast(task, weights[r], root=0))
            plans.append(srm.plan_reduce(task, grads[r], grad_sum if r == 0 else None, SUM, root=0))
            plans.append(srm.plan_allreduce(task, sources[r], outs[r], SUM))
        assert plans[2].decision.variant == "pipeline"
        buffers = [*weights.values(), *grads.values(), grad_sum, *sources.values(), *outs.values()]
        sides.append((machine, plans, weights, grads, sources, buffers))

    rng = np.random.default_rng(5)
    for window in range(8):
        fresh = rng.standard_normal((1 + 2 * total, count))
        for _machine, _plans, weights, grads, sources, _buffers in sides:
            weights[0][:] = fresh[0]
            for r in range(total):
                grads[r][:] = fresh[1 + r]
                sources[r][:] = fresh[1 + total + r]
        for machine, plans, *_rest in sides:
            drive_window(machine, plans)
        (_, _, _, _, _, on), (_, _, _, _, _, off) = sides
        for index, (a, b) in enumerate(zip(on, off)):
            assert a.tobytes() == b.tobytes(), f"window {window}: buffer {index} diverged"
    assert sides[0][0].engine.trace.hit_count >= 4


@settings(max_examples=200, deadline=None)
@given(
    start=st.floats(min_value=-1e300, max_value=1e300),
    values=st.lists(
        st.one_of(
            st.floats(min_value=-1e300, max_value=1e300),
            st.floats(min_value=-1e-300, max_value=1e-300),
            st.integers(min_value=-(2**70), max_value=2**70),
        ),
        max_size=64,
    ),
)
def test_running_total_is_the_sequential_sum(start, values):
    """A replayed histogram total is bit-identical to ``observe``'s
    value-by-value float addition."""
    total = start
    for value in values:
        total += value
    got = _running_total(start, np.array([0.0, *values], dtype=np.float64))
    assert type(got) is float
    assert got.hex() == float(total).hex()


def test_replay_leaves_the_slow_paths_state():
    """A replayed window restores every cell the slow path changes: after
    8 windows of a persistent ring allreduce the two machines hold equal
    buffers, ledgers, counter values and flag values."""
    count = 3 * 8192 + 5
    total = 6
    sides = []
    for compiled in (True, False):
        machine = Machine(ClusterSpec(nodes=3, tasks_per_node=2))
        srm = SRM(
            machine,
            config=SRMConfig(compiled_replay=compiled),
            policy=FixedPolicy({"allreduce": "ring"}),
        )
        sources = {r: np.zeros(count) for r in range(total)}
        outs = {r: np.zeros(count) for r in range(total)}
        plans = [
            srm.plan_allreduce(machine.task(r), sources[r], outs[r], SUM)
            for r in range(total)
        ]
        assert plans[0].decision.variant == "ring"
        sides.append((machine, srm, plans, sources, outs))

    rng = np.random.default_rng(8)
    for _window in range(8):
        fills = rng.standard_normal((total, count))
        for machine, _srm, plans, sources, _outs in sides:
            for r in range(total):
                sources[r][:] = fills[r]
            drive_window(machine, plans)

    (on, srm_on, _, _, outs_on), (off, srm_off, _, _, outs_off) = sides
    assert on.engine.trace.hit_count > 0
    for r in range(total):
        assert outs_on[r].tobytes() == outs_off[r].tobytes()
    assert srm_on.ctx.ledger == srm_off.ctx.ledger
    assert [(c.name, c.value) for c in on.counters] == [(c.name, c.value) for c in off.counters]
    assert [(f.name, f.value) for f in on.flags] == [(f.name, f.value) for f in off.flags]


def test_replay_follows_the_broadcast_slots_last_writer():
    """A small broadcast's credit depends on who last wrote each slot
    generation, so a replayed window must match that history: persistent
    root-0 broadcast windows, some after a blocking exchange allreduce
    (whose fan-out fills the same node slots) and some not, leave equal
    buffers, ledgers, counter values and flag values with replay and
    without."""
    total = 6
    allreduce_before = [False, False, True, False, True, True, False, False, True, False, False]
    sides = []
    for compiled in (True, False):
        machine = Machine(ClusterSpec(nodes=3, tasks_per_node=2))
        srm = SRM(machine, config=SRMConfig(compiled_replay=compiled))
        buffers = {r: np.zeros(2048, dtype=np.uint8) for r in range(total)}
        plans = [srm.plan_broadcast(machine.task(r), buffers[r], root=0) for r in range(total)]
        sides.append((machine, srm, plans, buffers))

    sources = {r: np.full(1024, float(r + 1)) for r in range(total)}  # 8 KB: exchange
    for window, allreduce in enumerate(allreduce_before):
        for machine, srm, plans, buffers in sides:
            if allreduce:
                outs = {r: np.zeros(1024) for r in range(total)}

                def program(task, srm=srm, outs=outs):
                    yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

                machine.launch(program)
                assert all(np.all(out == 21.0) for out in outs.values())
            buffers[0][:] = window + 1
            drive_window(machine, plans)
            for r in range(total):
                assert np.all(buffers[r] == window + 1), (window, r)

    (on, srm_on, _, bufs_on), (off, srm_off, _, bufs_off) = sides
    assert on.engine.trace.hit_count > 0
    for r in range(total):
        assert bufs_on[r].tobytes() == bufs_off[r].tobytes()
    assert srm_on.ctx.ledger == srm_off.ctx.ledger
    assert [(c.name, c.value) for c in on.counters] == [(c.name, c.value) for c in off.counters]
    assert [(f.name, f.value) for f in on.flags] == [(f.name, f.value) for f in off.flags]
    assert on.engine.now == pytest.approx(off.engine.now, rel=1e-12)


def test_replayed_allreduce_windows_follow_the_slots_last_writer():
    """An exchange allreduce's fan-out claims the node broadcast slots that
    a small broadcast's credit reads the last writer of: persistent
    allreduce windows, some after a blocking broadcast and some not, leave
    equal buffers, ledgers, counter values and flag values with replay and
    without."""
    total = 6
    broadcast_before = [bool(int(c)) for c in "110100111001000000011000"]
    sides = []
    for compiled in (True, False):
        machine = Machine(ClusterSpec(nodes=3, tasks_per_node=2))
        srm = SRM(machine, config=SRMConfig(compiled_replay=compiled))
        sources = {r: np.zeros(64) for r in range(total)}
        outs = {r: np.zeros(64) for r in range(total)}
        plans = [srm.plan_allreduce(machine.task(r), sources[r], outs[r], SUM) for r in range(total)]
        assert plans[0].decision.variant == "exchange"
        sides.append((machine, srm, plans, sources, outs))

    for window, broadcast in enumerate(broadcast_before):
        for machine, srm, plans, sources, outs in sides:
            if broadcast:
                data = {r: np.full(256, float(window)) if r == 0 else np.zeros(256) for r in range(total)}

                def program(task, srm=srm, data=data):
                    yield from srm.broadcast(task, data[task.rank], root=0)

                machine.launch(program)
                assert all(np.all(buffer == window) for buffer in data.values())
            for r in range(total):
                sources[r][:] = window + r
            drive_window(machine, plans)
            for r in range(total):
                assert np.all(outs[r] == 6 * window + 15), (window, r)

    (on, srm_on, _, _, outs_on), (off, srm_off, _, _, outs_off) = sides
    assert on.engine.trace.hit_count > 0
    for r in range(total):
        assert outs_on[r].tobytes() == outs_off[r].tobytes()
    assert srm_on.ctx.ledger == srm_off.ctx.ledger
    assert [(c.name, c.value) for c in on.counters] == [(c.name, c.value) for c in off.counters]
    assert [(f.name, f.value) for f in on.flags] == [(f.name, f.value) for f in off.flags]


# ---------------------------------------------------------------------------
# cache bookkeeping: counters, escape hatch, invalidation
# ---------------------------------------------------------------------------


def test_replay_hit_and_miss_counters():
    """Hits and misses are counted, and each miss by its cause: every miss
    of an uninterrupted broadcast session is cold, a rebind adds cold
    misses, and a barrier session takes one miss on a recorded
    precondition while the cells its first window wrote first settle."""
    (machine, srm), _ = make_pair()
    total = machine.spec.total_tasks
    buffers = {r: np.zeros(256, dtype=np.uint8) for r in range(total)}
    plans = [srm.plan_broadcast(machine.task(r), buffers[r], root=0) for r in range(total)]
    for window in range(8):
        buffers[0][:] = window + 1
        drive_window(machine, plans)
    manager = machine.engine.trace
    assert manager.hit_count >= 4
    assert manager.hit_count + manager.miss_count == 8
    assert manager.miss_causes == {"cold": manager.miss_count, "precondition": 0}

    misses = manager.miss_count
    fresh = {r: np.zeros(256, dtype=np.uint8) for r in range(total)}
    for rank, plan in enumerate(plans):
        plan.rebind(fresh[rank])
    for window in range(4):
        fresh[0][:] = window + 1
        drive_window(machine, plans)
    assert manager.miss_count > misses
    assert manager.miss_causes["cold"] == manager.miss_count

    summary = machine.obs.metrics.to_dict()
    assert summary["replay.hits"]["value"] == manager.hit_count
    assert summary["replay.misses"]["value"] == manager.miss_count
    for cause, count in manager.miss_causes.items():
        assert summary[f"replay.misses.{cause}"]["value"] == count

    barrier_plans = [srm.plan_barrier(machine.task(r)) for r in range(total)]
    for _window in range(4):
        drive_window(machine, barrier_plans)
    assert manager.miss_causes["precondition"] == 1
    assert sum(manager.miss_causes.values()) == manager.miss_count
    summary = machine.obs.metrics.to_dict()
    assert summary["replay.misses.precondition"]["value"] == 1


def test_precondition_misses_name_the_cell_kind():
    """A persistent 16 B SUM reduce re-records once per key: the slot's seat
    flag was first written in the recorded window (pre 0), so its exact
    precondition fails at the key's next window, and the miss is counted
    by that cell's kind."""
    (machine, srm), _ = make_pair()
    total = machine.spec.total_tasks
    sources = {r: np.full(2, float(r + 1)) for r in range(total)}
    out = np.zeros(2)
    plans = [
        srm.plan_reduce(machine.task(r), sources[r], out if r == 0 else None, SUM, root=0)
        for r in range(total)
    ]
    for _window in range(8):
        drive_window(machine, plans)
        assert np.all(out == 10.0)
    manager = machine.engine.trace
    assert manager.miss_causes == {"cold": 2, "precondition": 2}
    assert manager.precondition_kinds["flag"] == 2
    assert sum(manager.precondition_kinds.values()) == 2
    summary = machine.obs.metrics.to_dict()
    assert summary["replay.misses.precondition.flag"]["value"] == 2
    assert not any(
        name.startswith("replay.misses.precondition.") and name.endswith(kind)
        for name in summary
        for kind in ("stat", "interrupts", "counter", "ledger", "metric")
    )


def test_a_replayed_window_processes_one_engine_event():
    """A hit schedules only the window's end, where every member request
    completes; the slow path processes several per request."""
    (machine, srm), _ = make_pair()
    total = machine.spec.total_tasks
    buffers = {r: np.zeros(2048, dtype=np.uint8) for r in range(total)}
    plans = [srm.plan_broadcast(machine.task(r), buffers[r], root=0) for r in range(total)]
    engine = machine.engine
    events = []
    for window in range(6):
        buffers[0][:] = window + 1
        hits, before = engine.trace.hit_count if engine.trace else 0, engine.events_processed
        drive_window(machine, plans)
        events.append((engine.trace.hit_count > hits, engine.events_processed - before))
    assert {count for hit, count in events if hit} == {1}
    assert all(count > total for hit, count in events if not hit), events


def test_a_request_spawned_before_the_flush_makes_the_window_dirty():
    """Spawning a member request queues its bootstrap event, so the flush
    runs the window untraced as ``queued``: no hit, no miss, and the
    request runs once with the right bytes."""
    (machine, srm), _ = make_pair()
    total = machine.spec.total_tasks
    buffers = {r: np.zeros(256, dtype=np.uint8) for r in range(total)}
    plans = [srm.plan_broadcast(machine.task(r), buffers[r], root=0) for r in range(total)]
    for window in range(8):
        buffers[0][:] = window + 1
        drive_window(machine, plans)
    manager = machine.engine.trace
    hits, misses = manager.hit_count, manager.miss_count
    assert hits > 0 and manager.dirty_reasons["queued"] == 0

    buffers[0][:] = 77
    requests = [plan.start() for plan in plans]
    next(requests[2].wait())
    process = requests[2]._process
    assert process is not None
    machine.engine.run()
    assert (manager.hit_count, manager.miss_count) == (hits, misses)
    assert manager.dirty_reasons == {"queued": 1, "until": 0, "scheduler": 0, "faults": 0}
    assert machine.obs.metrics.to_dict()["replay.dirty.queued"]["value"] == 1
    assert requests[2]._process is process and process.ok
    assert all(request.completed for request in requests)
    for r in range(total):
        assert np.all(buffers[r] == 77), f"rank {r}"


def test_verify_replay_cell_under_a_scheduler_counts_dirty_windows(monkeypatch):
    """Every window of a verify replay cell explored under a tie-break
    scheduler runs untraced, counted as ``replay.dirty.scheduler``."""
    machines = []

    class Recorded(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(self)

    monkeypatch.setattr(runner, "Machine", Recorded)
    cell = runner.Cell(2, 2, "broadcast", "small", 2048, overlap="replay")
    outcome = runner.run_cell_once(cell, RandomScheduler(seed=3))
    assert outcome.error is None and not outcome.violations
    (machine,) = machines
    manager = machine.engine.trace
    assert manager.dirty_reasons == {"queued": 0, "until": 0, "scheduler": 6, "faults": 0}
    assert manager.hit_count == manager.miss_count == 0
    assert machine.obs.metrics.to_dict()["replay.dirty.scheduler"]["value"] == 6


def test_unread_replayed_windows_keep_rows_pending():
    """A hit hands the trace's span and flow tails to the recorder by
    reference: across unread hit windows the stored columns stay flat while
    ``len()`` grows by a trace's tail on each hit, and one read copies every
    pending row into the columns."""
    (machine, srm), _ = make_pair()
    total = machine.spec.total_tasks
    buffers = {r: np.zeros(2048, dtype=np.uint8) for r in range(total)}
    sources = {r: np.full(512, float(r + 1)) for r in range(total)}
    outs = {r: np.zeros(512) for r in range(total)}
    plans = []
    for r in range(total):
        plans.append(srm.plan_broadcast(machine.task(r), buffers[r], root=0))
        plans.append(srm.plan_allreduce(machine.task(r), sources[r], outs[r], SUM))
    recorder = machine.obs.recorder
    manager = None
    hit_windows = []
    for window in range(8):
        buffers[0][:] = window + 1
        before = len(recorder.spans)
        hits_before = manager.hit_count if manager is not None else 0
        drive_window(machine, plans)
        manager = machine.engine.trace
        stored = (len(recorder.spans.start), len(recorder.flows.kind))
        grew = len(recorder.spans) - before
        if manager.hit_count > hits_before:
            hit_windows.append((stored, grew))
    assert len(hit_windows) >= 4
    tails = {len(trace.span_tail["name"]) for trace in manager._traces.values()}
    assert all(grew in tails and grew > 0 for _stored, grew in hit_windows)
    assert len({stored for stored, _grew in hit_windows}) == 1, "the columns grew on a hit"
    (stored_spans, stored_flows), _grew = hit_windows[0]
    assert stored_spans < len(recorder.spans) and stored_flows < len(recorder.flows)

    assert len(list(recorder.spans)) == len(recorder.spans.start) == len(recorder.spans)
    assert len(list(recorder.flows)) == len(recorder.flows.kind) == len(recorder.flows)


def test_no_replay_config_never_installs_the_manager():
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    srm = SRM(machine, config=SRMConfig(compiled_replay=False))
    buffer = np.ones(64, dtype=np.uint8)
    plans = [
        srm.plan_broadcast(machine.task(r), np.zeros(64, dtype=np.uint8) if r else buffer, root=0)
        for r in range(4)
    ]
    for _ in range(4):
        drive_window(machine, plans)
    assert machine.engine.trace is None
    assert "replay.hits" not in machine.obs.metrics.to_dict()


def test_rebind_invalidates_cached_traces():
    (machine, srm), _ = make_pair()
    total = machine.spec.total_tasks
    buffers = {r: np.zeros(128, dtype=np.uint8) for r in range(total)}
    plans = [srm.plan_broadcast(machine.task(r), buffers[r], root=0) for r in range(total)]
    for window in range(6):
        buffers[0][:] = window + 1
        drive_window(machine, plans)
    manager = machine.engine.trace
    assert manager.hit_count > 0
    assert manager._traces

    fresh = {r: np.zeros(128, dtype=np.uint8) for r in range(total)}
    for rank, plan in enumerate(plans):
        plan.rebind(fresh[rank])
    # Every cached trace referenced the rebound plans: all dropped.
    assert not manager._traces

    for window in range(6):
        fresh[0][:] = 100 + window
        drive_window(machine, plans)
        for r in range(total):
            assert np.all(fresh[r] == 100 + window), f"rank {r} missed the rebound payload"
    # The rebound windows re-recorded and then replayed again.
    assert manager._traces


def test_a_plan_rebound_between_start_and_run_replays_onto_its_new_buffers():
    """Starts made before ``rebind()`` run on the old buffers, and every
    later window on the new ones: a 2x2 float64 broadcast of 256 doubles
    runs 4 windows, then every plan is started, rebound to a fresh buffer
    and run, then 4 more windows; every window leaves both the old and the
    new buffers byte for byte as the slow-path twin does."""
    sides = []
    for machine, srm in make_pair():
        total = machine.spec.total_tasks
        old = {r: np.zeros(256) for r in range(total)}
        fresh = {r: np.zeros(256) for r in range(total)}
        plans = [srm.plan_broadcast(machine.task(r), old[r], root=0) for r in range(total)]
        sides.append((machine, plans, old, fresh))

    def same(label):
        (_, _, old_on, fresh_on), (_, _, old_off, fresh_off) = sides
        for r in old_on:
            assert old_on[r].tobytes() == old_off[r].tobytes(), f"{label}: old buffer of rank {r}"
            assert fresh_on[r].tobytes() == fresh_off[r].tobytes(), f"{label}: new buffer of rank {r}"

    for window in range(4):
        for machine, plans, old, _fresh in sides:
            old[0][:] = window + 1
            drive_window(machine, plans)
        same(f"window {window}")
    for machine, plans, old, fresh in sides:
        old[0][:] = 50
        requests = [plan.start() for plan in plans]
        for rank, plan in enumerate(plans):
            plan.rebind(fresh[rank])
        machine.engine.run()
        assert all(request.completed for request in requests)
    same("the rebound window")
    assert all(np.all(old[r] == 50) for r in old)
    for window in range(4):
        for machine, plans, _old, fresh in sides:
            fresh[0][:] = 100 + window
            drive_window(machine, plans)
        same(f"window {window} on the new buffers")
    assert sides[0][0].engine.trace.hit_count > 0


# ---------------------------------------------------------------------------
# failure paths: half-written traces must never survive
# ---------------------------------------------------------------------------


def _hub_tapes_restored(machine):
    """True when no hub instrument is still a recording proxy."""
    return not any(
        isinstance(value, _HistogramTape) for value in vars(machine.obs).values()
    )


def test_deadlock_during_recording_caches_nothing_and_recovers():
    """A recorded window that deadlocks leaves no half-trace; later windows
    record from scratch on the slow path and then replay, byte-identical to
    the slow-path twin driven through the same (partial) start sequence."""
    (machine, srm), (twin, twin_srm) = make_pair()
    results = {}
    for label, (mach, facade) in (("on", (machine, srm)), ("off", (twin, twin_srm))):
        total = mach.spec.total_tasks
        buffers = {r: np.zeros(192, dtype=np.uint8) for r in range(total)}
        plans = [
            facade.plan_broadcast(mach.task(r), buffers[r], root=0) for r in range(total)
        ]
        buffers[0][:] = 9
        # Window 0: only non-root rank 1 starts — it blocks on a READY flag
        # the absent root never sets, so the window can never complete.
        partial = plans[1].start()
        if label == "on":
            with pytest.raises(DeadlockError):
                mach.engine.run()
            manager = mach.engine.trace
            assert manager._traces == {}
            assert manager.recording is None
            assert _hub_tapes_restored(mach)
        else:
            mach.engine.run()  # the slow path just leaves the request pending
        assert not partial.completed
        # Recovery window: the remaining ranks join rank 1's outstanding start.
        for rank, plan in enumerate(plans):
            if rank != 1:
                plan.start()
        mach.engine.run()
        assert partial.completed
        # Healthy full windows afterwards: record, then replay.
        for window in range(6):
            buffers[0][:] = 20 + window
            drive_window(mach, plans)
        results[label] = {r: buffers[r].tobytes() for r in range(total)}
    assert results["on"] == results["off"]
    assert machine.engine.trace.hit_count > 0
    assert machine.engine.now == pytest.approx(twin.engine.now, abs=1e-9)


def test_exception_mid_recording_discards_the_stale_trace():
    """An exception during a recorded window leaves an armed recording; the
    next flush must discard it, restore the tapped instruments, and record
    the fresh window instead of caching torn state."""
    from repro.shmem.flags import SharedFlag

    (machine, srm), _ = make_pair()
    total = machine.spec.total_tasks
    buffers = {r: np.zeros(96, dtype=np.uint8) for r in range(total)}
    plans = [srm.plan_broadcast(machine.task(r), buffers[r], root=0) for r in range(total)]

    original = SharedFlag.store
    calls = {"n": 0}

    def exploding(self, value, writer_rank=None):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("injected mid-window fault")
        return original(self, value, writer_rank=writer_rank)

    SharedFlag.store = exploding
    try:
        buffers[0][:] = 1
        for plan in plans:
            plan.start()
        with pytest.raises(RuntimeError, match="injected mid-window fault"):
            machine.engine.run()
    finally:
        SharedFlag.store = original

    manager = machine.engine.trace
    assert manager.recording is not None  # armed, uncommitted

    # The wedged context is abandoned; a fresh facade on the same machine
    # must flush the stale recording and then work normally.
    fresh_srm = SRM(machine)
    fresh = {r: np.zeros(96, dtype=np.uint8) for r in range(total)}
    fresh_plans = [
        fresh_srm.plan_broadcast(machine.task(r), fresh[r], root=0) for r in range(total)
    ]
    hits_before = manager.hit_count
    for window in range(6):
        fresh[0][:] = 30 + window
        drive_window(machine, fresh_plans)
        for r in range(total):
            assert np.all(fresh[r] == 30 + window)
    assert manager.recording is None
    assert _hub_tapes_restored(machine)
    assert manager.hit_count > hits_before
