"""Compiled-schedule replay: trace-record persistent windows, replay them.

The contract under test (:mod:`repro.core.replay`):

* a persistent plan's repeated ``start()``/``run()`` windows are recorded
  once and then replayed by the vectorized kernel — with buffers and event
  outcomes **byte-identical** to re-driving the slow path, and the engine
  clock equal within float rounding (the differential property test
  randomizes op, dtype, size, shape, root, and invalidation interleavings);
* ``replay.hits`` / ``replay.misses`` count the cache decisions, and
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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SRM, FixedPolicy, SRMConfig
from repro.core.replay import _HistogramTape
from repro.errors import DeadlockError
from repro.machine import ClusterSpec, Machine
from repro.mpi.ops import SUM


def make_pair(nodes=2, procs=2):
    """Two identical machines: compiled replay on and off."""
    on = Machine(ClusterSpec(nodes=nodes, tasks_per_node=procs))
    off = Machine(ClusterSpec(nodes=nodes, tasks_per_node=procs))
    return (
        (on, SRM(on, config=SRMConfig(compiled_replay=True))),
        (off, SRM(off, config=SRMConfig(compiled_replay=False))),
    )


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


# ---------------------------------------------------------------------------
# cache bookkeeping: counters, escape hatch, invalidation
# ---------------------------------------------------------------------------


def test_replay_hit_and_miss_counters():
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
    summary = machine.obs.metrics.to_dict()
    assert summary["replay.hits"]["value"] == manager.hit_count
    assert summary["replay.misses"]["value"] == manager.miss_count


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
