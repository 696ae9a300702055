"""Unit tests for shared segments, flags, and double buffers."""

import numpy as np
import pytest

from repro.errors import DeadlockError, ProtocolError
from repro.machine import ClusterSpec, CostModel, Machine
from repro.shmem import DoubleBuffer, FlagArray, SharedFlag, SharedSegment


@pytest.fixture
def machine():
    return Machine(ClusterSpec(nodes=2, tasks_per_node=4))


# ---------------------------------------------------------------------------
# SharedSegment
# ---------------------------------------------------------------------------


def test_segment_allocation_and_visibility(machine):
    segment = SharedSegment(machine.nodes[0], 4096)
    a = segment.allocate(128)
    b = segment.allocate(128)
    a[:] = 7
    assert not np.shares_memory(a, b)
    # Views into the same region alias the same bytes (shared memory).
    again = segment.view(0, 128)
    assert np.array_equal(again, a)


def test_segment_alignment_is_cache_line(machine):
    segment = SharedSegment(machine.nodes[0], 4096)
    segment.allocate(1)
    second = segment.allocate(1)
    # Second allocation starts at the next 64-byte boundary.
    offset = second.__array_interface__["data"][0] - segment.view(0, 1).__array_interface__["data"][0]
    assert offset == 64


def test_segment_exhaustion_raises(machine):
    segment = SharedSegment(machine.nodes[0], 100)
    segment.allocate(80)
    with pytest.raises(ProtocolError):
        segment.allocate(80)


def test_segment_view_bounds_checked(machine):
    segment = SharedSegment(machine.nodes[0], 100)
    with pytest.raises(ProtocolError):
        segment.view(90, 20)
    with pytest.raises(ProtocolError):
        segment.view(-1, 5)


def test_segment_typed_views(machine):
    segment = SharedSegment(machine.nodes[0], 1024)
    doubles = segment.allocate(8 * 10, dtype=np.float64)
    assert doubles.shape == (10,)
    doubles[:] = 1.5
    assert segment.view(0, 80, dtype=np.float64)[0] == 1.5


# ---------------------------------------------------------------------------
# SharedFlag
# ---------------------------------------------------------------------------


def test_flag_set_and_wait(machine):
    node = machine.nodes[0]
    flag = SharedFlag(node, name="t")
    t0, t1 = machine.task(0), machine.task(1)
    times = {}

    def setter(t):
        yield t.engine.timeout(5e-6)
        yield from flag.set(t, 1)
        times["set"] = t.engine.now

    def waiter(t):
        value = yield from flag.wait_value(t, 1)
        times["seen"] = t.engine.now
        return value

    def program(t):
        if t.rank == 0:
            yield from setter(t)
        else:
            result = yield from waiter(t)
            return result

    result = machine.launch(program, ranks=[0, 1])
    assert result.results[1] == 1
    # Waiter observes the flag one poll interval after the set.
    assert times["seen"] == pytest.approx(times["set"] + machine.cost.flag_poll_interval)
    del t0, t1


def test_flag_wait_already_satisfied_costs_one_poll(machine):
    node = machine.nodes[0]
    flag = SharedFlag(node, initial=3)

    def program(t):
        yield from flag.wait_value(t, 3)

    elapsed = machine.launch(program, ranks=[0]).elapsed
    assert elapsed == pytest.approx(machine.cost.flag_poll_interval)


def test_flag_long_wait_yields_cpu(machine):
    node = machine.nodes[0]
    flag = SharedFlag(node)
    spin_window = machine.cost.spin_yield_threshold * machine.cost.flag_poll_interval

    def setter(t):
        yield t.engine.timeout(spin_window * 10)
        yield from flag.set(t, 1)

    def waiter(t):
        yield from flag.wait_value(t, 1)

    def program(t):
        if t.rank == 0:
            yield from setter(t)
        else:
            yield from waiter(t)

    machine.launch(program, ranks=[0, 1])
    assert machine.task(1).stats.yields == 1


def test_flag_cross_node_access_rejected(machine):
    flag = SharedFlag(machine.nodes[0])
    remote_task = machine.task(4)  # lives on node 1

    def program(t):
        yield from flag.set(t, 1)

    with pytest.raises(ProtocolError):
        machine.launch(program, ranks=[4])
    del remote_task


def test_flag_untimed_store_wakes_waiters(machine):
    flag = SharedFlag(machine.nodes[0])

    def waiter(t):
        value = yield from flag.wait_for(t, lambda v: v >= 2)
        return value

    def poker(t):
        yield t.engine.timeout(1e-6)
        flag.store(1)  # not enough
        yield t.engine.timeout(1e-6)
        flag.store(2)  # wakes the waiter

    def program(t):
        if t.rank == 0:
            result = yield from waiter(t)
            return result
        yield from poker(t)

    result = machine.launch(program, ranks=[0, 1])
    assert result.results[0] == 2


# ---------------------------------------------------------------------------
# FlagArray
# ---------------------------------------------------------------------------


def test_flag_array_wait_all_and_reset(machine):
    node = machine.nodes[0]
    flags = FlagArray(node, 4)

    def program(t):
        local = t.local_index
        if local == 0:
            # Master: wait for everyone else, then reset them.
            yield from flags.wait_all(t, lambda v: v == 1, skip=0)
            yield from flags.set_all(t, 0, skip=0)
            return flags.values()
        yield t.engine.timeout(1e-6 * local)
        yield from flags[local].set(t, 1)

    result = machine.launch(program, ranks=[0, 1, 2, 3])
    assert result.results[0] == [0, 0, 0, 0]


def test_flag_array_wait_all_immediate_when_satisfied(machine):
    flags = FlagArray(machine.nodes[0], 3, initial=1)

    def program(t):
        yield from flags.wait_all(t, lambda v: v == 1)

    elapsed = machine.launch(program, ranks=[0]).elapsed
    assert elapsed == pytest.approx(machine.cost.flag_poll_interval)


def test_flag_array_set_all_cost_scales_with_count(machine):
    flags = FlagArray(machine.nodes[0], 8)

    def program(t):
        yield from flags.set_all(t, 5)

    elapsed = machine.launch(program, ranks=[0]).elapsed
    assert elapsed == pytest.approx(8 * machine.cost.flag_set_cost)
    assert flags.values() == [5] * 8


def test_flag_array_needs_at_least_one(machine):
    with pytest.raises(ProtocolError):
        FlagArray(machine.nodes[0], 0)


# ---------------------------------------------------------------------------
# DoubleBuffer
# ---------------------------------------------------------------------------


def test_double_buffer_views_and_flags(machine):
    dbuf = DoubleBuffer(machine.nodes[0], 1024, seats=4)
    view = dbuf.data(0, 100)
    view[:] = 9
    assert np.all(dbuf.data(0, 100) == 9)
    assert len(dbuf.seats[0]) == 4
    assert len(dbuf.seats[1]) == 4


def test_double_buffer_bounds(machine):
    dbuf = DoubleBuffer(machine.nodes[0], 64, seats=2)
    with pytest.raises(ProtocolError):
        dbuf.data(0, 65)
    # A sequence picks its generation by parity.
    assert np.shares_memory(dbuf.data(2, 10), dbuf.data(0, 10))
    assert not np.shares_memory(dbuf.data(3, 10), dbuf.data(0, 10))
    with pytest.raises(ProtocolError):
        DoubleBuffer(machine.nodes[0], 0, seats=1)


def count_resumes(monkeypatch):
    """Record, per process name, the simulated time of every resume."""
    from repro.sim.process import Process

    stamps: dict[str, list[float]] = {}
    resume = Process._resume

    def counting(self, event):
        stamps.setdefault(self.name, []).append(self.engine.now)
        return resume(self, event)

    monkeypatch.setattr(Process, "_resume", counting)
    return stamps


def test_blocked_flag_wait_resumes_once(monkeypatch):
    # The waiter blocks, the writer sets the flag at 5.5 us, and the waiter
    # resumes once, after the detection delay; the event stream is the one a
    # resume at the wake-up followed by a detection timeout produces (8).
    stamps = count_resumes(monkeypatch)
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=2))
    engine = machine.engine
    flag = SharedFlag(machine.nodes[0], name="ready")

    def waiter():
        return (yield from flag.wait_value(machine.task(0), 1))

    def writer():
        yield engine.timeout(5e-6)
        yield from flag.set(machine.task(1), 1)

    waiting = engine.process(waiter(), name="waiter")
    engine.process(writer(), name="writer")
    engine.run()
    assert waiting.value == 1
    set_at = 5e-6 + machine.cost.flag_set_cost
    assert stamps["waiter"] == [0.0, set_at + machine.cost.flag_poll_interval]
    assert engine.events_processed == 8


def test_blocked_flag_waits_name_what_they_wait_on_in_deadlocks():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=2))
    flag = SharedFlag(machine.nodes[0], name="never")
    bank = FlagArray(machine.nodes[0], 3, name="bank")

    def program(task):
        if task.rank == 0:
            yield from flag.wait_value(task, 1)
        else:
            yield from bank.wait_all(task, lambda value: value == 1, skip=task.local_index)

    with pytest.raises(DeadlockError) as excinfo:
        machine.launch(program)
    message = str(excinfo.value)
    assert "rank0 blocked on <Event 'flag:never' pending at t=0>" in message
    assert "rank1 blocked on <AllOf pending at t=0>" in message
