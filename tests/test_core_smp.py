"""Unit tests for the intra-node SMP protocol primitives."""

import numpy as np
import pytest

from repro.core import SRM
from repro.core.smp.barrier import smp_barrier
from repro.core.smp.broadcast import (
    announce_slot,
    drain_slot,
    fill_slot,
    smp_broadcast_chunk,
    tree_smp_broadcast_chunk,
)
from repro.core.smp.reduce import smp_reduce_chunk
from repro.machine import ClusterSpec, Machine
from repro.mpi.ops import MAX, SUM
from repro.trees import binomial_tree, map_to_ranks


def node_setup(tasks=4):
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=tasks))
    srm = SRM(machine)
    return machine, srm, srm.ctx.nodes[0]


def bcast_seq(state, task):
    """Reserve one SMP-broadcast chunk sequence for ``task``."""
    return state.ledger.reserve(("bcast", task.rank), 1)


def reduce_seq(state, task):
    """Reserve one SMP-reduce chunk sequence for ``task``."""
    return state.ledger.reserve(("reduce", task.rank), 1)


# ---------------------------------------------------------------------------
# flat broadcast primitives
# ---------------------------------------------------------------------------


def test_fill_announce_drain_cycle():
    machine, srm, state = node_setup(4)
    source = np.arange(256, dtype=np.uint8)
    sinks = {r: np.zeros(256, np.uint8) for r in (1, 2, 3)}

    def program(task):
        if task.rank == 0:
            yield from fill_slot(state, task, 0, source)
        else:
            yield from drain_slot(state, task, 0, sinks[task.rank])

    machine.launch(program)
    for sink in sinks.values():
        assert np.array_equal(sink, source)
    # Every reader handed write 0 back (the root's own seat was never used).
    assert state.bcast_buf.seats[0].values() == [0, 2, 2, 2]


def test_fill_waits_for_buffer_free():
    machine, srm, state = node_setup(2)
    # Hand write 0 to the reader's seat: the buffer is "still in use".
    state.bcast_buf.seats[0][1].store(1)
    first_fill_time = {}

    def program(task):
        if task.rank == 0:
            # Write 2 reuses write 0's generation.
            yield from fill_slot(state, task, 2, np.ones(16, np.uint8))
            first_fill_time["t"] = task.engine.now
        else:
            yield from task.compute(50e-6)  # simulate a slow previous drain
            yield from state.bcast_buf.release(task, 0, seat=1)

    machine.launch(program)
    assert first_fill_time["t"] >= 50e-6


def test_announce_sets_other_flags_only():
    machine, srm, state = node_setup(4)

    def program(task):
        yield from announce_slot(state, task, 1)

    machine.launch(program, ranks=[0])
    assert state.bcast_buf.seats[1].values() == [0, 1, 1, 1]


def test_smp_broadcast_chunk_single_task_noop():
    machine, srm, state = node_setup(1)

    def program(task):
        yield from smp_broadcast_chunk(
            state, task, True, np.ones(8, np.uint8), None, bcast_seq(state, task)
        )

    elapsed = machine.launch(program).elapsed
    assert elapsed == 0.0
    assert state.ledger["bcast", 0] == 1  # the reservation still advances


def test_smp_broadcast_chunk_alternates_slots():
    machine, srm, state = node_setup(2)
    source = np.full(64, 3, np.uint8)
    sink = np.zeros(64, np.uint8)

    def program(task):
        for _ in range(4):
            sequence = bcast_seq(state, task)
            if task.rank == 0:
                yield from smp_broadcast_chunk(state, task, True, source, None, sequence)
            else:
                yield from smp_broadcast_chunk(state, task, False, None, sink, sequence)

    machine.launch(program)
    assert [state.ledger["bcast", rank] for rank in (0, 1)] == [4, 4]
    assert np.all(sink == 3)


# ---------------------------------------------------------------------------
# tree broadcast (ablation variant)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tasks", [2, 4, 8, 16])
def test_tree_broadcast_delivers(tasks):
    machine, srm, state = node_setup(tasks)
    tree = map_to_ranks(binomial_tree(tasks), list(range(tasks)))
    source = np.arange(512, dtype=np.uint8)
    sinks = {r: np.zeros(512, np.uint8) for r in range(1, tasks)}

    def program(task):
        for _round in range(3):  # repeated chunks exercise flow control
            src = source if task.rank == 0 else None
            dst = None if task.rank == 0 else sinks[task.rank]
            yield from tree_smp_broadcast_chunk(state, task, tree, src, dst)

    machine.launch(program)
    for sink in sinks.values():
        assert np.array_equal(sink, source)


def test_tree_broadcast_slower_than_flat():
    """The §2.2 finding at primitive level (also bench A2)."""

    def run(flavor, tasks=16):
        machine, srm, state = node_setup(tasks)
        tree = map_to_ranks(binomial_tree(tasks), list(range(tasks)))
        source = np.ones(4096, np.uint8)
        sinks = {r: np.zeros(4096, np.uint8) for r in range(1, tasks)}

        def program(task):
            src = source if task.rank == 0 else None
            dst = None if task.rank == 0 else sinks[task.rank]
            if flavor == "flat":
                yield from smp_broadcast_chunk(
                    state, task, task.rank == 0, src, dst, bcast_seq(state, task)
                )
            else:
                yield from tree_smp_broadcast_chunk(state, task, tree, src, dst)

        return machine.launch(program).elapsed

    assert run("flat") < run("tree")


# ---------------------------------------------------------------------------
# SMP reduce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tasks", [1, 2, 3, 4, 8, 15, 16])
def test_smp_reduce_chunk_correct(tasks):
    machine, srm, state = node_setup(tasks)
    tree = srm.ctx.reduce_plan(0).trees.intra[0]
    sources = {r: np.full(100, float(r + 1)) for r in range(tasks)}
    target = np.zeros(100)

    def program(task):
        out = target if task.rank == 0 else None
        result = yield from smp_reduce_chunk(
            state, task, tree, sources[task.rank], SUM, target=out,
            sequence=reduce_seq(state, task),
        )
        return result is not None

    results = machine.launch(program).results
    assert np.all(target == sum(range(1, tasks + 1)))
    assert results[0] is True  # root returns the accumulated view
    assert all(not results[r] for r in range(1, tasks))


def test_smp_reduce_zero_copy_single_task():
    machine, srm, state = node_setup(1)
    source = np.full(10, 5.0)

    def program(task):
        result = yield from smp_reduce_chunk(
            state, task, srm.ctx.reduce_plan(0).trees.intra[0], source, SUM,
            sequence=reduce_seq(state, task),
        )
        return result

    result = machine.launch(program).results[0]
    assert result is source  # zero-copy: the source doubles as the partial
    assert machine.task(0).stats.copies == 0


def test_smp_reduce_root_copies_when_alone_with_target():
    machine, srm, state = node_setup(1)
    source = np.full(10, 5.0)
    target = np.zeros(10)

    def program(task):
        yield from smp_reduce_chunk(
            state, task, srm.ctx.reduce_plan(0).trees.intra[0], source, SUM, target=target,
            sequence=reduce_seq(state, task),
        )

    machine.launch(program)
    assert np.all(target == 5.0)


def test_smp_reduce_leaf_copy_count_matches_fig2():
    machine, srm, state = node_setup(8)
    tree = srm.ctx.reduce_plan(0).trees.intra[0]
    sources = {r: np.full(64, 1.0) for r in range(8)}
    target = np.zeros(64)

    def program(task):
        out = target if task.rank == 0 else None
        yield from smp_reduce_chunk(
            state, task, tree, sources[task.rank], SUM, target=out,
            sequence=reduce_seq(state, task),
        )

    machine.launch(program)
    total_copies = sum(t.stats.copies for t in machine.tasks)
    assert total_copies == 4  # the Fig. 2 count


def test_smp_reduce_operators(tasks=4):
    machine, srm, state = node_setup(tasks)
    tree = srm.ctx.reduce_plan(0).trees.intra[0]
    sources = {r: np.full(32, float(r)) for r in range(tasks)}
    target = np.zeros(32)

    def program(task):
        out = target if task.rank == 0 else None
        yield from smp_reduce_chunk(
            state, task, tree, sources[task.rank], MAX, target=out,
            sequence=reduce_seq(state, task),
        )

    machine.launch(program)
    assert np.all(target == tasks - 1)


def test_smp_reduce_pipelines_two_chunks_ahead():
    """A leaf may run at most two chunks ahead of its parent (the two slot
    generations), which is what overlaps the SMP and network stages."""
    machine, srm, state = node_setup(2)
    tree = srm.ctx.reduce_plan(0).trees.intra[0]
    source = np.ones(64)
    target = np.zeros(64)
    leaf_progress = []

    def program(task):
        for chunk in range(4):
            if task.rank == 1:
                yield from smp_reduce_chunk(
                    state, task, tree, source, SUM, sequence=reduce_seq(state, task)
                )
                leaf_progress.append((chunk, task.engine.now))
            else:
                yield from task.compute(100e-6)  # root is slow
                yield from smp_reduce_chunk(
                    state, task, tree, source, SUM, target=target,
                    sequence=reduce_seq(state, task),
                )

    machine.launch(program)
    # Leaf finished chunks 0 and 1 before the slow root consumed anything.
    assert leaf_progress[1][1] < 100e-6
    # But chunk 2 had to wait for the root's first consumption.
    assert leaf_progress[2][1] > 100e-6


# ---------------------------------------------------------------------------
# SMP barrier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tasks", [1, 2, 7, 16])
def test_smp_barrier_holds_everyone(tasks):
    machine, srm, state = node_setup(tasks)
    arrivals, releases = {}, {}

    def program(task):
        yield from task.compute(1e-6 * (tasks - task.rank))
        arrivals[task.rank] = task.engine.now
        yield from smp_barrier(state, task)
        releases[task.rank] = task.engine.now

    machine.launch(program)
    assert min(releases.values()) >= max(arrivals.values())


def test_smp_barrier_master_runs_between_phase():
    machine, srm, state = node_setup(4)
    phases = []

    def between(task):
        phases.append(("between", task.engine.now))
        yield from task.compute(10e-6)

    def program(task):
        if task.is_node_master:
            yield from smp_barrier(state, task, between(task))
        else:
            yield from smp_barrier(state, task)
        phases.append((task.rank, task.engine.now))

    machine.launch(program)
    between_time = next(t for label, t in phases if label == "between")
    for label, t in phases:
        if label != "between":
            assert t >= between_time + 10e-6


# ---------------------------------------------------------------------------
# barrier-synced SMP broadcast (the §4 Sistare-style A7 variant)
# ---------------------------------------------------------------------------


def test_barrier_synced_broadcast_delivers():
    from repro.core.smp.broadcast import barrier_synced_smp_broadcast_chunk

    machine, srm, state = node_setup(6)
    source = np.arange(1000, dtype=np.uint8)
    sinks = {r: np.zeros(1000, np.uint8) for r in range(1, 6)}

    def program(task):
        for _round in range(3):
            src = source if task.rank == 0 else None
            dst = None if task.rank == 0 else sinks[task.rank]
            yield from barrier_synced_smp_broadcast_chunk(
                state, task, task.rank == 0, src, dst
            )

    machine.launch(program)
    for sink in sinks.values():
        assert np.array_equal(sink, source)


def test_barrier_synced_broadcast_slower_than_flags():
    from repro.core.smp.broadcast import (
        barrier_synced_smp_broadcast_chunk,
        smp_broadcast_chunk,
    )

    def run(flavor):
        machine, srm, state = node_setup(8)
        source = np.ones(2048, np.uint8)
        sinks = {r: np.zeros(2048, np.uint8) for r in range(1, 8)}

        def program(task):
            src = source if task.rank == 0 else None
            dst = None if task.rank == 0 else sinks[task.rank]
            if flavor == "flags":
                yield from smp_broadcast_chunk(
                    state, task, task.rank == 0, src, dst, bcast_seq(state, task)
                )
            else:
                yield from barrier_synced_smp_broadcast_chunk(
                    state, task, task.rank == 0, src, dst
                )

        return machine.launch(program).elapsed

    assert run("flags") < run("barrier")
