"""Cross-stack integration and property-based tests.

These exercise the full stacks end-to-end — all three collective
implementations delivering the same answers on the same cluster shapes, with
arbitrary (hypothesis-generated) sizes, roots, dtypes, and call sequences.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import build
from repro.core import SRM
from repro.machine import ClusterSpec, Machine
from repro.mpi.ops import MAX, MIN, SUM
from repro.verify import Verifier

STACK_NAMES = ("srm", "ibm", "mpich")


def run_broadcast(machine, stack, payload, root):
    total = machine.spec.total_tasks
    buffers = {r: (payload.copy() if r == root else np.zeros_like(payload)) for r in range(total)}

    def program(task):
        yield from stack.broadcast(task, buffers[task.rank], root=root)

    machine.launch(program)
    return buffers


def run_allreduce(machine, stack, sources, op):
    total = machine.spec.total_tasks
    outs = {r: np.zeros_like(sources[r]) for r in range(total)}

    def program(task):
        yield from stack.allreduce(task, sources[task.rank], outs[task.rank], op)

    machine.launch(program)
    return outs


# ---------------------------------------------------------------------------
# all stacks agree
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", STACK_NAMES)
def test_stacks_deliver_identical_broadcast(name):
    machine, stack = build(name, ClusterSpec(nodes=3, tasks_per_node=3))
    payload = np.random.default_rng(5).random(777)
    buffers = run_broadcast(machine, stack, payload, root=4)
    for buffer in buffers.values():
        assert np.array_equal(buffer, payload)


@pytest.mark.parametrize("name", STACK_NAMES)
@pytest.mark.parametrize("op,reducer", [(SUM, np.sum), (MIN, np.min), (MAX, np.max)])
def test_stacks_deliver_identical_allreduce(name, op, reducer):
    machine, stack = build(name, ClusterSpec(nodes=2, tasks_per_node=3))
    rng = np.random.default_rng(9)
    sources = {r: rng.random(100) for r in range(6)}
    outs = run_allreduce(machine, stack, sources, op)
    expected = reducer(np.stack(list(sources.values())), axis=0)
    for out in outs.values():
        assert np.allclose(out, expected)


def test_mixed_operation_sequence_all_stacks():
    """A realistic application pattern: bcast -> compute -> reduce ->
    allreduce -> barrier, several iterations, identical results."""
    finals = {}
    for name in STACK_NAMES:
        machine, stack = build(name, ClusterSpec(nodes=2, tasks_per_node=4))
        total = 8
        state = {r: np.zeros(64) for r in range(total)}
        if True:
            state[0][:] = 1.0
        reduced = np.zeros(64)
        summed = {r: np.zeros(64) for r in range(total)}

        def program(task):
            for _iteration in range(3):
                yield from stack.broadcast(task, state[task.rank], root=0)
                local = state[task.rank] * (task.rank + 1)
                dst = reduced if task.rank == 0 else None
                yield from stack.reduce(task, local, dst, SUM, root=0)
                yield from stack.allreduce(task, local, summed[task.rank], SUM)
                yield from stack.barrier(task)
                if task.rank == 0:
                    state[0][:] = reduced / 36.0

        machine.launch(program)
        finals[name] = (state[0].copy(), summed[0].copy())

    for name in ("ibm", "mpich"):
        assert np.allclose(finals[name][0], finals["srm"][0])
        assert np.allclose(finals[name][1], finals["srm"][1])


def test_srm_wins_on_representative_points():
    """The paper's claim holds at every probed (op, size) corner."""
    from repro.bench import time_operation

    spec = ClusterSpec(nodes=4, tasks_per_node=16)
    for operation, nbytes in [
        ("broadcast", 64),
        ("broadcast", 100_000),
        ("reduce", 4096),
        ("allreduce", 16384),
        ("barrier", 0),
    ]:
        machine, srm = build("srm", spec)
        srm_time = time_operation(machine, srm, operation, nbytes, repeats=2).seconds
        machine, ibm = build("ibm", spec)
        ibm_time = time_operation(machine, ibm, operation, nbytes, repeats=2).seconds
        assert srm_time < ibm_time, f"SRM lost {operation}/{nbytes}"


# ---------------------------------------------------------------------------
# property-based correctness
# ---------------------------------------------------------------------------


@given(
    nodes=st.integers(1, 4),
    tasks=st.integers(1, 5),
    count=st.integers(1, 3000),
    root_seed=st.integers(0, 1_000),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_srm_broadcast_property(nodes, tasks, count, root_seed, data):
    machine, stack = build("srm", ClusterSpec(nodes=nodes, tasks_per_node=tasks))
    root = root_seed % machine.spec.total_tasks
    payload = np.frombuffer(
        np.random.default_rng(root_seed).bytes(count), dtype=np.uint8
    ).copy()
    buffers = run_broadcast(machine, stack, payload, root)
    for buffer in buffers.values():
        assert np.array_equal(buffer, payload)
    del data


@given(
    nodes=st.integers(1, 4),
    tasks=st.integers(1, 4),
    count=st.integers(1, 2500),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=25, deadline=None)
def test_srm_allreduce_property(nodes, tasks, count, seed):
    machine, stack = build("srm", ClusterSpec(nodes=nodes, tasks_per_node=tasks))
    total = machine.spec.total_tasks
    rng = np.random.default_rng(seed)
    sources = {r: rng.integers(-1000, 1000, count).astype(np.int64) for r in range(total)}
    outs = run_allreduce(machine, stack, sources, SUM)
    expected = np.sum(np.stack(list(sources.values())), axis=0)
    for out in outs.values():
        assert np.array_equal(out, expected)


#: name -> (cluster, group members or None for the whole machine).  The
#: property draws the first five; ``2x3`` hosts one of its examples.
PROGRAM_SHAPES = {
    "2x2": (ClusterSpec(nodes=2, tasks_per_node=2), None),
    "3x3": (ClusterSpec(nodes=3, tasks_per_node=3), None),
    "3-2-3": (ClusterSpec(nodes=3, tasks_per_node=[3, 2, 3]), None),
    "3-1-2": (ClusterSpec(nodes=3, tasks_per_node=[3, 1, 2]), None),
    "group-0-1-2": (ClusterSpec(nodes=2, tasks_per_node=2), [0, 1, 2]),
    "2x3": (ClusterSpec(nodes=2, tasks_per_node=3), None),
}
PROGRAM_OPS = (
    "broadcast", "reduce", "allreduce", "barrier", "scatter",
    "gather", "allgather", "alltoall", "scan", "reduce_scatter",
)
KB = 1024
#: At and around the 8, 16 and 64 KB switch points, plus a few larger sizes.
PROGRAM_SIZES = sorted(
    [size + delta for size in (8 * KB, 16 * KB, 64 * KB) for delta in (-8, 0, 8)]
    + [8, 40_000, 70_000, 150_000]
)


def _program_call(op, nbytes, root, members, index):
    """One call of a mixed program: (per-rank call on a stack, result arrays
    per rank, NumPy truth per rank).  Inputs are small integers, so every
    sum is exact in any order."""
    size = len(members)
    position = {rank: spot for spot, rank in enumerate(members)}
    count = max(1, nbytes // 8)

    def doubles(rank, length):
        return np.arange(length, dtype=np.float64) % 7 + rank + index

    if op == "broadcast":
        payload = ((np.arange(nbytes) + 31 * index + root) % 251).astype(np.uint8)
        bufs = {r: payload.copy() if r == root else np.zeros(nbytes, np.uint8) for r in members}
        return (lambda s, t: s.broadcast(t, bufs[t.rank], root=root)), bufs, {r: payload for r in members}
    if op == "barrier":
        return (lambda s, t: s.barrier(t)), {}, {}
    if op in ("reduce", "allreduce", "scan"):
        src = {r: doubles(r, count) for r in members}
        dst = {r: np.zeros(count) for r in members}
        prefix = np.cumsum([src[r] for r in members], axis=0)
        if op == "reduce":
            return (
                (lambda s, t: s.reduce(t, src[t.rank], dst[t.rank], SUM, root=root)),
                {root: dst[root]},
                {root: prefix[-1]},
            )
        if op == "allreduce":
            return (lambda s, t: s.allreduce(t, src[t.rank], dst[t.rank], SUM)), dst, {r: prefix[-1] for r in members}
        return (lambda s, t: s.scan(t, src[t.rank], dst[t.rank], SUM)), dst, {r: prefix[position[r]] for r in members}
    if op == "reduce_scatter":
        src = {r: doubles(r, count * size) for r in members}
        dst = {r: np.zeros(count) for r in members}
        total = np.sum([src[r] for r in members], axis=0)
        truth = {r: total[position[r] * count : (position[r] + 1) * count] for r in members}
        return (lambda s, t: s.reduce_scatter(t, src[t.rank], dst[t.rank], SUM)), dst, truth
    block = max(1, nbytes // size)
    blocks = {r: ((np.arange(block * size) + 7 * r + index) % 253).astype(np.uint8) for r in members}
    mine = {r: blocks[r][:block].copy() for r in members}
    out = {r: np.zeros(block * size, np.uint8) for r in members}
    gathered = np.concatenate([mine[r] for r in members])
    if op == "scatter":
        out = {r: np.zeros(block, np.uint8) for r in members}
        truth = {r: blocks[root][position[r] * block : (position[r] + 1) * block] for r in members}
        return (lambda s, t: s.scatter(t, blocks[t.rank], out[t.rank], root=root)), out, truth
    if op == "gather":
        return (lambda s, t: s.gather(t, mine[t.rank], out[t.rank], root=root)), {root: out[root]}, {root: gathered}
    if op == "allgather":
        return (lambda s, t: s.allgather(t, mine[t.rank], out[t.rank])), out, {r: gathered for r in members}
    truth = {
        r: np.concatenate(
            [blocks[peer][position[r] * block : (position[r] + 1) * block] for peer in members]
        )
        for r in members
    }
    return (lambda s, t: s.alltoall(t, blocks[t.rank], out[t.rank])), out, truth


def run_mixed_program(stack_name, shape, calls):
    """Run ``calls`` — ``(op, nbytes, root index)`` — as one launch of one
    program on ``stack_name`` under a strict Verifier and check every result
    against NumPy."""
    spec, group = PROGRAM_SHAPES[shape]
    machine, stack = build(stack_name, spec)
    machine.engine.verifier = Verifier(strict=True)
    if group is not None:
        stack = SRM(machine, group=group)
    members = list(group) if group is not None else list(range(spec.total_tasks))
    program = [
        _program_call(op, nbytes, members[root % len(members)], members, index)
        for index, (op, nbytes, root) in enumerate(calls)
    ]

    def body(task):
        for call, _results, _truth in program:
            yield from call(stack, task)

    machine.launch(body, ranks=members)
    for index, (_call, results, truth) in enumerate(program):
        for rank, expected in truth.items():
            assert np.array_equal(results[rank], expected), (
                f"{stack_name}: call {index} {calls[index]} wrong at rank {rank}"
            )


@given(
    shape=st.sampled_from(list(PROGRAM_SHAPES)[:5]),
    calls=st.lists(
        st.tuples(
            st.sampled_from(PROGRAM_OPS),
            st.sampled_from(PROGRAM_SIZES),
            st.integers(0, 8),
        ),
        min_size=2,
        max_size=4,
    ),
)
# The smallest repro of each class of cross-call slot race.  A: a large
# broadcast fills the node buffer behind the small protocol's credit (the
# last rank deadlocked after buffer-overwrite-in-use).  B: the reduce's
# parent moves with the root and a leaf refilled a slot its old parent
# still read (wrong bytes, sequence-decrease).  C: the node root
# accumulated in its own reduce slot under its last reader (wrong bytes, no
# rule fired).
@example(shape="2x2", calls=[("broadcast", 70_000, 0), ("broadcast", 8, 0)])
@example(shape="2x3", calls=[("reduce", 16_384, 1), ("reduce", 16_384, 0)])
@example(shape="3-1-2", calls=[("reduce", 16_384, 1), ("reduce", 8, 3)])
@settings(max_examples=40, deadline=None)
def test_srm_repeated_mixed_sizes_property(shape, calls):
    """Programs that change operation, size, protocol and root between calls
    reuse every shared slot correctly: the right bytes, no rule broken, no
    deadlock — checked against NumPy and, on whole machines, against the
    IBM stack."""
    run_mixed_program("srm", shape, calls)
    if PROGRAM_SHAPES[shape][1] is None:
        run_mixed_program("ibm", shape, calls)


@given(
    nodes=st.integers(1, 3),
    tasks=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=15, deadline=None)
def test_baseline_allreduce_property(nodes, tasks, seed):
    machine, stack = build("ibm", ClusterSpec(nodes=nodes, tasks_per_node=tasks))
    total = machine.spec.total_tasks
    rng = np.random.default_rng(seed)
    sources = {r: rng.random(64) for r in range(total)}
    outs = run_allreduce(machine, stack, sources, SUM)
    expected = np.sum(np.stack(list(sources.values())), axis=0)
    for out in outs.values():
        assert np.allclose(out, expected)


def test_simulation_is_deterministic():
    """Two identical runs produce bit-identical clocks and results."""

    def run():
        machine, stack = build("srm", ClusterSpec(nodes=2, tasks_per_node=4))
        payload = np.arange(5000, dtype=np.uint8)
        run_broadcast(machine, stack, payload, root=3)
        sources = {r: np.full(100, float(r)) for r in range(8)}
        run_allreduce(machine, stack, sources, SUM)
        return machine.now

    assert run() == run()
