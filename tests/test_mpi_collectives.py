"""Correctness + behaviour tests for the baseline MPI collective stacks."""

import numpy as np
import pytest

from repro.bench import build
from repro.machine import ClusterSpec, Machine
from repro.mpi.collectives import IbmMpi, Mpich, MpiCollectives
from repro.mpi.ops import MAX, SUM


def make(Stack, nodes=2, tasks=4):
    machine = Machine(ClusterSpec(nodes=nodes, tasks_per_node=tasks), cost=Stack.tune_cost(
        Machine(ClusterSpec(nodes=1, tasks_per_node=1)).cost
    ))
    return machine, Stack(machine)


STACKS = [IbmMpi, Mpich]


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("Stack", STACKS)
@pytest.mark.parametrize("nbytes", [1, 1000, 10_000, 200_000])
def test_broadcast_delivers(Stack, nbytes):
    machine, stack = make(Stack)
    P = machine.spec.total_tasks
    reference = np.arange(nbytes, dtype=np.uint8)
    buffers = {r: (reference.copy() if r == 0 else np.zeros_like(reference)) for r in range(P)}

    def program(task):
        yield from stack.broadcast(task, buffers[task.rank], root=0)

    machine.launch(program)
    for buffer in buffers.values():
        assert np.array_equal(buffer, reference)


@pytest.mark.parametrize("Stack", STACKS)
@pytest.mark.parametrize("root", [0, 3, 7])
def test_broadcast_rotated_root(Stack, root):
    machine, stack = make(Stack)
    P = machine.spec.total_tasks
    reference = np.full(64, 9, np.uint8)
    buffers = {r: (reference.copy() if r == root else np.zeros_like(reference)) for r in range(P)}

    def program(task):
        yield from stack.broadcast(task, buffers[task.rank], root=root)

    machine.launch(program)
    for buffer in buffers.values():
        assert np.array_equal(buffer, reference)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("Stack", STACKS)
@pytest.mark.parametrize("count", [1, 100, 5000, 40_000])
def test_reduce_sum(Stack, count):
    machine, stack = make(Stack)
    P = machine.spec.total_tasks
    sources = {r: np.full(count, float(r + 1)) for r in range(P)}
    destination = np.zeros(count)

    def program(task):
        dst = destination if task.rank == 0 else None
        yield from stack.reduce(task, sources[task.rank], dst, SUM, root=0)

    machine.launch(program)
    assert np.all(destination == sum(range(1, P + 1)))


@pytest.mark.parametrize("Stack", STACKS)
def test_reduce_max_nonzero_root(Stack):
    machine, stack = make(Stack)
    P = machine.spec.total_tasks
    sources = {r: np.full(16, float(r)) for r in range(P)}
    destination = np.zeros(16)

    def program(task):
        dst = destination if task.rank == 5 else None
        yield from stack.reduce(task, sources[task.rank], dst, MAX, root=5)

    machine.launch(program)
    assert np.all(destination == P - 1)


def test_reduce_root_requires_destination():
    machine, stack = make(IbmMpi, nodes=1, tasks=2)

    def program(task):
        yield from stack.reduce(task, np.ones(4), None, SUM, root=0)

    with pytest.raises(ValueError):
        machine.launch(program)


# ---------------------------------------------------------------------------
# allreduce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("Stack", STACKS)
@pytest.mark.parametrize("nodes,tasks", [(1, 2), (2, 4), (3, 3), (2, 5), (1, 7)])
def test_allreduce_all_shapes(Stack, nodes, tasks):
    machine, stack = make(Stack, nodes=nodes, tasks=tasks)
    P = machine.spec.total_tasks
    sources = {r: np.full(32, float(r + 1)) for r in range(P)}
    destinations = {r: np.zeros(32) for r in range(P)}

    def program(task):
        yield from stack.allreduce(task, sources[task.rank], destinations[task.rank], SUM)

    machine.launch(program)
    for destination in destinations.values():
        assert np.all(destination == sum(range(1, P + 1)))


def test_ibm_allreduce_switches_algorithm_by_size():
    machine, stack = make(IbmMpi, nodes=2, tasks=2)
    assert stack.allreduce_rd_max is not None
    small = np.ones(16)
    big = np.ones(stack.allreduce_rd_max // 8 + 100)
    outs = {r: (np.zeros_like(small), np.zeros_like(big)) for r in range(4)}

    def program(task):
        yield from stack.allreduce(task, small, outs[task.rank][0], SUM)
        yield from stack.allreduce(task, big, outs[task.rank][1], SUM)

    machine.launch(program)
    for small_out, big_out in outs.values():
        assert np.all(small_out == 4)
        assert np.all(big_out == 4)


def test_mpich_allreduce_is_reduce_plus_broadcast():
    assert Mpich.allreduce_algorithm == "reduce_broadcast"
    assert IbmMpi.allreduce_algorithm == "recursive_doubling"


def test_allreduce_size_mismatch_rejected():
    machine, stack = make(IbmMpi, nodes=1, tasks=2)

    def program(task):
        yield from stack.allreduce(task, np.ones(4), np.zeros(8), SUM)

    with pytest.raises(ValueError):
        machine.launch(program)


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("Stack", STACKS)
@pytest.mark.parametrize("nodes,tasks", [(1, 1), (1, 4), (2, 4), (3, 3), (2, 7)])
def test_barrier_synchronizes(Stack, nodes, tasks):
    machine, stack = make(Stack, nodes=nodes, tasks=tasks)
    arrivals, releases = {}, {}

    def program(task):
        yield from task.compute(2e-6 * task.rank)
        arrivals[task.rank] = task.engine.now
        yield from stack.barrier(task)
        releases[task.rank] = task.engine.now

    machine.launch(program)
    assert min(releases.values()) >= max(arrivals.values())


@pytest.mark.parametrize("Stack", STACKS)
def test_repeated_barriers(Stack):
    machine, stack = make(Stack)

    def program(task):
        for _ in range(4):
            yield from stack.barrier(task)

    machine.launch(program)  # must not deadlock or mismatch tags


# ---------------------------------------------------------------------------
# stack identity / tuning
# ---------------------------------------------------------------------------


def test_stack_names():
    assert IbmMpi.name == "IBM MPI"
    assert Mpich.name == "MPICH"


def test_mpich_tuning_is_heavier():
    base = Machine(ClusterSpec(nodes=1, tasks_per_node=1)).cost
    tuned = Mpich.tune_cost(base)
    assert tuned.mpi_send_overhead > base.mpi_send_overhead
    assert tuned.eager_limits.limit_for(16) == tuned.eager_limits.limit_for(256)


def test_ibm_tuning_is_identity():
    base = Machine(ClusterSpec(nodes=1, tasks_per_node=1)).cost
    assert IbmMpi.tune_cost(base) == base


def test_trees_cached_per_root():
    machine, stack = make(IbmMpi)
    first = stack._tree(0)
    assert stack._tree(0) is first
    assert stack._tree(1) is not first


def test_srm_outperforms_baselines_smoke():
    # The paper's headline, in miniature: a small broadcast on 2x4.
    from repro.bench.runner import build, time_operation

    spec = ClusterSpec(nodes=2, tasks_per_node=4)
    times = {}
    for name in ("srm", "ibm", "mpich"):
        machine, stack = build(name, spec)
        times[name] = time_operation(machine, stack, "broadcast", 1024, repeats=2).seconds
    assert times["srm"] < times["ibm"] < times["mpich"]


@pytest.mark.parametrize("Stack", STACKS)
def test_singleton_job_all_operations(Stack):
    """P=1 must degrade every operation to a local copy (regression: the
    binomial reduce once tried to send to a None parent)."""
    machine, stack = make(Stack, nodes=1, tasks=1)
    src = np.arange(32, dtype=np.float64)
    dst = np.zeros(32)
    block_out = np.zeros(32, np.uint8)
    blocks = np.arange(32, dtype=np.uint8)
    wide = np.zeros(32, np.uint8)

    def program(task):
        yield from stack.broadcast(task, src, root=0)
        yield from stack.reduce(task, src, dst, SUM, root=0)
        yield from stack.allreduce(task, src, dst, SUM)
        yield from stack.barrier(task)
        yield from stack.scatter(task, blocks, block_out, root=0)
        yield from stack.gather(task, blocks, wide, root=0)
        yield from stack.allgather(task, blocks, wide)
        yield from stack.alltoall(task, blocks, block_out)
        yield from stack.scan(task, src, dst, SUM)
        yield from stack.reduce_scatter(task, src, dst, SUM)

    machine.launch(program)
    assert np.array_equal(dst, src)
    assert np.array_equal(wide, blocks)


def test_operations_use_disjoint_tags():
    """A gather's messages can still be in flight when the next collective
    starts; a barrier whose round tags overlapped the gather's tag matched
    them (``eager message of 21840 B into a 0 B buffer``)."""
    spec = ClusterSpec(nodes=3, tasks_per_node=[3, 1, 2])
    machine, stack = build("ibm", spec)
    total = spec.total_tasks
    block = 10_920
    sends = {r: np.full(block, r + 1, np.uint8) for r in range(total)}
    gathered = np.zeros(block * total, np.uint8)

    def program(task):
        recv = gathered if task.rank == 1 else None
        yield from stack.gather(task, sends[task.rank], recv, root=1)
        yield from stack.barrier(task)

    machine.launch(program)
    assert np.array_equal(gathered, np.concatenate([sends[r] for r in range(total)]))
