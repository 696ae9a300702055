"""Correctness + behaviour tests for the SRM collective operations."""

import numpy as np
import pytest

from repro.core import SRM, FixedPolicy, SRMConfig
from repro.machine import ClusterSpec, Machine
from repro.mpi.ops import MAX, MIN, PROD, SUM


def make(nodes=2, tasks=4, config=None, policy=None, **kwargs):
    machine = Machine(ClusterSpec(nodes=nodes, tasks_per_node=tasks), **kwargs)
    return machine, SRM(machine, config=config, policy=policy)


def run_broadcast(machine, srm, nbytes, root):
    P = machine.spec.total_tasks
    reference = np.random.default_rng(42).integers(0, 255, max(1, nbytes), dtype=np.uint8).astype(np.uint8)
    buffers = {r: (reference.copy() if r == root else np.zeros_like(reference)) for r in range(P)}

    def program(task):
        yield from srm.broadcast(task, buffers[task.rank], root=root)

    result = machine.launch(program)
    return buffers, reference, result


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nbytes", [1, 8, 100, 4096, 8192, 20_000, 65_536, 200_000])
def test_broadcast_delivers_all_sizes(nbytes):
    machine, srm = make(nodes=2, tasks=4)
    buffers, reference, _ = run_broadcast(machine, srm, nbytes, root=0)
    for rank, buffer in buffers.items():
        assert np.array_equal(buffer, reference), f"rank {rank} mismatched"


@pytest.mark.parametrize("root", [0, 1, 3, 4, 7])
def test_broadcast_arbitrary_root(root):
    # §2.2: "The algorithm supports the arbitrary root without extra copies."
    machine, srm = make(nodes=2, tasks=4)
    buffers, reference, _ = run_broadcast(machine, srm, 2048, root=root)
    for buffer in buffers.values():
        assert np.array_equal(buffer, reference)


def test_broadcast_single_node():
    machine, srm = make(nodes=1, tasks=8)
    buffers, reference, _ = run_broadcast(machine, srm, 10_000, root=3)
    for buffer in buffers.values():
        assert np.array_equal(buffer, reference)


def test_broadcast_single_task_per_node():
    machine, srm = make(nodes=4, tasks=1)
    buffers, reference, _ = run_broadcast(machine, srm, 100_000, root=2)
    for buffer in buffers.values():
        assert np.array_equal(buffer, reference)


def test_broadcast_zero_bytes_completes():
    machine, srm = make(nodes=2, tasks=2)
    empty = {r: np.zeros(0, np.uint8) for r in range(4)}

    def program(task):
        yield from srm.broadcast(task, empty[task.rank], root=0)

    machine.launch(program)  # must terminate without deadlock


def test_broadcast_protocol_switch_uses_streaming():
    # Above the 64 KB switch the payload lands in user buffers directly:
    # stream counters get used; below, only the edge counters do.
    machine, srm = make(nodes=2, tasks=2)
    ledger = srm.ctx.ledger
    run_broadcast(machine, srm, 1024, root=0)
    assert not any(key[0] == "stream" for key in ledger)
    run_broadcast(machine, srm, 100_000, root=0)
    streams = [count for key, count in ledger.items() if key[0] == "stream"]
    assert streams and all(count > 0 for count in streams)


def test_broadcast_small_pipelines_chunks():
    # 8 KB < size <= 64 KB messages travel as 4 KB chunks (§2.4): the same
    # small-protocol machinery runs multiple times per call.
    machine, srm = make(nodes=2, tasks=2)
    run_broadcast(machine, srm, 16_384, root=0)
    assert srm.ctx.ledger["bcast", 0] == 4  # 16 KB / 4 KB chunks


def test_broadcast_repeated_calls_alternate_buffers():
    machine, srm = make(nodes=1, tasks=4)
    run_broadcast(machine, srm, 1024, root=0)
    first = srm.ctx.ledger["bcast", 0]
    run_broadcast(machine, srm, 1024, root=0)
    assert srm.ctx.ledger["bcast", 0] == first + 1  # cursor advanced


def test_broadcast_faster_than_sum_of_hops_for_large():
    # Pipelining: a 1 MB broadcast over 4 nodes must take far less than
    # 4 sequential full-message wire times.
    machine, srm = make(nodes=4, tasks=4)
    nbytes = 1 << 20
    _, _, result = run_broadcast(machine, srm, nbytes, root=0)
    full_wire = machine.cost.wire_time(nbytes)
    assert result.elapsed < 2.5 * full_wire


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def run_reduce(machine, srm, count, root, op=SUM, dtype=np.float64):
    P = machine.spec.total_tasks
    rng = np.random.default_rng(7)
    sources = {r: rng.random(count).astype(dtype) + 1 for r in range(P)}
    destination = np.zeros(count, dtype=dtype)

    def program(task):
        dst = destination if task.rank == root else None
        yield from srm.reduce(task, sources[task.rank], dst, op, root=root)

    machine.launch(program)
    return sources, destination


@pytest.mark.parametrize("count", [1, 2, 100, 1024, 4096, 30_000])
def test_reduce_sum_all_sizes(count):
    machine, srm = make(nodes=2, tasks=4)
    sources, destination = run_reduce(machine, srm, count, root=0)
    expected = np.sum([sources[r] for r in sources], axis=0)
    assert np.allclose(destination, expected)


@pytest.mark.parametrize("op,combine", [(SUM, np.sum), (MAX, np.max), (MIN, np.min), (PROD, np.prod)])
def test_reduce_operators(op, combine):
    machine, srm = make(nodes=2, tasks=2)
    sources, destination = run_reduce(machine, srm, 64, root=0, op=op)
    stacked = np.stack([sources[r] for r in sources])
    assert np.allclose(destination, combine(stacked, axis=0))


@pytest.mark.parametrize("root", [0, 2, 5, 7])
def test_reduce_arbitrary_root(root):
    machine, srm = make(nodes=2, tasks=4)
    sources, destination = run_reduce(machine, srm, 500, root=root)
    expected = np.sum([sources[r] for r in sources], axis=0)
    assert np.allclose(destination, expected)


def test_reduce_root_needs_destination():
    machine, srm = make(nodes=1, tasks=2)

    def program(task):
        yield from srm.reduce(task, np.ones(4), None, SUM, root=0)

    with pytest.raises(ValueError):
        machine.launch(program)


def test_reduce_source_buffers_unchanged():
    machine, srm = make(nodes=2, tasks=4)
    sources, _ = run_reduce(machine, srm, 256, root=0)
    # smp_reduce must never scribble on contributor buffers.
    rng = np.random.default_rng(7)
    for r in range(8):
        assert np.allclose(sources[r], rng.random(256) + 1)


def test_reduce_int_dtype():
    machine, srm = make(nodes=2, tasks=2)
    P = 4
    sources = {r: np.full(32, r + 1, dtype=np.int64) for r in range(P)}
    destination = np.zeros(32, dtype=np.int64)

    def program(task):
        dst = destination if task.rank == 0 else None
        yield from srm.reduce(task, sources[task.rank], dst, SUM, root=0)

    machine.launch(program)
    assert np.all(destination == 10)


# ---------------------------------------------------------------------------
# allreduce
# ---------------------------------------------------------------------------


def run_allreduce(machine, srm, count, op=SUM):
    P = machine.spec.total_tasks
    rng = np.random.default_rng(11)
    sources = {r: rng.random(count) + 1 for r in range(P)}
    destinations = {r: np.zeros(count) for r in range(P)}

    def program(task):
        yield from srm.allreduce(task, sources[task.rank], destinations[task.rank], op)

    machine.launch(program)
    return sources, destinations


@pytest.mark.parametrize("count", [1, 100, 2047, 2048, 10_000, 50_000])
def test_allreduce_sum_all_sizes(count):
    # 2048 doubles = 16 KB: exactly the recursive-doubling cutoff (§2.4).
    machine, srm = make(nodes=2, tasks=4)
    sources, destinations = run_allreduce(machine, srm, count)
    expected = np.sum([sources[r] for r in sources], axis=0)
    for rank, destination in destinations.items():
        assert np.allclose(destination, expected), f"rank {rank}"


@pytest.mark.parametrize("nodes", [1, 2, 3, 4, 5, 7, 8])
def test_allreduce_any_node_count(nodes):
    # Exercises the power-of-two exchange group + fold for the rest.
    machine, srm = make(nodes=nodes, tasks=2)
    sources, destinations = run_allreduce(machine, srm, 64)
    expected = np.sum([sources[r] for r in sources], axis=0)
    for destination in destinations.values():
        assert np.allclose(destination, expected)


def test_allreduce_large_uses_pipeline():
    # Above 16 KB the reduce and broadcast stages overlap: the total time
    # must be clearly under the sum of a separate reduce + broadcast.
    machine, srm = make(nodes=4, tasks=4)
    count = 1 << 17  # 1 MB of doubles

    t_allreduce = _timed(machine, srm, "allreduce", count)
    machine2, srm2 = make(nodes=4, tasks=4)
    t_reduce = _timed(machine2, srm2, "reduce", count)
    t_bcast = _timed(machine2, srm2, "broadcast", count * 8)
    assert t_allreduce < 0.95 * (t_reduce + t_bcast)


def _timed(machine, srm, operation, size):
    start = machine.now
    if operation == "allreduce":
        sources, destinations = run_allreduce(machine, srm, size)
    elif operation == "reduce":
        run_reduce(machine, srm, size, root=0)
    else:
        run_broadcast(machine, srm, size, root=0)
    return machine.now - start


def test_allreduce_size_mismatch_rejected():
    machine, srm = make(nodes=1, tasks=2)

    def program(task):
        yield from srm.allreduce(task, np.ones(4), np.zeros(8), SUM)

    with pytest.raises(ValueError):
        machine.launch(program)


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nodes,tasks", [(1, 1), (1, 8), (2, 4), (4, 4), (3, 5), (8, 2)])
def test_barrier_synchronizes(nodes, tasks):
    machine, srm = make(nodes=nodes, tasks=tasks)
    P = machine.spec.total_tasks
    arrivals = {}
    releases = {}

    def program(task):
        yield from task.compute(1e-6 * task.rank)  # staggered arrival
        arrivals[task.rank] = task.engine.now
        yield from srm.barrier(task)
        releases[task.rank] = task.engine.now

    machine.launch(program)
    # Nobody leaves before the last arrival.
    assert min(releases.values()) >= max(arrivals.values())
    del P


def test_barrier_repeated_calls():
    machine, srm = make(nodes=2, tasks=4)
    counter = {"rounds": 0}

    def program(task):
        for _ in range(5):
            yield from srm.barrier(task)
            if task.rank == 0:
                counter["rounds"] += 1

    machine.launch(program)
    assert counter["rounds"] == 5


def test_barrier_scales_logarithmically_in_nodes():
    def barrier_time(nodes):
        machine, srm = make(nodes=nodes, tasks=4)

        def program(task):
            yield from srm.barrier(task)

        machine.launch(program)  # warm
        start = machine.now
        machine.launch(program)
        return machine.now - start

    t4, t16 = barrier_time(4), barrier_time(16)
    # 4->16 nodes adds 2 dissemination rounds, not 4x the time.
    assert t16 < 2.2 * t4


# ---------------------------------------------------------------------------
# interrupt management (§2.3)
# ---------------------------------------------------------------------------


def test_small_collectives_disable_interrupts():
    machine, srm = make(nodes=2, tasks=2)
    run_broadcast(machine, srm, 1024, root=0)
    for task in machine.tasks:
        assert task.lapi.interrupts_enabled  # re-enabled afterwards
        assert task.stats.interrupts == 0  # all waits were LAPI polls


def test_interrupt_management_can_be_disabled():
    machine, srm = make(nodes=2, tasks=2, config=SRMConfig(manage_interrupts=False))
    run_broadcast(machine, srm, 1024, root=0)
    for rank, buffer in run_broadcast(machine, srm, 2048, root=0)[0].items():
        assert buffer is not None  # correctness unaffected


# ---------------------------------------------------------------------------
# configuration ablation handles
# ---------------------------------------------------------------------------


def test_custom_chunk_sizes_still_correct():
    config = SRMConfig(pipeline_chunk=1024, pipeline_min=2048, large_chunk=8192)
    machine, srm = make(nodes=2, tasks=4, config=config)
    buffers, reference, _ = run_broadcast(machine, srm, 30_000, root=0)
    for buffer in buffers.values():
        assert np.array_equal(buffer, reference)


def test_fibonacci_inter_tree_still_correct():
    policy = FixedPolicy({"inter-tree": "fibonacci"})
    machine, srm = make(nodes=5, tasks=3, policy=policy)
    buffers, reference, _ = run_broadcast(machine, srm, 5000, root=0)
    for buffer in buffers.values():
        assert np.array_equal(buffer, reference)
