"""Edge cases and failure paths across the library surface."""

import numpy as np
import pytest

from repro.bench import build
from repro.core import SRM, SRMConfig
from repro.errors import ConfigurationError, ProtocolError
from repro.machine import ClusterSpec, CostModel, Machine
from repro.mpi.ops import SUM


# ---------------------------------------------------------------------------
# degenerate shapes
# ---------------------------------------------------------------------------


def test_single_rank_srm_everything():
    machine, srm = build("srm", ClusterSpec(nodes=1, tasks_per_node=1))
    src = np.arange(64, dtype=np.float64)
    dst = np.zeros(64)

    def program(task):
        yield from srm.broadcast(task, src, root=0)
        yield from srm.reduce(task, src, dst, SUM, root=0)
        yield from srm.allreduce(task, src, dst, SUM)
        yield from srm.barrier(task)
        yield from srm.scan(task, src, dst, SUM)

    machine.launch(program)
    assert np.array_equal(dst, src)


def test_two_ranks_same_node():
    machine, srm = build("srm", ClusterSpec(nodes=1, tasks_per_node=2))
    payload = np.full(10_000, 3, np.uint8)
    buffers = {0: payload.copy(), 1: np.zeros(10_000, np.uint8)}

    def program(task):
        yield from srm.broadcast(task, buffers[task.rank], root=0)

    machine.launch(program)
    assert np.array_equal(buffers[1], payload)


def test_two_ranks_different_nodes():
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=1))
    payload = np.full(10_000, 4, np.uint8)
    buffers = {0: payload.copy(), 1: np.zeros(10_000, np.uint8)}

    def program(task):
        yield from srm.broadcast(task, buffers[task.rank], root=0)

    machine.launch(program)
    assert np.array_equal(buffers[1], payload)


def test_maximally_skewed_node_sizes():
    # One fat node plus singletons.
    machine = Machine(ClusterSpec(nodes=3, tasks_per_node=[8, 1, 1]))
    srm = SRM(machine)
    total = 10
    sources = {r: np.full(128, float(r + 1)) for r in range(total)}
    outs = {r: np.zeros(128) for r in range(total)}

    def program(task):
        yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    machine.launch(program)
    assert all(np.all(outs[r] == 55) for r in range(total))


def test_message_of_one_byte_everywhere():
    for name in ("srm", "ibm", "mpich"):
        machine, stack = build(name, ClusterSpec(nodes=2, tasks_per_node=2))
        buffers = {r: np.zeros(1, np.uint8) for r in range(4)}
        buffers[0][0] = 200

        def program(task):
            yield from stack.broadcast(task, buffers[task.rank], root=0)

        machine.launch(program)
        assert all(buffers[r][0] == 200 for r in range(4))


# ---------------------------------------------------------------------------
# odd dtypes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.float32, np.complex128])
def test_reduce_arbitrary_dtypes(dtype):
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    sources = {r: np.full(16, r + 1, dtype=dtype) for r in range(4)}
    destination = np.zeros(16, dtype=dtype)

    def program(task):
        dst = destination if task.rank == 0 else None
        yield from srm.reduce(task, sources[task.rank], dst, SUM, root=0)

    machine.launch(program)
    assert np.all(destination == np.asarray(10, dtype=dtype))


def test_broadcast_multidimensional_buffer():
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    payload = np.arange(600, dtype=np.float64).reshape(20, 30)
    buffers = {r: (payload.copy() if r == 0 else np.zeros((20, 30))) for r in range(4)}

    def program(task):
        yield from srm.broadcast(task, buffers[task.rank], root=0)

    machine.launch(program)
    for buffer in buffers.values():
        assert np.array_equal(buffer, payload)


def _strided(value, count=256):
    """``count`` doubles at every other element of a fresh buffer."""
    return np.full(2 * count, float(value))[::2]


def _strided_program(stack, op):
    """A 4-rank call of ``op`` on any stack with every buffer a strided view."""

    def program(task):
        rank = task.rank
        if op == "broadcast":
            yield from stack.broadcast(task, _strided(rank), root=0)
        elif op == "reduce":
            yield from stack.reduce(task, _strided(rank), _strided(0) if rank == 0 else None, SUM)
        elif op == "allreduce":
            yield from stack.allreduce(task, _strided(rank), _strided(0), SUM)
        elif op == "scatter":
            send = _strided(rank, 4 * 256) if rank == 0 else None
            yield from stack.scatter(task, send, _strided(0), root=0)
        elif op == "gather":
            recv = _strided(0, 4 * 256) if rank == 0 else None
            yield from stack.gather(task, _strided(rank), recv, root=0)
        elif op == "allgather":
            yield from stack.allgather(task, _strided(rank), _strided(0, 4 * 256))
        elif op == "alltoall":
            yield from stack.alltoall(task, _strided(rank, 4 * 256), _strided(0, 4 * 256))
        elif op == "scan":
            yield from stack.scan(task, _strided(rank), _strided(0), SUM)
        else:
            yield from stack.reduce_scatter(task, _strided(rank, 4 * 256), _strided(0), SUM)

    return program


@pytest.mark.parametrize(
    "op, argument",
    [
        ("broadcast", "buffer"),
        ("allreduce", "dst"),
        ("scatter", "sendbuf"),
        ("gather", "sendbuf"),
        ("allgather", "sendbuf"),
        ("alltoall", "sendbuf"),
        ("reduce_scatter", "dst"),
    ],
)
def test_strided_buffers_fail_at_the_call(op, argument):
    """Operations that view a buffer as raw bytes name a strided one at the
    call instead of failing inside the protocol."""
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    with pytest.raises(ConfigurationError, match=f"^{op}: {argument} must be C-contiguous"):
        machine.launch(_strided_program(srm, op))


@pytest.mark.parametrize("stack", ["ibm", "mpich"])
@pytest.mark.parametrize(
    "op, argument",
    [
        ("broadcast", "buffer"),
        ("reduce", "src"),
        ("allreduce", "src"),
        ("allgather", "sendbuf"),
        ("scatter", "sendbuf"),
        ("gather", "sendbuf"),
        ("alltoall", "sendbuf"),
        ("scan", "dst"),
        ("reduce_scatter", "src"),
    ],
)
def test_mpi_stacks_name_strided_buffers(stack, op, argument):
    """The baselines' point-to-point layer views buffers as bytes too: the
    same check names the argument before the first message."""
    machine, collectives = build(stack, ClusterSpec(nodes=2, tasks_per_node=2))
    with pytest.raises(ConfigurationError, match=f"^{op}: {argument} must be C-contiguous"):
        machine.launch(_strided_program(collectives, op))


def test_strided_buffers_fail_at_plan_and_start():
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    srm = SRM(machine)
    task = machine.task(1)
    with pytest.raises(ConfigurationError, match="^broadcast: buffer"):
        srm.plan_broadcast(task, _strided(1))
    with pytest.raises(ConfigurationError, match="^allreduce: dst"):
        srm.iallreduce(task, np.zeros(256), _strided(0))
    with pytest.raises(ConfigurationError, match="^allreduce: dst"):
        srm.plan_allreduce(task, np.zeros(256), _strided(0))


def test_reduce_and_scan_keep_strided_results():
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    reduced = _strided(0)
    scanned = {rank: _strided(0) for rank in range(4)}

    def program(task):
        rank = task.rank
        yield from srm.reduce(task, _strided(rank + 1), reduced if rank == 0 else None, SUM)
        yield from srm.scan(task, _strided(rank + 1), scanned[rank], SUM)

    machine.launch(program)
    assert np.all(reduced == 10.0)
    for rank, out in scanned.items():
        assert np.all(out == (rank + 1) * (rank + 2) / 2)


# ---------------------------------------------------------------------------
# configuration extremes
# ---------------------------------------------------------------------------


def test_tiny_pipeline_chunks_still_correct():
    config = SRMConfig(pipeline_chunk=256, pipeline_min=256)
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2), srm_config=config)
    payload = np.random.default_rng(0).integers(0, 255, 20_000).astype(np.uint8)
    buffers = {r: (payload.copy() if r == 0 else np.zeros_like(payload)) for r in range(4)}

    def program(task):
        yield from srm.broadcast(task, buffers[task.rank], root=0)

    machine.launch(program)
    for buffer in buffers.values():
        assert np.array_equal(buffer, payload)


def test_degenerate_switch_point_everything_large():
    config = SRMConfig(small_protocol_max=8 * 1024, pipeline_min=8 * 1024)
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2), srm_config=config)
    payload = np.full(12 * 1024, 5, np.uint8)  # just above the switch
    buffers = {r: (payload.copy() if r == 0 else np.zeros_like(payload)) for r in range(4)}

    def program(task):
        yield from srm.broadcast(task, buffers[task.rank], root=0)

    machine.launch(program)
    for buffer in buffers.values():
        assert np.array_equal(buffer, payload)


def test_extreme_cost_models_keep_correctness():
    # A pathological machine (slow bus, fast net) must not change results.
    cost = CostModel.ibm_sp_colony().evolve(
        memory_bus_bandwidth=50e6,
        sm_copy_bandwidth=40e6,
        net_bandwidth=2000e6,
        net_latency=1e-6,
    )
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=4), cost=cost)
    srm = SRM(machine)
    sources = {r: np.full(512, float(r)) for r in range(8)}
    outs = {r: np.zeros(512) for r in range(8)}

    def program(task):
        yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    machine.launch(program)
    assert all(np.all(outs[r] == 28) for r in range(8))


# ---------------------------------------------------------------------------
# misuse
# ---------------------------------------------------------------------------


def test_copy_between_mismatched_views_rejected():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=1))

    def program(task):
        yield from task.copy(np.zeros(10), np.zeros(11))

    with pytest.raises(ProtocolError):
        machine.launch(program)


def test_group_root_outside_group_rejected():
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    srm = SRM(machine, group=[0, 1])

    def program(task):
        yield from srm.broadcast(task, np.zeros(8, np.uint8), root=3)

    with pytest.raises(ConfigurationError):
        machine.launch(program, ranks=[0, 1])


def test_put_window_one_is_legal():
    config = SRMConfig(put_window=1)
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=1), srm_config=config)
    payload = np.full(200_000, 9, np.uint8)
    buffers = {0: payload.copy(), 1: np.zeros_like(payload)}

    def program(task):
        yield from srm.broadcast(task, buffers[task.rank], root=0)

    machine.launch(program)
    assert np.array_equal(buffers[1], payload)
