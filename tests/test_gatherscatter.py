"""Tests for the block-data collectives (scatter / gather / allgather)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import build
from repro.core import SRM
from repro.core.internode.gatherscatter import AllgatherPlan
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec, Machine

STACKS = ("srm", "ibm", "mpich")


def blocks_for(total, block_elems, dtype=np.uint8):
    """Deterministic distinct block content per rank."""
    return {
        r: np.full(block_elems, (r * 7 + 3) % 251, dtype=dtype) for r in range(total)
    }


def expected_concat(blocks, total):
    return np.concatenate([blocks[r] for r in range(total)])


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", STACKS)
@pytest.mark.parametrize("root", [0, 3, 5])
def test_scatter_all_stacks(name, root):
    machine, stack = build(name, ClusterSpec(nodes=2, tasks_per_node=4))
    total = 8
    block = 96
    blocks = blocks_for(total, block)
    sendbuf = expected_concat(blocks, total)
    outs = {r: np.zeros(block, np.uint8) for r in range(total)}

    def program(task):
        src = sendbuf if task.rank == root else None
        yield from stack.scatter(task, src, outs[task.rank], root=root)

    machine.launch(program)
    for rank in range(total):
        assert np.array_equal(outs[rank], blocks[rank]), f"{name} rank {rank}"


def test_scatter_root_needs_buffer():
    machine, stack = build("srm", ClusterSpec(nodes=1, tasks_per_node=2))

    def program(task):
        yield from stack.scatter(task, None, np.zeros(8, np.uint8), root=0)

    with pytest.raises(ConfigurationError):
        machine.launch(program)


def test_scatter_size_validation():
    machine, stack = build("ibm", ClusterSpec(nodes=1, tasks_per_node=2))
    bad = np.zeros(7, np.uint8)  # not 2 x block

    def program(task):
        src = bad if task.rank == 0 else None
        yield from stack.scatter(task, src, np.zeros(8, np.uint8), root=0)

    with pytest.raises(ValueError):
        machine.launch(program)


# ---------------------------------------------------------------------------
# gather
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", STACKS)
@pytest.mark.parametrize("root", [0, 2, 7])
def test_gather_all_stacks(name, root):
    machine, stack = build(name, ClusterSpec(nodes=2, tasks_per_node=4))
    total = 8
    block = 64
    blocks = blocks_for(total, block)
    recvbuf = np.zeros(block * total, np.uint8)

    def program(task):
        dst = recvbuf if task.rank == root else None
        yield from stack.gather(task, blocks[task.rank], dst, root=root)

    machine.launch(program)
    assert np.array_equal(recvbuf, expected_concat(blocks, total))


def test_gather_root_needs_buffer():
    machine, stack = build("srm", ClusterSpec(nodes=1, tasks_per_node=2))

    def program(task):
        yield from stack.gather(task, np.ones(8, np.uint8), None, root=0)

    with pytest.raises(ConfigurationError):
        machine.launch(program)


# ---------------------------------------------------------------------------
# allgather
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", STACKS)
@pytest.mark.parametrize("nodes,tasks", [(1, 3), (2, 4), (3, 2)])
def test_allgather_all_stacks(name, nodes, tasks):
    machine, stack = build(name, ClusterSpec(nodes=nodes, tasks_per_node=tasks))
    total = machine.spec.total_tasks
    block = 48
    blocks = blocks_for(total, block)
    outs = {r: np.zeros(block * total, np.uint8) for r in range(total)}

    def program(task):
        yield from stack.allgather(task, blocks[task.rank], outs[task.rank])

    machine.launch(program)
    expected = expected_concat(blocks, total)
    for rank in range(total):
        assert np.array_equal(outs[rank], expected), f"{name} rank {rank}"


def test_allgather_single_task():
    machine, stack = build("srm", ClusterSpec(nodes=1, tasks_per_node=1))
    out = np.zeros(16, np.uint8)

    def program(task):
        yield from stack.allgather(task, np.full(16, 9, np.uint8), out)

    machine.launch(program)
    assert np.all(out == 9)


# ---------------------------------------------------------------------------
# SRM specifics
# ---------------------------------------------------------------------------


def test_srm_scatter_uses_puts_not_messages():
    machine, stack = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    blocks = blocks_for(4, 32)
    sendbuf = expected_concat(blocks, 4)
    outs = {r: np.zeros(32, np.uint8) for r in range(4)}

    def program(task):
        src = sendbuf if task.rank == 0 else None
        yield from stack.scatter(task, src, outs[task.rank], root=0)

    machine.launch(program)
    assert sum(t.mpi.stats.sends for t in machine.tasks) == 0
    assert sum(t.lapi.stats.puts for t in machine.tasks) >= 3


def test_srm_gather_repeated_calls():
    machine, stack = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    for call in range(3):
        blocks = {r: np.full(40, call * 10 + r, np.uint8) for r in range(4)}
        recvbuf = np.zeros(160, np.uint8)

        def program(task):
            dst = recvbuf if task.rank == 1 else None
            yield from stack.gather(task, blocks[task.rank], dst, root=1)

        machine.launch(program)
        assert np.array_equal(recvbuf, np.concatenate([blocks[r] for r in range(4)]))


def test_srm_group_gather():
    machine = Machine(ClusterSpec(nodes=4, tasks_per_node=4))
    members = [1, 2, 6, 11, 12]
    srm = SRM(machine, group=members)
    blocks = {r: np.full(24, r, np.uint8) for r in members}
    recvbuf = np.zeros(24 * len(members), np.uint8)

    def program(task):
        dst = recvbuf if task.rank == 6 else None
        yield from srm.gather(task, blocks[task.rank], dst, root=6)

    machine.launch(program, ranks=members)
    assert np.array_equal(recvbuf, np.concatenate([blocks[r] for r in members]))


def test_srm_group_allgather():
    machine = Machine(ClusterSpec(nodes=4, tasks_per_node=4))
    members = [0, 5, 10, 15]
    srm = SRM(machine, group=members)
    blocks = {r: np.full(16, r + 1, np.uint8) for r in members}
    outs = {r: np.zeros(64, np.uint8) for r in members}

    def program(task):
        yield from srm.allgather(task, blocks[task.rank], outs[task.rank])

    machine.launch(program, ranks=members)
    expected = np.concatenate([blocks[r] for r in members])
    for rank in members:
        assert np.array_equal(outs[rank], expected)


def test_srm_faster_than_baseline_gather():
    from repro.machine import ClusterSpec as CS

    def timed(name):
        machine, stack = build(name, CS(nodes=4, tasks_per_node=8))
        total = 32
        blocks = blocks_for(total, 1024)
        recvbuf = np.zeros(1024 * total, np.uint8)

        def program(task):
            dst = recvbuf if task.rank == 0 else None
            yield from stack.gather(task, blocks[task.rank], dst, root=0)

        machine.launch(program)  # warm
        start = machine.now
        machine.launch(program)
        return machine.now - start

    assert timed("srm") < timed("ibm")


@given(
    seed=st.integers(0, 5000),
    block=st.integers(1, 2000),
)
@settings(max_examples=15, deadline=None)
def test_allgather_property(seed, block):
    machine, stack = build("srm", ClusterSpec(nodes=2, tasks_per_node=3))
    rng = np.random.default_rng(seed)
    blocks = {r: rng.integers(0, 255, block).astype(np.uint8) for r in range(6)}
    outs = {r: np.zeros(block * 6, np.uint8) for r in range(6)}

    def program(task):
        yield from stack.allgather(task, blocks[task.rank], outs[task.rank])

    machine.launch(program)
    expected = np.concatenate([blocks[r] for r in range(6)])
    for rank in range(6):
        assert np.array_equal(outs[rank], expected)


# ---------------------------------------------------------------------------
# hierarchical ring allgather (large results)
# ---------------------------------------------------------------------------


def test_allgather_large_uses_ring_and_is_correct():
    machine, stack = build("srm", ClusterSpec(nodes=4, tasks_per_node=4))
    total = 16
    block = 16 * 1024  # 256 KB total -> ring regime
    rng = np.random.default_rng(3)
    blocks = {r: rng.integers(0, 255, block).astype(np.uint8) for r in range(total)}
    outs = {r: np.zeros(block * total, np.uint8) for r in range(total)}

    def program(task):
        yield from stack.allgather(task, blocks[task.rank], outs[task.rank])

    machine.launch(program)
    expected = np.concatenate([blocks[r] for r in range(total)])
    for rank in range(total):
        assert np.array_equal(outs[rank], expected), f"rank {rank}"
    # The ring plan was actually engaged.
    assert (AllgatherPlan,) in stack.ctx._plans


def test_allgather_small_stays_on_gather_bcast():
    machine, stack = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    outs = {r: np.zeros(4 * 64, np.uint8) for r in range(4)}

    def program(task):
        yield from stack.allgather(task, np.full(64, task.rank, np.uint8), outs[task.rank])

    machine.launch(program)
    assert (AllgatherPlan,) not in stack.ctx._plans


def test_allgather_ring_repeated_calls():
    machine, stack = build("srm", ClusterSpec(nodes=3, tasks_per_node=2))
    total = 6
    block = 32 * 1024
    for call in range(3):
        blocks = {r: np.full(block, (call * 7 + r) % 251, np.uint8) for r in range(total)}
        outs = {r: np.zeros(block * total, np.uint8) for r in range(total)}

        def program(task):
            yield from stack.allgather(task, blocks[task.rank], outs[task.rank])

        machine.launch(program)
        expected = np.concatenate([blocks[r] for r in range(total)])
        for rank in range(total):
            assert np.array_equal(outs[rank], expected), f"call {call} rank {rank}"


def test_allgather_ring_group_subset():
    machine = Machine(ClusterSpec(nodes=4, tasks_per_node=4))
    members = [0, 1, 5, 9, 10, 14]
    srm = SRM(machine, group=members)
    block = 24 * 1024
    blocks = {r: np.full(block, r + 1, np.uint8) for r in members}
    outs = {r: np.zeros(block * len(members), np.uint8) for r in members}

    def program(task):
        yield from srm.allgather(task, blocks[task.rank], outs[task.rank])

    machine.launch(program, ranks=members)
    expected = np.concatenate([blocks[r] for r in members])
    for rank in members:
        assert np.array_equal(outs[rank], expected)


def test_allgather_size_mismatch_rejected():
    machine, stack = build("srm", ClusterSpec(nodes=1, tasks_per_node=2))

    def program(task):
        yield from stack.allgather(task, np.zeros(8, np.uint8), np.zeros(15, np.uint8))

    with pytest.raises(ConfigurationError):
        machine.launch(program)


def test_allgather_ring_beats_composition_at_large_sizes():
    from repro.core import SRMConfig

    def timed(ring_min):
        spec = ClusterSpec(nodes=8, tasks_per_node=4)
        machine, stack = build(
            "srm", spec, srm_config=SRMConfig(allgather_ring_min=ring_min)
        )
        total = 32
        block = 8 * 1024
        blocks = {r: np.full(block, r % 251, np.uint8) for r in range(total)}
        outs = {r: np.zeros(block * total, np.uint8) for r in range(total)}

        def program(task):
            yield from stack.allgather(task, blocks[task.rank], outs[task.rank])

        machine.launch(program)  # warm
        start = machine.now
        machine.launch(program)
        return machine.now - start

    ring_time = timed(64 * 1024)  # ring engaged
    composed_time = timed(1 << 30)  # forced gather+bcast
    assert ring_time < composed_time


# ---------------------------------------------------------------------------
# alltoall
# ---------------------------------------------------------------------------


def alltoall_blocks(total, block):
    """sendbuf[r] block j carries the value 100*r + j (mod 251)."""
    bufs = {}
    for r in range(total):
        buf = np.zeros(block * total, np.uint8)
        for j in range(total):
            buf[j * block : (j + 1) * block] = (100 * r + j) % 251
        bufs[r] = buf
    return bufs


@pytest.mark.parametrize("name", STACKS)
@pytest.mark.parametrize("nodes,tasks", [(1, 4), (2, 3), (3, 2)])
def test_alltoall_all_stacks(name, nodes, tasks):
    machine, stack = build(name, ClusterSpec(nodes=nodes, tasks_per_node=tasks))
    total = machine.spec.total_tasks
    block = 40
    sends = alltoall_blocks(total, block)
    recvs = {r: np.zeros(block * total, np.uint8) for r in range(total)}

    def program(task):
        yield from stack.alltoall(task, sends[task.rank], recvs[task.rank])

    machine.launch(program)
    for r in range(total):
        for j in range(total):
            expected = (100 * j + r) % 251  # sender j's block for me
            assert np.all(recvs[r][j * block : (j + 1) * block] == expected), (
                f"{name}: rank {r} block from {j}"
            )


def test_alltoall_srm_repeated_calls():
    machine, stack = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    total = 4
    block = 64
    for call in range(3):
        sends = {
            r: np.full(block * total, (call * 3 + r) % 251, np.uint8) for r in range(total)
        }
        recvs = {r: np.zeros(block * total, np.uint8) for r in range(total)}

        def program(task):
            yield from stack.alltoall(task, sends[task.rank], recvs[task.rank])

        machine.launch(program)
        for r in range(total):
            for j in range(total):
                assert np.all(
                    recvs[r][j * block : (j + 1) * block] == (call * 3 + j) % 251
                ), f"call {call}"


def test_alltoall_group():
    machine = Machine(ClusterSpec(nodes=4, tasks_per_node=4))
    members = [1, 6, 9, 14]
    srm = SRM(machine, group=members)
    block = 32
    size = len(members)
    sends = {
        r: np.concatenate(
            [np.full(block, (r + members[j]) % 251, np.uint8) for j in range(size)]
        )
        for r in members
    }
    recvs = {r: np.zeros(block * size, np.uint8) for r in members}

    def program(task):
        yield from srm.alltoall(task, sends[task.rank], recvs[task.rank])

    machine.launch(program, ranks=members)
    for i, r in enumerate(members):
        for j, sender in enumerate(members):
            assert np.all(
                recvs[r][j * block : (j + 1) * block] == (sender + r) % 251
            ), f"rank {r} from {sender}"


def test_alltoall_size_validation():
    machine, stack = build("srm", ClusterSpec(nodes=1, tasks_per_node=2))

    def program(task):
        yield from stack.alltoall(task, np.zeros(7, np.uint8), np.zeros(7, np.uint8))

    with pytest.raises(ConfigurationError):
        machine.launch(program)


def test_alltoall_srm_beats_baseline():
    def timed(name):
        machine, stack = build(name, ClusterSpec(nodes=4, tasks_per_node=4))
        total = 16
        block = 2048
        sends = {r: np.full(block * total, r % 251, np.uint8) for r in range(total)}
        recvs = {r: np.zeros(block * total, np.uint8) for r in range(total)}

        def program(task):
            yield from stack.alltoall(task, sends[task.rank], recvs[task.rank])

        machine.launch(program)  # warm
        start = machine.now
        machine.launch(program)
        return machine.now - start

    assert timed("srm") < timed("ibm")
