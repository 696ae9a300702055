"""Tests for SRM collectives over arbitrary task groups (the §5 extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SRM, FixedPolicy
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec, Machine
from repro.mpi.ops import SUM
from repro.trees import group_embedding


def machine_4x4():
    return Machine(ClusterSpec(nodes=4, tasks_per_node=4))


# ---------------------------------------------------------------------------
# group embedding
# ---------------------------------------------------------------------------


def test_group_embedding_only_uses_member_nodes():
    spec = ClusterSpec(nodes=4, tasks_per_node=4)
    trees = group_embedding(spec, [0, 1, 12, 13], root=0)
    assert sorted(trees.intra) == [0, 3]  # nodes 1, 2 host no members
    assert set(trees.inter.ranks) == {0, 12}


def test_group_embedding_representatives():
    spec = ClusterSpec(nodes=4, tasks_per_node=4)
    trees = group_embedding(spec, [2, 3, 5, 6, 7], root=6)
    # Root's node (1) is represented by the root; node 0 by its lowest member.
    assert trees.representatives[1] == 6
    assert trees.representatives[0] == 2


def test_group_embedding_spans_exactly_the_group():
    spec = ClusterSpec(nodes=4, tasks_per_node=4)
    members = [1, 3, 4, 9, 10, 15]
    combined = group_embedding(spec, members, root=9).combined()
    assert sorted(combined.ranks) == members
    assert combined.cross_node_edges(spec) == 3  # 4 used nodes - 1


def test_group_embedding_validation():
    spec = ClusterSpec(nodes=2, tasks_per_node=2)
    with pytest.raises(ConfigurationError):
        group_embedding(spec, [], root=0)
    with pytest.raises(ConfigurationError):
        group_embedding(spec, [0, 1], root=3)  # root not a member


# ---------------------------------------------------------------------------
# group collectives
# ---------------------------------------------------------------------------


GROUPS = [
    [0, 1, 2, 3],           # one full node
    [0, 4, 8, 12],          # the masters (one member per node)
    [1, 2, 5, 6, 9, 10],    # partial nodes
    [3, 7, 11, 15],         # non-master singletons per node
    [5],                    # singleton group
    list(range(16)),        # the whole world, via the group path
]


@pytest.mark.parametrize("members", GROUPS)
def test_group_broadcast(members):
    machine = machine_4x4()
    srm = SRM(machine, group=members)
    root = members[len(members) // 2]
    payload = np.arange(3000, dtype=np.uint8)
    buffers = {r: (payload.copy() if r == root else np.zeros_like(payload)) for r in members}

    def program(task):
        yield from srm.broadcast(task, buffers[task.rank], root=root)

    machine.launch(program, ranks=members)
    for rank in members:
        assert np.array_equal(buffers[rank], payload), f"rank {rank}"


@pytest.mark.parametrize("members", GROUPS)
def test_group_reduce(members):
    machine = machine_4x4()
    srm = SRM(machine, group=members)
    root = members[0]
    sources = {r: np.full(64, float(r + 1)) for r in members}
    destination = np.zeros(64)

    def program(task):
        dst = destination if task.rank == root else None
        yield from srm.reduce(task, sources[task.rank], dst, SUM, root=root)

    machine.launch(program, ranks=members)
    assert np.all(destination == sum(r + 1 for r in members))


@pytest.mark.parametrize("members", GROUPS)
def test_group_allreduce(members):
    machine = machine_4x4()
    srm = SRM(machine, group=members)
    sources = {r: np.full(64, float(r + 1)) for r in members}
    outs = {r: np.zeros(64) for r in members}

    def program(task):
        yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    machine.launch(program, ranks=members)
    expected = sum(r + 1 for r in members)
    for rank in members:
        assert np.all(outs[rank] == expected), f"rank {rank}"


@pytest.mark.parametrize("members", GROUPS)
def test_group_barrier(members):
    machine = machine_4x4()
    srm = SRM(machine, group=members)
    arrivals, releases = {}, {}

    def program(task):
        yield from task.compute(1e-6 * (task.rank + 1))
        arrivals[task.rank] = task.engine.now
        yield from srm.barrier(task)
        releases[task.rank] = task.engine.now

    machine.launch(program, ranks=members)
    assert min(releases.values()) >= max(arrivals.values())


def test_group_large_broadcast():
    machine = machine_4x4()
    members = [1, 2, 6, 7, 13]
    srm = SRM(machine, group=members)
    payload = np.random.default_rng(0).integers(0, 255, 150_000).astype(np.uint8)
    buffers = {r: (payload.copy() if r == 1 else np.zeros_like(payload)) for r in members}

    def program(task):
        yield from srm.broadcast(task, buffers[task.rank], root=1)

    machine.launch(program, ranks=members)
    for rank in members:
        assert np.array_equal(buffers[rank], payload)


def test_nonmember_rejected():
    machine = machine_4x4()
    srm = SRM(machine, group=[0, 1])

    def program(task):
        yield from srm.barrier(task)

    with pytest.raises(ConfigurationError):
        machine.launch(program, ranks=[5])
    with pytest.raises(ConfigurationError):
        srm.ctx.bcast_plan(5)  # non-member root


def test_group_and_world_results_agree():
    machine = machine_4x4()
    world = SRM(machine)
    group = SRM(machine, group=list(range(16)))
    sources = {r: np.full(32, float(r)) for r in range(16)}
    outs_world = {r: np.zeros(32) for r in range(16)}
    outs_group = {r: np.zeros(32) for r in range(16)}

    def program(task):
        yield from world.allreduce(task, sources[task.rank], outs_world[task.rank], SUM)
        yield from group.allreduce(task, sources[task.rank], outs_group[task.rank], SUM)

    machine.launch(program)
    for rank in range(16):
        assert np.array_equal(outs_world[rank], outs_group[rank])


def test_disjoint_groups_run_concurrently():
    """Two halves of the machine run independent collectives in one launch —
    possible because each SRM instance owns its own buffers and counters."""
    machine = machine_4x4()
    left = [0, 1, 4, 5]
    right = [10, 11, 14, 15]
    srm_left = SRM(machine, group=left)
    srm_right = SRM(machine, group=right)
    payload_left = np.full(2000, 7, np.uint8)
    payload_right = np.full(2000, 9, np.uint8)
    buffers = {r: np.zeros(2000, np.uint8) for r in left + right}
    buffers[0][:] = 7
    buffers[10][:] = 9

    def program(task):
        if task.rank in left:
            yield from srm_left.broadcast(task, buffers[task.rank], root=0)
        else:
            yield from srm_right.broadcast(task, buffers[task.rank], root=10)

    machine.launch(program, ranks=left + right)
    for rank in left:
        assert np.array_equal(buffers[rank], payload_left)
    for rank in right:
        assert np.array_equal(buffers[rank], payload_right)


def test_group_repeated_mixed_operations():
    machine = machine_4x4()
    members = [2, 3, 6, 7, 8, 9]
    srm = SRM(machine, group=members)
    rng = np.random.default_rng(1)
    for _ in range(4):
        root = int(rng.choice(members))
        payload = rng.integers(0, 255, int(rng.integers(1, 30_000))).astype(np.uint8)
        buffers = {r: (payload.copy() if r == root else np.zeros_like(payload)) for r in members}

        def program(task):
            yield from srm.broadcast(task, buffers[task.rank], root=root)
            yield from srm.barrier(task)

        machine.launch(program, ranks=members)
        assert all(np.array_equal(buffers[r], payload) for r in members)


@pytest.mark.parametrize("ring_op", ["allgather", "allreduce"])
def test_ring_fan_out_keeps_a_single_member_node_in_step(ring_op):
    """Every member reserves the ring's local fan-out, a single-member node
    included, so the node masters' broadcast sequences stay in step and a
    small broadcast after the ring finds its slots."""
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    members = [0, 1, 2]  # node 1 hosts one member
    srm = SRM(machine, group=members, policy=FixedPolicy({ring_op: "ring"}))
    payload = np.arange(1024, dtype=np.uint8)
    buffers = {r: (payload.copy() if r == 0 else np.zeros_like(payload)) for r in members}

    def program(task):
        if ring_op == "allgather":
            out = np.zeros(64 * len(members), np.uint8)
            yield from srm.allgather(task, np.full(64, task.rank, np.uint8), out)
        else:
            yield from srm.allreduce(task, np.ones(64), np.zeros(64), SUM)
        yield from srm.broadcast(task, buffers[task.rank], root=0)

    machine.launch(program, ranks=members)
    assert all(np.array_equal(buffers[r], payload) for r in members)


@given(
    seed=st.integers(0, 10_000),
    group_size=st.integers(1, 12),
)
@settings(max_examples=20, deadline=None)
def test_group_allreduce_property(seed, group_size):
    machine = machine_4x4()
    rng = np.random.default_rng(seed)
    members = sorted(rng.choice(16, size=group_size, replace=False).tolist())
    srm = SRM(machine, group=members)
    sources = {r: rng.integers(-100, 100, 50).astype(np.int64) for r in members}
    outs = {r: np.zeros(50, np.int64) for r in members}

    def program(task):
        yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    machine.launch(program, ranks=members)
    expected = np.sum(np.stack([sources[r] for r in members]), axis=0)
    for rank in members:
        assert np.array_equal(outs[rank], expected)
