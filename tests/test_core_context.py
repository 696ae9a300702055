"""Unit tests for SRM context structures: NodeState, plans, flow-control
counters."""

import numpy as np
import pytest

from repro.core import SRMConfig, SRMContext
from repro.core.context import NodeState
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec, Machine


def make_machine(nodes=2, tasks=4):
    return Machine(ClusterSpec(nodes=nodes, tasks_per_node=tasks))


# ---------------------------------------------------------------------------
# NodeState
# ---------------------------------------------------------------------------


def test_node_state_full_node():
    machine = make_machine()
    state = NodeState(machine.nodes[0], SRMConfig())
    assert state.size == 4
    assert state.members == (0, 1, 2, 3)
    assert state.master_rank == 0
    assert state.index_of(machine.task(2)) == 2
    assert state.is_master(machine.task(0))
    assert not state.is_master(machine.task(1))


def test_node_state_member_subset():
    machine = make_machine()
    state = NodeState(machine.nodes[0], SRMConfig(), members=[1, 3])
    assert state.size == 2
    assert state.master_rank == 1
    assert state.index_of_rank(3) == 1
    with pytest.raises(ConfigurationError):
        state.index_of_rank(0)


def test_node_state_empty_members_rejected():
    machine = make_machine()
    with pytest.raises(ConfigurationError):
        NodeState(machine.nodes[0], SRMConfig(), members=[])


def test_node_state_structures_sized_to_members():
    machine = make_machine()
    state = NodeState(machine.nodes[0], SRMConfig(), members=[0, 2])
    assert len(state.bcast_buf.seats[0]) == 2
    assert len(state.reduce_slots) == 2
    assert len(state.barrier_flags) == 2
    assert [state.ledger["bcast", rank] for rank in state.members] == [0, 0]


def test_reduce_slot_alternates_and_sizes():
    machine = make_machine()
    state = NodeState(machine.nodes[0], SRMConfig())
    a = state.reduce_slots[0].data(0, 128)
    b = state.reduce_slots[0].data(1, 128)
    c = state.reduce_slots[0].data(2, 128)
    assert a.nbytes == 128
    assert not np.shares_memory(a, b)
    assert np.shares_memory(a, c)  # parity 0 again


def test_partial_buffer_alternates():
    machine = make_machine()
    state = NodeState(machine.nodes[0], SRMConfig())
    assert not np.shares_memory(state.partial_buffer(0, 64), state.partial_buffer(1, 64))
    assert np.shares_memory(state.partial_buffer(0, 64), state.partial_buffer(2, 64))


# ---------------------------------------------------------------------------
# SRMContext
# ---------------------------------------------------------------------------


def test_context_defaults_to_world():
    machine = make_machine()
    ctx = SRMContext(machine)
    assert ctx.members == tuple(range(8))
    assert sorted(ctx.nodes) == [0, 1]
    assert ctx.group_root == 0


def test_context_group_builds_only_used_nodes():
    machine = make_machine()
    ctx = SRMContext(machine, members=[0, 1])
    assert sorted(ctx.nodes) == [0]
    with pytest.raises(ConfigurationError):
        ctx.node_state(machine.task(5))


def test_context_rejects_bad_members():
    machine = make_machine()
    with pytest.raises(ConfigurationError):
        SRMContext(machine, members=[])
    with pytest.raises(Exception):
        SRMContext(machine, members=[99])


def test_check_member():
    machine = make_machine()
    ctx = SRMContext(machine, members=[0, 4])
    assert ctx.check_member(4) == 4
    with pytest.raises(ConfigurationError):
        ctx.check_member(1)


def test_bcast_plan_cached_and_counters_placed():
    machine = make_machine()
    ctx = SRMContext(machine)
    plan = ctx.bcast_plan(0)
    assert ctx.bcast_plan(0) is plan
    # One edge: node 1 is the only child node.
    assert sorted(plan.edges) == [1]
    edge = plan.edges[1]
    # Free counters start at 1 per slot (both buffers free, Fig. 4).
    assert edge.free[0].value == 1 and edge.free[1].value == 1
    assert edge.arrival[0].value == 0


def test_bcast_plan_inter_roles():
    machine = make_machine()
    ctx = SRMContext(machine)
    plan = ctx.bcast_plan(0)
    assert plan.inter_children(0) == [4]
    assert plan.inter_parent(4) == 0
    assert plan.inter_parent(0) is None
    assert plan.inter_children(3) == []  # non-representative


def test_reduce_plan_staging_at_parent():
    machine = make_machine()
    ctx = SRMContext(machine)
    plan = ctx.reduce_plan(0)
    # Child rank 4 stages into node 0's memory.
    assert 4 in plan.staging
    assert plan.arrival[4][0].value == 0
    assert plan.free[4][0].value == 1


def test_allreduce_plan_positions_and_fold():
    machine = Machine(ClusterSpec(nodes=5, tasks_per_node=2))
    ctx = SRMContext(machine)
    plan = ctx.allreduce_plan()
    assert ctx.node_order == [0, 1, 2, 3, 4]
    assert plan.group_size == 4
    assert plan.rounds == 2
    assert plan.fold_partner == {4: 0}
    assert ctx.masters == {n: 2 * n for n in range(5)}


def test_allreduce_plan_group_subset():
    machine = make_machine(nodes=4, tasks=2)
    ctx = SRMContext(machine, members=[2, 3, 6, 7])  # nodes 1 and 3
    plan = ctx.allreduce_plan()
    assert ctx.node_order == [1, 3]
    assert ctx.masters == {1: 2, 3: 6}
    assert plan.rounds == 1
    assert plan.fold_partner == {}


def test_barrier_plan_rounds():
    machine = Machine(ClusterSpec(nodes=6, tasks_per_node=1))
    ctx = SRMContext(machine)
    plan = ctx.barrier_plan()
    assert plan.rounds == 3  # ceil(log2 6)
    assert len(plan.counters) == 6
    assert all(len(counters) == 3 for counters in plan.counters.values())
