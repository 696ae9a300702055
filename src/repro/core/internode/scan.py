"""Hierarchical inclusive scan (prefix reduction) — extension operation.

``dst_i = src_0 OP src_1 OP ... OP src_i`` in group-member order.  The SRM
structure mirrors the other operations — heavy lifting in shared memory, one
network hop per node:

1. **SMP prefix chain**: member *i* combines member *i-1*'s prefix slot with
   its own contribution in shared memory; the last member's prefix is the
   node total.
2. **Inter-node chain**: masters forward the running *exclusive* node base
   along the node order with one put per node (a scan's cross-node data
   dependency is inherently sequential; each byte crosses the network once).
3. **Base distribution**: the master publishes its node's exclusive base in
   a shared slot; every member combines it with its local prefix into the
   destination.

Messages larger than a shared slot flow chunk-wise (the operator is
element-wise, so chunks are independent): chunk *c+1*'s SMP chain overlaps
chunk *c*'s network hop.  Every shared slot is double-buffered with
cumulative written/consumed flags, so producers run at most two chunks
ahead of their slowest consumer — the same discipline as the SMP reduce.

A scan enters as an inline request (:mod:`repro.core.requests`): its chunk
cursors advance in the body, after the chain gate, so in started order.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.context import SRMContext
from repro.core.requests import Prepared, unreserved
from repro.errors import ConfigurationError
from repro.lapi.counters import LapiCounter
from repro.obs.taxonomy import SCAN_CHUNK
from repro.shmem.flags import FlagArray, SharedFlag
from repro.shmem.segment import SharedSegment
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task
    from repro.mpi.ops import ReduceOp

__all__ = ["prepare_scan", "ScanPlan"]

_SIGNAL = np.zeros(0, dtype=np.uint8)


class ScanPlan:
    """Per-node prefix slots (double-buffered) and the inter-node chain."""

    def __init__(self, ctx: SRMContext) -> None:
        machine = ctx.machine
        capacity = ctx.config.shared_buffer_bytes
        self.node_order = sorted(ctx.nodes)
        self.position = {node: index for index, node in enumerate(self.node_order)}
        self.masters = {node: ctx.nodes[node].master_rank for node in self.node_order}
        self.prefix_slots: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self.prefix_ready: dict[int, FlagArray] = {}
        #: consumed_next[node][i] = chunks member i+1 has combined from slot i.
        self.consumed_next: dict[int, FlagArray] = {}
        #: chunks the master has read from the LAST member's slot (node total).
        self.total_consumed: dict[int, SharedFlag] = {}
        self.base_slots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.base_ready: dict[int, SharedFlag] = {}
        self.base_consumed: dict[int, FlagArray] = {}
        self.chain_staging: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.chain_arrival: dict[int, LapiCounter] = {}
        self.chain_free: dict[int, LapiCounter] = {}
        for node in self.node_order:
            state = ctx.nodes[node]
            machine_node = machine.nodes[node]
            segment = SharedSegment(
                machine_node,
                (2 * state.size + 4) * capacity + 64 * (3 * state.size + 8),
                name=f"scan[{node}]",
            )
            self.prefix_slots[node] = [
                (segment.allocate(capacity), segment.allocate(capacity))
                for _ in range(state.size)
            ]
            self.prefix_ready[node] = FlagArray(machine_node, state.size, name=f"scanrdy[{node}]")
            self.consumed_next[node] = FlagArray(machine_node, state.size, name=f"scancons[{node}]")
            self.total_consumed[node] = SharedFlag(machine_node, name=f"scantot[{node}]")
            self.base_slots[node] = (segment.allocate(capacity), segment.allocate(capacity))
            self.base_ready[node] = SharedFlag(machine_node, name=f"scanbase[{node}]")
            self.base_consumed[node] = FlagArray(machine_node, state.size, name=f"scanbcons[{node}]")
            self.chain_staging[node] = (segment.allocate(capacity), segment.allocate(capacity))
            master_lapi = machine.task(self.masters[node]).lapi
            self.chain_arrival[node] = master_lapi.counter(name=f"scanarr:{node}")
            self.chain_free[node] = master_lapi.counter(initial=2, name=f"scanfree:{node}")
        #: Cumulative chunk counts (flag thresholds / slot parity).
        self.chunk_seq: dict[int, int] = {rank: 0 for rank in ctx.members}
        self.chain_sent: dict[int, int] = {node: 0 for node in self.node_order}
        self.chain_received: dict[int, int] = {node: 0 for node in self.node_order}


def prepare_scan(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray,
    op: "ReduceOp",
) -> Prepared:
    """One rank's part of an inclusive SRM scan."""
    ctx.validate("scan", src.nbytes, task.rank)
    if dst.nbytes != src.nbytes:
        raise ConfigurationError("scan buffers must match in size")
    decision = ctx.dispatch("scan", src.nbytes, task)
    plan = ctx.extension_plan(ScanPlan)
    return (
        decision,
        unreserved("scan"),
        lambda _invocation: _scan(ctx, plan, task, src, dst, op),
    )


def _scan(
    ctx: SRMContext,
    plan: ScanPlan,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray,
    op: "ReduceOp",
) -> ProcessGenerator:
    state = ctx.node_state(task)
    node = task.node.index
    my_position = plan.position[node]
    me = state.index_of(task)
    dtype = src.dtype
    src_data = src.reshape(-1)
    dst_data = dst.reshape(-1)
    capacity = ctx.config.shared_buffer_bytes // dtype.itemsize
    is_master = state.is_master(task)
    last_index = state.size - 1
    forwards = my_position + 1 < len(plan.node_order)
    ready = plan.prefix_ready[node]

    for low in range(0, src_data.shape[0], capacity):
        with task.phase(SCAN_CHUNK):
            high = min(low + capacity, src_data.shape[0])
            count = high - low
            nbytes = count * dtype.itemsize
            sequence = plan.chunk_seq[task.rank]
            plan.chunk_seq[task.rank] = sequence + 1
            parity = sequence % 2
            my_slot = plan.prefix_slots[node][me][parity][:nbytes].view(dtype)
            chunk = src_data[low:high]

            # Slot reuse license: my consumers must be done with chunk seq-2.
            if sequence >= 2:
                license_at = sequence - 1
                if me < last_index:
                    yield from plan.consumed_next[node][me].wait_for(
                        task, lambda v: v >= license_at
                    )
                if me == last_index and forwards:
                    yield from plan.total_consumed[node].wait_for(
                        task, lambda v: v >= license_at
                    )

            # Stage 1: the SMP prefix chain, in member order.
            if me == 0:
                yield from task.copy(my_slot, chunk)
            else:
                needed = sequence + 1
                yield from ready[me - 1].wait_for(task, lambda v: v >= needed)
                predecessor = plan.prefix_slots[node][me - 1][parity][:nbytes].view(dtype)
                yield from task.combine_into(my_slot, predecessor, chunk, op)
                yield from plan.consumed_next[node][me - 1].set(task, sequence + 1)
            yield from ready[me].set(task, sequence + 1)

            # Stage 2 (master): receive the exclusive base, forward base+total.
            if is_master:
                base_view = plan.base_slots[node][parity][:nbytes].view(dtype)
                has_base = my_position > 0
                if sequence >= 2:
                    license_at = sequence - 1
                    yield from plan.base_consumed[node].wait_all(
                        task, lambda v: v >= license_at, skip=me
                    )
                if has_base:
                    receive_parity = plan.chain_received[node] % 2
                    plan.chain_received[node] += 1
                    yield from task.lapi.waitcntr(plan.chain_arrival[node], 1)
                    staged = plan.chain_staging[node][receive_parity][:nbytes].view(dtype)
                    yield from task.copy(base_view, staged)
                if forwards:
                    needed = sequence + 1
                    yield from ready[last_index].wait_for(task, lambda v: v >= needed)
                    total = plan.prefix_slots[node][last_index][parity][:nbytes].view(dtype)
                    next_node = plan.node_order[my_position + 1]
                    send_parity = plan.chain_sent[node] % 2
                    plan.chain_sent[node] += 1
                    outgoing = plan.chain_staging[next_node][send_parity][:nbytes].view(dtype)
                    yield from task.lapi.waitcntr(plan.chain_free[node], 1)
                    if has_base:
                        scratch = np.empty(count, dtype=dtype)
                        yield from task.combine_into(scratch, base_view, total, op)
                        payload = scratch
                    else:
                        payload = total
                    yield from task.lapi.put(
                        plan.masters[next_node],
                        outgoing,
                        payload,
                        target_counter=plan.chain_arrival[next_node],
                    )
                    yield from plan.total_consumed[node].set(task, sequence + 1)
                if has_base:
                    # Credit the upstream master's staging slot.
                    previous_node = plan.node_order[my_position - 1]
                    yield from task.lapi.put(
                        plan.masters[previous_node],
                        _SIGNAL,
                        _SIGNAL,
                        target_counter=plan.chain_free[previous_node],
                    )
                yield from plan.base_ready[node].set(task, sequence + 1)

            # Stage 3: combine the node base with my local prefix.
            needed = sequence + 1
            yield from plan.base_ready[node].wait_for(task, lambda v: v >= needed)
            out_chunk = dst_data[low:high]
            if my_position > 0:
                base_view = plan.base_slots[node][parity][:nbytes].view(dtype)
                yield from task.combine_into(out_chunk, base_view, my_slot, op)
            else:
                yield from task.copy(out_chunk, my_slot)
            yield from plan.base_consumed[node][me].set(task, sequence + 1)