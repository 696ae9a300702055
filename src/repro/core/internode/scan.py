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
chunk *c*'s network hop.  Every shared slot is a two-generation handoff,
so producers run at most two chunks ahead of their slowest consumer — the
same discipline as the SMP reduce.

A scan enters as an inline request (:mod:`repro.core.requests`): it
reserves its chunk sequences in the body, after the chain gate, so in
started order.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.context import SRMContext
from repro.core.requests import Prepared, unreserved
from repro.errors import ConfigurationError
from repro.lapi.counters import LapiCounter
from repro.obs.taxonomy import SCAN_CHUNK
from repro.shmem.buffers import DoubleBuffer
from repro.shmem.segment import SharedSegment
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task
    from repro.mpi.ops import ReduceOp

__all__ = ["prepare_scan", "ScanPlan"]

_SIGNAL = np.zeros(0, dtype=np.uint8)


class ScanPlan:
    """Per-node prefix and base slots (handoffs) and the inter-node chain."""

    def __init__(self, ctx: SRMContext) -> None:
        capacity = ctx.config.shared_buffer_bytes
        #: Per node, each member's prefix slot, read by the next member (the
        #: last member's by the master, to forward the node total).
        self.prefix: dict[int, list[DoubleBuffer]] = {}
        #: Per node, the exclusive base the master hands every member.
        self.base: dict[int, DoubleBuffer] = {}
        self.chain_staging: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.chain_arrival: dict[int, LapiCounter] = {}
        self.chain_free: dict[int, LapiCounter] = {}
        for node in ctx.node_order:
            state = ctx.nodes[node]
            machine_node = state.node
            self.prefix[node] = [
                DoubleBuffer(machine_node, capacity, seats=1, name=f"scan[{node}][{index}]")
                for index in range(state.size)
            ]
            self.base[node] = DoubleBuffer(machine_node, capacity, state.size, f"scanbase[{node}]")
            segment = SharedSegment(machine_node, 2 * capacity + 128, name=f"scanchain[{node}]")
            self.chain_staging[node] = (segment.allocate(capacity), segment.allocate(capacity))
            master_lapi = ctx.tasks[ctx.masters[node]].lapi
            self.chain_arrival[node] = master_lapi.counter(name=f"scanarr:{node}")
            self.chain_free[node] = master_lapi.counter(initial=2, name=f"scanfree:{node}")


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
    plan = ctx.plan(ScanPlan)
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
    my_position = ctx.node_position[node]
    me = state.index_of(task)
    dtype = src.dtype
    src_data = src.reshape(-1)
    dst_data = dst.reshape(-1)
    capacity = ctx.config.shared_buffer_bytes // dtype.itemsize
    is_master = state.is_master(task)
    last_index = state.size - 1
    forwards = my_position + 1 < len(ctx.node_order)
    # Cumulative chunk counts (slot generations and handoff stamps), claimed
    # now; a master also claims the chain staging it receives on and sends over.
    lows = range(0, src_data.shape[0], capacity)
    ledger = ctx.ledger
    first = ledger.reserve(("scan", task.rank), len(lows))
    has_base = is_master and my_position > 0
    received = ledger.reserve(("scan-received", task.rank), len(lows)) if has_base else 0
    sent = ledger.reserve(("scan-sent", task.rank), len(lows)) if is_master and forwards else 0
    prefix, base = plan.prefix[node], plan.base[node]

    for index, low in enumerate(lows):
        with task.phase(SCAN_CHUNK):
            high = min(low + capacity, src_data.shape[0])
            count = high - low
            nbytes = count * dtype.itemsize
            sequence = first + index
            chunk = src_data[low:high]

            # Stage 1: the SMP prefix chain, in member order.  My slot has a
            # reader unless I am the last member of the last node.
            yield from prefix[me].acquire(task, sequence)
            my_slot = prefix[me].data(sequence, nbytes).view(dtype)
            if me == 0:
                yield from task.copy(my_slot, chunk)
            else:
                yield from prefix[me - 1].read(task, sequence)
                predecessor = prefix[me - 1].data(sequence, nbytes).view(dtype)
                yield from task.combine_into(my_slot, predecessor, chunk, op)
                yield from prefix[me - 1].release(task, sequence)
            if me < last_index or forwards:
                yield from prefix[me].publish(task, sequence)

            # Stage 2 (master): receive the exclusive base, forward base+total.
            if is_master:
                yield from base.acquire(task, sequence)
                base_view = base.data(sequence, nbytes).view(dtype)
                if has_base:
                    receive_parity = (received + index) % 2
                    yield from task.lapi.waitcntr(plan.chain_arrival[node], 1)
                    staged = plan.chain_staging[node][receive_parity][:nbytes].view(dtype)
                    yield from task.copy(base_view, staged)
                if forwards:
                    yield from prefix[last_index].read(task, sequence)
                    total = prefix[last_index].data(sequence, nbytes).view(dtype)
                    next_node = ctx.node_order[my_position + 1]
                    send_parity = (sent + index) % 2
                    outgoing = plan.chain_staging[next_node][send_parity][:nbytes].view(dtype)
                    yield from task.lapi.waitcntr(plan.chain_free[node], 1)
                    if has_base:
                        scratch = np.empty(count, dtype=dtype)
                        yield from task.combine_into(scratch, base_view, total, op)
                        payload = scratch
                    else:
                        payload = total
                    yield from task.lapi.put(
                        ctx.masters[next_node],
                        outgoing,
                        payload,
                        target_counter=plan.chain_arrival[next_node],
                    )
                    yield from prefix[last_index].release(task, sequence)
                if has_base:
                    # Credit the upstream master's staging slot.
                    previous_node = ctx.node_order[my_position - 1]
                    yield from task.lapi.put(
                        ctx.masters[previous_node],
                        _SIGNAL,
                        _SIGNAL,
                        target_counter=plan.chain_free[previous_node],
                    )
                yield from base.publish(task, sequence)

            # Stage 3: combine the node base with my local prefix.
            yield from base.read(task, sequence, seat=me)
            out_chunk = dst_data[low:high]
            if my_position > 0:
                base_view = base.data(sequence, nbytes).view(dtype)
                yield from task.combine_into(out_chunk, base_view, my_slot, op)
            else:
                yield from task.copy(out_chunk, my_slot)
            yield from base.release(task, sequence, seat=me)
