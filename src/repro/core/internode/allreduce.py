"""The integrated SRM allreduce (paper §2.2, §2.4, Fig. 5).

Two regimes:

* **≤ 16 KB** (:attr:`SRMConfig.allreduce_exchange_max`): SMP reduce to each
  node master, then *recursive-doubling pairwise exchange* between the
  masters ([15]): in round ``r`` master ``i`` swaps its running partial with
  master ``i XOR 2^r`` and combines.  Non-power-of-two node counts use the
  standard fold: the excess nodes first fold their contribution into a
  partner and receive the final result back.  An SMP broadcast of the result
  finishes the operation.
* **larger**: reduce-to-root and broadcast-from-root run **concurrently**,
  chunk by chunk, forming the four-stage pipeline of Fig. 5 — SMP reduce,
  inter-node reduce, inter-node broadcast, SMP broadcast — with per-chunk
  events chaining the root's reduce output into its broadcast input.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.context import InvocationState, SRMContext
from repro.core.internode.broadcast import _broadcast_large, reserve_broadcast
from repro.core.internode.reduce import reserve_reduce, srm_reduce
from repro.core.smp.broadcast import fill_slot, smp_broadcast_chunk
from repro.core.smp.reduce import smp_reduce_chunk
from repro.obs.taxonomy import EXCHANGE_ROUND
from repro.sim.events import Event
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.dispatch import Decision
    from repro.machine.cluster import Task
    from repro.mpi.ops import ReduceOp

__all__ = ["reserve_allreduce", "allreduce_body"]

_SIGNAL = np.zeros(0, dtype=np.uint8)


def _bytes(buffer: np.ndarray) -> np.ndarray:
    return buffer.reshape(-1).view(np.uint8)


def reserve_allreduce(ctx: SRMContext, task: "Task", decision: "Decision") -> InvocationState:
    """Claim this invocation's sequence windows at this rank (at start).

    The pipelined variant carries both its reduce-stage and broadcast-stage
    windows in one :class:`InvocationState` (the field sets are disjoint);
    the ring variant keeps its legacy self-advancing plan cursors — safe
    because per-rank request chaining serializes a rank's invocations.
    """
    invocation = InvocationState(op="allreduce")
    state = ctx.node_state(task)
    me = state.index_of(task)
    if decision.variant == "exchange":
        invocation.reduce_base = state.reserve_reduce(me, 1)
        if state.is_master(task):
            plan = ctx.allreduce_plan()
            invocation.call = plan.reserve_call(task.rank)
            if state.size > 1:
                invocation.bcast_base = state.reserve_bcast(me, 1)
        else:
            invocation.bcast_base = state.reserve_bcast(me, 1)
    elif decision.variant != "ring":
        chunks = list(decision.chunks)
        root = ctx.group_root
        reduce_window = reserve_reduce(ctx.reduce_plan(root), state, task, chunks)
        bcast_window = reserve_broadcast(ctx.bcast_plan(root), state, task, chunks, large=True)
        invocation.reduce_base = reduce_window.reduce_base
        invocation.recv_base = reduce_window.recv_base
        invocation.sent_base = reduce_window.sent_base
        invocation.bcast_base = bcast_window.bcast_base
        invocation.stream_base = bcast_window.stream_base
    return invocation


def allreduce_body(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray,
    op: "ReduceOp",
    decision: "Decision",
    invocation: InvocationState,
) -> ProcessGenerator:
    """The allreduce proper, over a pre-reserved invocation window."""
    if decision.variant == "exchange":
        manage = decision.manage_interrupts
        if manage:
            task.lapi.set_interrupts(False)
        try:
            yield from _allreduce_exchange(ctx, task, src, dst, op, invocation)
        finally:
            if manage:
                task.lapi.set_interrupts(True)
    elif decision.variant == "ring":
        from repro.core.internode.ring import srm_allreduce_ring

        yield from srm_allreduce_ring(ctx, task, src, dst, op)
    else:
        yield from _allreduce_pipelined(
            ctx, task, src, dst, op, list(decision.chunks), invocation
        )


# ---------------------------------------------------------------------------
# small: recursive-doubling pairwise exchange between masters
# ---------------------------------------------------------------------------


def _allreduce_exchange(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray,
    op: "ReduceOp",
    invocation: InvocationState,
) -> ProcessGenerator:
    state = ctx.node_state(task)
    nbytes = src.nbytes
    dtype = src.dtype
    src_data = src.reshape(-1)
    dst_data = dst.reshape(-1)
    intra_tree = ctx.reduce_plan(ctx.group_root).trees.intra[task.node.index]

    if not state.is_master(task):
        # Contribute to the SMP reduce, then collect the result.
        yield from smp_reduce_chunk(
            state, task, intra_tree, src_data, op, sequence=invocation.reduce_base
        )
        yield from smp_broadcast_chunk(
            state,
            task,
            is_source=False,
            src_chunk=None,
            dst_chunk=dst_data,
            sequence=invocation.bcast_base,
        )
        return

    plan = ctx.allreduce_plan()
    call = invocation.call
    slot = call % 2
    node = task.node.index
    my_position = plan.position[node]
    participating = len(plan.node_order)
    group = plan.group_size  # the power-of-two exchange group

    # The master accumulates directly in its own destination buffer.
    yield from smp_reduce_chunk(
        state, task, intra_tree, src_data, op, target=dst_data,
        sequence=invocation.reduce_base,
    )

    if my_position >= group:
        # Excess node: fold into the partner, get the final result back.
        partner_node = plan.fold_partner[node]
        yield from task.lapi.put(
            plan.masters[partner_node],
            plan.fold_staging[node][slot][:nbytes].view(dtype),
            dst_data,
            target_counter=plan.fold_arrival[node],
        )
        yield from task.lapi.waitcntr(plan.fold_result_arrival[node], 1)
        yield from task.copy(dst_data, state.partial_buffer(call, nbytes).view(dtype))
    else:
        folder_position = my_position + group
        folder = plan.node_order[folder_position] if folder_position < participating else None
        if folder is not None:
            yield from task.lapi.waitcntr(plan.fold_arrival[folder], 1)
            yield from task.reduce_into(
                dst_data, plan.fold_staging[folder][slot][:nbytes].view(dtype), op
            )
        for round_index in range(plan.rounds):
            with task.phase(EXCHANGE_ROUND):
                peer_node = plan.node_order[my_position ^ (1 << round_index)]
                yield from task.lapi.put(
                    plan.masters[peer_node],
                    plan.exchange[peer_node][round_index][slot][:nbytes].view(dtype),
                    dst_data,
                    target_counter=plan.arrival[peer_node][round_index],
                )
                yield from task.lapi.waitcntr(plan.arrival[node][round_index], 1)
                yield from task.reduce_into(
                    dst_data, plan.exchange[node][round_index][slot][:nbytes].view(dtype), op
                )
        if folder is not None:
            # Send the finished result back into the folder's partial buffer.
            folder_partial = ctx.nodes[folder].partial_buffer(call, nbytes).view(dtype)
            yield from task.lapi.put(
                plan.masters[folder],
                folder_partial,
                dst_data,
                target_counter=plan.fold_result_arrival[folder],
            )

    # SMP broadcast of the result to the local tasks.
    if state.size > 1:
        yield from fill_slot(state, task, invocation.bcast_base % 2, dst_data)


# ---------------------------------------------------------------------------
# large: the Fig. 5 four-stage pipeline
# ---------------------------------------------------------------------------


def _allreduce_pipelined(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray,
    op: "ReduceOp",
    chunks: list[tuple[int, int]],
    invocation: InvocationState,
) -> ProcessGenerator:
    pipeline_root = ctx.group_root
    is_global_root = task.rank == pipeline_root
    root_events = (
        [Event(task.engine, name=f"ar-chunk{i}") for i in range(len(chunks))]
        if is_global_root
        else None
    )

    reduce_stage = task.engine.process(
        srm_reduce(
            ctx,
            task,
            src,
            dst if is_global_root else None,
            op,
            root=pipeline_root,
            chunks=chunks,
            root_chunk_done=root_events,
            invocation=invocation,
        ),
        name=f"ar-reduce[{task.rank}]",
    )
    bcast_plan = ctx.bcast_plan(pipeline_root)
    bcast_stage = task.engine.process(
        _broadcast_large(
            ctx,
            bcast_plan,
            ctx.node_state(task),
            task,
            dst,
            chunks,
            invocation,
            root_chunk_ready=root_events,
        ),
        name=f"ar-bcast[{task.rank}]",
    )
    yield reduce_stage
    yield bcast_stage
