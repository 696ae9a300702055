"""The integrated SRM reduce (paper §2.4).

Per chunk, walked leaf→root over the Fig. 1 embedding:

1. **SMP reduce** on every node (Fig. 2): the node's binomial tree combines
   local contributions; the node result lands in the user destination at the
   global root and in the master's partial buffer elsewhere, or stays
   zero-copy in the source of a lone task.
2. **Inter-node combine**: each master waits for its inter-node children's
   puts to land in per-edge staging buffers (two slots, arrival counters),
   streams ``partial OP staged`` for each, and zero-byte-puts the child's
   free counter back.
3. **Forward**: non-root masters put their node partial into their parent's
   staging slot, gated by their own free counter.

Chunking + the two staging slots pipeline the memory copies, the operator
execution, and the network transfers — the overlap §2.4 describes.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.context import InvocationState, NodeState, ReducePlan, SRMContext
from repro.core.smp.reduce import smp_reduce_chunk
from repro.obs.taxonomy import PIPELINE_CHUNK
from repro.sim.events import Event
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task
    from repro.mpi.ops import ReduceOp

__all__ = ["reserve_reduce", "reduce_body"]

_SIGNAL = np.zeros(0, dtype=np.uint8)


def _flat(buffer: np.ndarray) -> np.ndarray:
    """Flatten without copying, keeping the dtype (operators need it)."""
    return buffer.reshape(-1)


def reserve_reduce(
    ctx: SRMContext,
    plan: ReducePlan,
    task: "Task",
    chunks: list[tuple[int, int]],
    invocation: InvocationState,
) -> InvocationState:
    """Claim this invocation's reduce windows at this rank (at start): its
    SMP-reduce chunks, and at a representative the staging slots of each
    inter-node edge it receives on or sends over.  The child's send count
    and the parent's receive count on an edge advance identically, so both
    ends agree on every chunk's staging slot without synchronization."""
    ledger, count = ctx.ledger, len(chunks)
    invocation.reserve(ledger, ("reduce", task.rank), count)
    if plan.trees.is_representative(task.rank):
        for child_rank in plan.inter_children(task.rank):
            invocation.reserve(ledger, ("recv", plan.root, child_rank), count)
        if plan.inter_parent(task.rank) is not None:
            invocation.reserve(ledger, ("sent", plan.root, task.rank), count)
    return invocation


def reduce_body(
    ctx: SRMContext,
    plan: ReducePlan,
    state: NodeState,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray | None,
    op: "ReduceOp",
    chunks: list[tuple[int, int]],
    root_chunk_done: list[Event] | None,
    invocation: InvocationState,
) -> ProcessGenerator:
    """The reduce proper, over a pre-reserved invocation window.

    ``root_chunk_done`` (the Fig. 5 pipelined allreduce): per-chunk events
    the root fires as results materialize, feeding the concurrent broadcast
    stage that shares ``chunks`` and ``invocation``.
    """
    src_data = _flat(src)
    dtype = src_data.dtype
    itemsize = dtype.itemsize
    intra_tree = plan.trees.intra[task.node.index]
    reduce_base = invocation["reduce", task.rank]

    def elements(offset: int, size: int, buffer: np.ndarray) -> np.ndarray:
        return buffer[offset // itemsize : (offset + size) // itemsize]

    if not plan.trees.is_representative(task.rank):
        for index, (offset, size) in enumerate(chunks):
            with task.phase(PIPELINE_CHUNK):
                yield from smp_reduce_chunk(
                    state,
                    task,
                    intra_tree,
                    elements(offset, size, src_data),
                    op,
                    sequence=reduce_base + index,
                )
        return

    is_root = task.rank == plan.root
    children = plan.inter_children(task.rank)
    parent = plan.inter_parent(task.rank)
    recv_bases = [invocation["recv", plan.root, child_rank] for child_rank in children]
    sent_base = invocation["sent", plan.root, task.rank] if parent is not None else 0
    if is_root:
        if dst is None:
            raise ValueError("the reduce root needs a destination buffer")
        dst_data = _flat(dst)

    for index, (offset, size) in enumerate(chunks):
        with task.phase(PIPELINE_CHUNK):
            src_chunk = elements(offset, size, src_data)
            if is_root:
                target: np.ndarray | None = elements(offset, size, dst_data)
            elif children or state.size > 1:
                # The node partial: the inter-node combines' accumulator and
                # the put source.
                target = state.partial_buffer(index, size).view(dtype)
            else:
                target = None  # zero-copy: the source doubles as put source
            partial = yield from smp_reduce_chunk(
                state, task, intra_tree, src_chunk, op, target,
                sequence=reduce_base + index,
            )
            assert partial is not None

            # Combine the inter-node children's staged partials.
            for child_rank, recv_base in zip(children, recv_bases):
                slot = (recv_base + index) % 2
                yield from task.lapi.waitcntr(plan.arrival[child_rank][slot], 1)
                staged = plan.staging[child_rank][slot][:size].view(dtype)
                yield from task.reduce_into(partial, staged, op)
                yield from task.lapi.put(
                    child_rank, _SIGNAL, _SIGNAL, target_counter=plan.free[child_rank][slot]
                )

            if parent is not None:
                slot = (sent_base + index) % 2
                yield from task.lapi.waitcntr(plan.free[task.rank][slot], 1)
                yield from task.lapi.put(
                    parent,
                    plan.staging[task.rank][slot][:size].view(dtype),
                    partial,
                    target_counter=plan.arrival[task.rank][slot],
                )
            elif root_chunk_done is not None:
                root_chunk_done[index].succeed()
