"""Shared-memory broadcast primitives (paper §2.2, Fig. 3).

The paper's winning SMP broadcast is *flat*: the root fills one of two
shared buffers and sets every other task's READY flag; all readers copy out
simultaneously (the SMP hardware arbitrates — our fluid bus model charges
the contention) and clear their own flag; a buffer is reusable once all its
flags are clear.  Pipelining falls out of alternating the two buffers, both
between chunks of one message and between consecutive calls.

Three primitives compose every use:

* :func:`fill_slot` — root-side: wait buffer-free, timed copy in, set flags;
* :func:`announce_slot` — master-side when the data was *put* into the slot
  by the network (§2.4: "avoids unnecessary data copies"): just set flags;
* :func:`drain_slot` — reader-side: wait own flag, timed copy out, clear.

Which buffer a chunk uses is the parity of its chunk sequence, and every
sequence is claimed up front through
:meth:`~repro.core.context.NodeState.reserve_bcast`: the callers pass it in,
so two invocations in flight never pick the same slot for different data.
:func:`smp_fan_out` distributes a whole assembled result chunk-wise (the
ring collectives' last stage); :func:`fan_out_offsets` is the one source of
its chunk count, which callers reserve.

:func:`tree_smp_broadcast_chunk` implements the tree-structured alternative
the paper found slower ("Surprisingly, experiments showed..."), kept for the
A2 ablation benchmark.  :func:`barrier_synced_smp_broadcast_chunk` implements
the Sistare-style barrier-arbitrated variant the paper's §4 criticizes
("a barrier was used to synchronize access to shared memory buffers,
whereas SRM uses shared memory flags ... less susceptible to the processor
late arrivals and delays"), kept for the A7 straggler ablation.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.context import NodeState
from repro.obs.taxonomy import PIPELINE_CHUNK, SLOT_ANNOUNCE, SLOT_DRAIN, SLOT_FILL
from repro.shmem.flags import FlagArray
from repro.shmem.segment import SharedSegment
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task

__all__ = [
    "fill_slot",
    "announce_slot",
    "drain_slot",
    "smp_broadcast_chunk",
    "fan_out_offsets",
    "smp_fan_out",
    "tree_smp_broadcast_chunk",
    "barrier_synced_smp_broadcast_chunk",
]


def fill_slot(state: NodeState, task: "Task", slot: int, src_chunk: np.ndarray) -> ProcessGenerator:
    """Root side: wait for buffer ``slot`` to be free, fill it, set READY."""
    flags = state.bcast_buf.flags(slot)
    me = state.index_of(task)
    with task.phase(SLOT_FILL):
        yield from flags.wait_all(task, lambda v: v == 0, skip=me)
        state.bcast_buf.check_fill(slot, writer_index=me)
        yield from task.copy(state.bcast_buf.data(slot, src_chunk.nbytes), src_chunk)
        yield from flags.set_all(task, 1, skip=me)


def announce_slot(state: NodeState, task: "Task", slot: int) -> ProcessGenerator:
    """Master side: the network already landed data in ``slot``; set READY.

    No buffer-free wait is needed: the inter-node flow control (the free
    counter ack, Fig. 4) guarantees the slot was drained before the parent
    refilled it.
    """
    flags = state.bcast_buf.flags(slot)
    # The inter-node free-counter ack must have fenced this slot: announcing
    # a buffer some reader still holds READY would overwrite in-use data.
    state.bcast_buf.check_fill(slot, writer_index=state.index_of(task))
    with task.phase(SLOT_ANNOUNCE):
        yield from flags.set_all(task, 1, skip=state.index_of(task))


def drain_slot(state: NodeState, task: "Task", slot: int, dst_chunk: np.ndarray) -> ProcessGenerator:
    """Reader side: wait READY, copy the chunk out, clear own flag."""
    me = state.index_of(task)
    flag = state.bcast_buf.flags(slot)[me]
    with task.phase(SLOT_DRAIN):
        yield from flag.wait_value(task, 1)
        state.bcast_buf.check_drain(slot, reader_index=me)
        yield from task.copy(dst_chunk, state.bcast_buf.data(slot, dst_chunk.nbytes))
        yield from flag.set(task, 0)


def smp_broadcast_chunk(
    state: NodeState,
    task: "Task",
    is_source: bool,
    src_chunk: np.ndarray | None,
    dst_chunk: np.ndarray | None,
    sequence: int,
) -> ProcessGenerator:
    """One chunk of a flat SMP broadcast.

    ``is_source``: this task provides the data (from ``src_chunk``).
    Readers pass their ``dst_chunk``.  Single-task nodes are a no-op.
    ``sequence``: the chunk sequence reserved through
    :meth:`~repro.core.context.NodeState.reserve_bcast`; its parity picks
    the buffer.
    """
    if state.size == 1:
        return
    slot = sequence % 2
    if is_source:
        assert src_chunk is not None
        yield from fill_slot(state, task, slot, src_chunk)
    else:
        assert dst_chunk is not None
        yield from drain_slot(state, task, slot, dst_chunk)


def fan_out_offsets(state: NodeState, nbytes: int) -> range:
    """Byte offsets of :func:`smp_fan_out`'s chunks, one shared buffer each.

    The one source of the fan-out's chunk count, which its callers reserve
    with :meth:`~repro.core.context.NodeState.reserve_bcast`.
    """
    return range(0, nbytes, state.config.shared_buffer_bytes)


def smp_fan_out(state: NodeState, task: "Task", data: np.ndarray, base: int) -> ProcessGenerator:
    """Distribute the master's assembled ``data`` (bytes) to its node.

    The whole buffer flows chunk-wise through the Fig. 3 buffers, chunk
    *i* under the reserved sequence ``base + i``.  Single-task nodes are a
    no-op.
    """
    if state.size == 1:
        return
    chunk = state.config.shared_buffer_bytes
    is_master = state.is_master(task)
    for index, offset in enumerate(fan_out_offsets(state, data.nbytes)):
        view = data[offset : offset + chunk]
        with task.phase(PIPELINE_CHUNK):
            yield from smp_broadcast_chunk(
                state,
                task,
                is_source=is_master,
                src_chunk=view if is_master else None,
                dst_chunk=None if is_master else view,
                sequence=base + index,
            )


# ---------------------------------------------------------------------------
# Tree-based SMP broadcast (the A2 ablation's losing variant)
# ---------------------------------------------------------------------------


class _TreeBcastState:
    """Per-task relay slots + cumulative flags for the tree SMP broadcast."""

    def __init__(self, state: NodeState) -> None:
        node = state.node
        size = state.size
        chunk = state.config.shared_buffer_bytes
        segment = SharedSegment(node, size * chunk + 64 * (size + 2), name=f"treebc[{node.index}]")
        self.slots = [segment.allocate(chunk) for _ in range(size)]
        self.ready = FlagArray(node, size, name=f"treebc-rdy[{node.index}]", kind="sequence")
        #: consumed[c] = chunks task c has copied out of its parent's slot.
        self.consumed = FlagArray(node, size, name=f"treebc-cons[{node.index}]", kind="sequence")
        self.seq = [0] * size


def _tree_state(state: NodeState) -> _TreeBcastState:
    cached = getattr(state, "_tree_bcast", None)
    if cached is None:
        cached = _TreeBcastState(state)
        state._tree_bcast = cached  # type: ignore[attr-defined]
    return cached


def tree_smp_broadcast_chunk(
    state: NodeState,
    task: "Task",
    tree: typing.Any,  # RankTree over this node's ranks
    src_chunk: np.ndarray | None,
    dst_chunk: np.ndarray | None,
) -> ProcessGenerator:
    """One chunk of a tree-structured SMP broadcast.

    The root copies into its relay slot; every interior task copies its
    parent's slot into its own slot and then into its user buffer; leaves
    copy parent's slot straight to the user buffer.  Compared with the flat
    protocol this serializes ``height`` dependent copies — the reason the
    paper dropped it.
    """
    tstate = _tree_state(state)
    me = state.index_of(task)
    sequence = tstate.seq[me]
    tstate.seq[me] = sequence + 1
    if state.size == 1:
        return
    parent_rank = tree.parent_of(task.rank)
    children = tree.children_of(task.rank)
    nbytes = (src_chunk if src_chunk is not None else dst_chunk).nbytes  # type: ignore[union-attr]

    def refill_own_slot(source: np.ndarray) -> ProcessGenerator:
        # Before overwriting the slot holding chunk seq-1, every child must
        # have consumed it (no double buffering — part of why this loses).
        for child_rank in children:
            child_local = state.index_of_rank(child_rank)
            yield from tstate.consumed[child_local].wait_for(task, lambda v: v >= sequence)
        yield from task.copy(tstate.slots[me][:nbytes], source)
        yield from tstate.ready[me].set(task, sequence + 1)

    if parent_rank is None:
        assert src_chunk is not None
        yield from refill_own_slot(src_chunk)
        return
    parent_local = state.index_of_rank(parent_rank)
    yield from tstate.ready[parent_local].wait_for(task, lambda v: v >= sequence + 1)
    assert dst_chunk is not None
    if children:
        yield from refill_own_slot(tstate.slots[parent_local][:nbytes])
        yield from tstate.consumed[me].set(task, sequence + 1)
        yield from task.copy(dst_chunk, tstate.slots[me][:nbytes])
    else:
        yield from task.copy(dst_chunk, tstate.slots[parent_local][:nbytes])
        yield from tstate.consumed[me].set(task, sequence + 1)


# ---------------------------------------------------------------------------
# Barrier-arbitrated SMP broadcast (the §4 Sistare-style comparison point)
# ---------------------------------------------------------------------------


def barrier_synced_smp_broadcast_chunk(
    state: NodeState,
    task: "Task",
    is_source: bool,
    src_chunk: np.ndarray | None,
    dst_chunk: np.ndarray | None,
) -> ProcessGenerator:
    """One chunk of an SMP broadcast arbitrated by full node barriers.

    The structure Sistare et al. [11] used: a barrier before the root may
    fill (everyone has left the buffer), and a barrier after the drain
    (everyone has the data) — so *every* task's progress is coupled to the
    *slowest* task twice per chunk.  SRM's per-task READY flags couple each
    reader only pairwise to the root, which is why the paper calls its
    scheme "less susceptible to the processor late arrivals and delays".
    Kept for the A7 ablation; not used by the SRM operations.
    """
    from repro.core.smp.barrier import smp_barrier

    sequence = state.reserve_bcast(state.index_of(task), 1)
    if state.size == 1:
        return
    slot = sequence % 2
    yield from smp_barrier(state, task)
    if is_source:
        assert src_chunk is not None
        yield from task.copy(state.bcast_buf.data(slot, src_chunk.nbytes), src_chunk)
    yield from smp_barrier(state, task)
    if not is_source:
        assert dst_chunk is not None
        yield from task.copy(dst_chunk, state.bcast_buf.data(slot, dst_chunk.nbytes))
    yield from smp_barrier(state, task)
