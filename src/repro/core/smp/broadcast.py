"""Shared-memory broadcast primitives (paper §2.2, Fig. 3).

The paper's winning SMP broadcast is *flat*: the root fills one of two
shared buffers and sets every other task's READY flag; all readers copy out
simultaneously (the SMP hardware arbitrates — our fluid bus model charges
the contention) and clear their own flag; a buffer is reusable once all its
flags are clear.  Pipelining falls out of alternating the two buffers, both
between chunks of one message and between consecutive calls.

Three primitives compose every use of the node's broadcast slot (a
:class:`~repro.shmem.buffers.DoubleBuffer` handoff with a seat per task):

* :func:`fill_slot` — root-side: wait until free, timed copy in, publish;
* :func:`announce_slot` — master-side when the data was *put* into the slot
  by the network (§2.4: "avoids unnecessary data copies"): just publish;
* :func:`drain_slot` — reader-side: wait for the write, timed copy out,
  release.

Which buffer a chunk uses is the parity of its chunk sequence, and every
sequence is claimed up front through the slot's
:meth:`~repro.shmem.buffers.DoubleBuffer.reserve` (ledger key
``("bcast", rank)``): the callers pass it in, so two invocations in flight
never pick the same slot for different data.
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
from repro.shmem.buffers import FILL, DoubleBuffer
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


def fill_slot(state: NodeState, task: "Task", sequence: int, src_chunk: np.ndarray) -> ProcessGenerator:
    """Root side: wait until ``sequence``'s buffer is free, fill it, hand it
    to every other task."""
    buffer = state.bcast_buf
    me = state.index_of(task)
    with task.phase(SLOT_FILL):
        yield from buffer.acquire(task, sequence, skip=me)
        yield from task.copy(buffer.data(sequence, src_chunk.nbytes), src_chunk)
        yield from buffer.publish(task, sequence, skip=me)


def announce_slot(state: NodeState, task: "Task", sequence: int) -> ProcessGenerator:
    """Master side: the network already landed ``sequence`` in its buffer;
    hand it to every other task.  No wait: the parent's buffer-free credit
    (Fig. 4) fenced its put, and the check confirms it."""
    me = state.index_of(task)
    state.bcast_buf.check_fill(sequence, skip=me)
    with task.phase(SLOT_ANNOUNCE):
        yield from state.bcast_buf.publish(task, sequence, skip=me)


def drain_slot(state: NodeState, task: "Task", sequence: int, dst_chunk: np.ndarray) -> ProcessGenerator:
    """Reader side: wait for ``sequence``, copy the chunk out, release."""
    buffer = state.bcast_buf
    me = state.index_of(task)
    with task.phase(SLOT_DRAIN):
        yield from buffer.read(task, sequence, seat=me)
        yield from task.copy(dst_chunk, buffer.data(sequence, dst_chunk.nbytes))
        yield from buffer.release(task, sequence, seat=me)


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
    ``sequence``: the chunk sequence reserved under ``("bcast", rank)``;
    its parity picks the buffer.
    """
    if state.size == 1:
        return
    if is_source:
        assert src_chunk is not None
        yield from fill_slot(state, task, sequence, src_chunk)
    else:
        assert dst_chunk is not None
        yield from drain_slot(state, task, sequence, dst_chunk)


def fan_out_offsets(state: NodeState, nbytes: int) -> range:
    """Byte offsets of :func:`smp_fan_out`'s chunks, one shared buffer each.

    The one source of the fan-out's chunk count, which its callers reserve
    under ``("bcast", rank)``.
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


def _relay_slots(state: NodeState) -> list[DoubleBuffer]:
    """Each task's single-buffered relay slot, with a seat per task (built at
    the ablation's first use)."""
    if not hasattr(state, "_tree_relay"):
        chunk, node = state.config.shared_buffer_bytes, state.node
        state._tree_relay = [  # type: ignore[attr-defined]
            DoubleBuffer(node, chunk, state.size, f"treebc[{node.index}][{i}]", generations=1)
            for i in range(state.size)
        ]
    return state._tree_relay  # type: ignore[attr-defined]


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
    paper dropped it.  A relay slot has one generation, so before it is
    refilled every child must have released the previous chunk (no double
    buffering — part of why this loses).
    """
    slots = _relay_slots(state)
    me = state.index_of(task)
    sequence = state.ledger.reserve(("tree-bcast", task.rank), 1)
    if state.size == 1:
        return
    parent_rank = tree.parent_of(task.rank)
    children = [state.index_of_rank(child) for child in tree.children_of(task.rank)]
    nbytes = (src_chunk if src_chunk is not None else dst_chunk).nbytes  # type: ignore[union-attr]
    own = slots[me]

    def refill_own_slot(source: np.ndarray) -> ProcessGenerator:
        yield from own.acquire(task, sequence)
        yield from task.copy(own.data(sequence, nbytes), source)
        yield from own.publish(task, sequence, seats=children)

    if parent_rank is None:
        assert src_chunk is not None
        yield from refill_own_slot(src_chunk)
        return
    upstream = slots[state.index_of_rank(parent_rank)]
    yield from upstream.read(task, sequence, seat=me)
    assert dst_chunk is not None
    if children:
        yield from refill_own_slot(upstream.data(sequence, nbytes))
        yield from upstream.release(task, sequence, seat=me)
        yield from task.copy(dst_chunk, own.data(sequence, nbytes))
    else:
        yield from task.copy(dst_chunk, upstream.data(sequence, nbytes))
        yield from upstream.release(task, sequence, seat=me)


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

    buffer = state.bcast_buf
    sequence, _ = buffer.reserve(state.ledger, ("bcast", task.rank), 1, FILL)
    if state.size == 1:
        return
    yield from smp_barrier(state, task)
    if is_source:
        assert src_chunk is not None
        yield from task.copy(buffer.data(sequence, src_chunk.nbytes), src_chunk)
    yield from smp_barrier(state, task)
    if not is_source:
        assert dst_chunk is not None
        yield from task.copy(dst_chunk, buffer.data(sequence, dst_chunk.nbytes))
    yield from smp_barrier(state, task)
