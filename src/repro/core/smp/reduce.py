"""Shared-memory reduce (paper §2.2, Fig. 2).

A binomial tree over the node's local tasks:

* **leaves** copy their contribution into their shared slot — the only data
  movements in the whole intra-node operation (4 copies for 8 tasks, versus
  ≥7 for a message-passing implementation, Fig. 2);
* **interior tasks** wait for each child's slot and *execute the operator*,
  streaming ``own-data OP child-slot`` into their own slot — no copies;
* the **node root** streams its final combine directly into the external
  target buffer (the user's destination at the global root, or the put
  source for the inter-node stage) — avoiding the extra root copy the paper
  criticizes in Sistare et al. [11].

Each task's slot is a :class:`~repro.shmem.buffers.DoubleBuffer` handoff
with two generations (alternating on the chunk sequence) and one seat for
its reader, the parent of the moment.  A task writes a generation only once
the reader of its last write released it, whichever rank that was (the
intra tree, hence the parent, follows the root): that gives each leaf a
two-chunk lead on its parent, which is what pipelines the SMP stage against
the network stage in the integrated operations.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.context import NodeState
from repro.obs.taxonomy import SMP_REDUCE
from repro.sim.process import ProcessGenerator
from repro.trees.base import RankTree

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task
    from repro.mpi.ops import ReduceOp

__all__ = ["smp_reduce_chunk"]


def smp_reduce_chunk(
    state: NodeState,
    task: "Task",
    tree: RankTree,
    src_chunk: np.ndarray,
    op: "ReduceOp",
    target: np.ndarray | None = None,
    *,
    sequence: int,
) -> typing.Generator[typing.Any, typing.Any, np.ndarray | None]:
    """One chunk of the SMP reduce; returns the node-result view at the
    intra root (None elsewhere).

    ``target`` (intra root only): where the node result must land.  A root
    alone on its node may omit it and gets its source chunk back (zero
    copies); a root with children needs one — it never accumulates in its
    own slot, which only its parent of the moment reads.

    ``sequence``: the chunk sequence reserved under ``("reduce", rank)``;
    it picks the slot generation and stamps the handoff.
    """
    with task.phase(SMP_REDUCE):
        me = state.index_of(task)
        children = tree.children_of(task.rank)
        is_root = tree.parent_of(task.rank) is None
        nbytes = src_chunk.nbytes
        dtype = src_chunk.dtype
        own = state.reduce_slots[me]

        if is_root and not children:
            # Single-participant intra tree: nothing to combine.
            if target is None:
                return src_chunk
            yield from task.copy(target, src_chunk)
            return target
        if is_root:
            if target is None:
                raise ValueError("an SMP reduce root with children needs a target")
            accumulator = target
        else:
            # My own slot: the reader of its last write, whichever rank that
            # was, must have released it.  Slots are raw shared bytes; the
            # operator needs the real dtype.
            yield from own.acquire(task, sequence)
            accumulator = own.data(sequence, nbytes).view(dtype)
            if not children:
                yield from task.copy(accumulator, src_chunk)
                yield from own.publish(task, sequence)
                return None

        # Combine children smallest-subtree-first (they finish earliest).
        first = True
        for child_rank in reversed(children):
            slot = state.reduce_slots[state.index_of_rank(child_rank)]
            yield from slot.read(task, sequence)
            staged = slot.data(sequence, nbytes).view(dtype)
            if first:
                yield from task.combine_into(accumulator, src_chunk, staged, op)
                first = False
            else:
                yield from task.reduce_into(accumulator, staged, op)
            yield from slot.release(task, sequence)

        if is_root:
            return accumulator
        yield from own.publish(task, sequence)
        return None
