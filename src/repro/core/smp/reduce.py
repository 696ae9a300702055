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

Chunks flow through two slot generations per task (``reduce_slot`` alternates
on the chunk sequence); cumulative ready/consumed flags give each leaf a
two-chunk license ahead of its parent, which is what pipelines the SMP stage
against the network stage in the integrated operations.
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

    ``target`` (intra root only): where the node result must land.  When
    omitted, the root accumulates in its own shared slot — or, on a
    single-task node, returns its source chunk directly (zero copies).

    ``sequence``: the chunk sequence reserved through
    :meth:`~repro.core.context.NodeState.reserve_reduce`; its parity picks
    the slot generation and its successor is the flag threshold.
    """
    with task.phase(SMP_REDUCE):
        result = yield from _smp_reduce_chunk(state, task, tree, src_chunk, op, target, sequence)
    return result


def _smp_reduce_chunk(
    state: NodeState,
    task: "Task",
    tree: RankTree,
    src_chunk: np.ndarray,
    op: "ReduceOp",
    target: np.ndarray | None,
    sequence: int,
) -> typing.Generator[typing.Any, typing.Any, np.ndarray | None]:
    me = state.index_of(task)
    children = tree.children_of(task.rank)
    is_root = tree.parent_of(task.rank) is None
    nbytes = src_chunk.nbytes
    dtype = src_chunk.dtype

    def typed_slot(local_index: int) -> np.ndarray:
        # Slots are raw shared bytes; the operator needs the real dtype.
        return state.reduce_slot(local_index, sequence, nbytes).view(dtype)

    if not is_root:
        # Leaf or interior: the slot is consumed by the parent.  Before
        # overwriting a slot, its previous write (if any) must have been
        # consumed — flags carry global chunk sequences, so this stays
        # correct when the task was a (slot-less) root in earlier calls.
        previous_write = state.reduce_last_write[me][sequence % 2]
        if previous_write is not None:
            license_at = previous_write + 1
            yield from state.reduce_consumed[me].wait_for(task, lambda v: v >= license_at)
        state.reduce_last_write[me][sequence % 2] = sequence
        my_slot = typed_slot(me)
        if not children:
            yield from task.copy(my_slot, src_chunk)
            yield from state.reduce_ready[me].set(task, sequence + 1)
            return None
        accumulator: np.ndarray = my_slot
    else:
        if children:
            accumulator = target if target is not None else typed_slot(me)
        else:
            # Single-participant intra tree: nothing to combine.
            if target is None:
                return src_chunk
            yield from task.copy(target, src_chunk)
            return target

    # Combine children smallest-subtree-first (they finish earliest).
    first = True
    for child_rank in reversed(children):
        child_local = state.index_of_rank(child_rank)
        needed = sequence + 1
        yield from state.reduce_ready[child_local].wait_for(task, lambda v: v >= needed)
        child_slot = typed_slot(child_local)
        if first:
            yield from task.combine_into(accumulator, src_chunk, child_slot, op)
            first = False
        else:
            yield from task.reduce_into(accumulator, child_slot, op)
        yield from state.reduce_consumed[child_local].set(task, sequence + 1)

    if not is_root:
        yield from state.reduce_ready[me].set(task, sequence + 1)
        return None
    return accumulator
