"""Data-movement accounting — the paper's Fig. 2 argument, made executable.

The paper's intra-node case for SRM rests on counting memory copies: an SMP
reduce over 8 tasks needs **4 copies** (one per binomial-tree leaf) plus
operator executions, while a message-passing implementation moves data on
every one of its 7 tree edges — "these seven operations might internally
involve 7 or even 14 memory copies".

Two views are provided:

* *analytic* — closed-form counts from the tree structure;
* *audited* — run the real implementations on a simulated node and read the
  copy counters out of :class:`~repro.machine.cluster.TaskStats`, proving
  the implementation moves exactly as much data as the paper claims.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

import numpy as np

from repro.core import SRM
from repro.machine import ClusterSpec, Machine
from repro.mpi.collectives import IbmMpi
from repro.mpi.ops import SUM
from repro.trees.base import Tree
from repro.trees.binomial import binomial_tree

__all__ = ["MovementCounts", "smp_reduce_analytic", "message_passing_reduce_analytic", "audit_reduce"]


@dataclass(frozen=True)
class MovementCounts:
    """Copy / operator-execution counts for one intra-node reduce."""

    tasks: int
    copies: int
    operator_executions: int
    #: For message passing: per-edge data movements (send+recv pairs).
    messages: int = 0


def smp_reduce_analytic(tasks: int, tree: Tree | None = None) -> MovementCounts:
    """Fig. 2 left: copies = leaves of the binomial tree; ops = edges.

    Leaves copy their contribution into shared memory; every edge costs one
    operator execution; interior tasks and the root move no data.
    """
    if tree is None:
        tree = binomial_tree(tasks)
    leaves = len(tree.leaves()) if tasks > 1 else 0
    return MovementCounts(
        tasks=tasks,
        copies=leaves,
        operator_executions=tasks - 1 if tasks > 1 else 0,
    )


def message_passing_reduce_analytic(tasks: int, copies_per_message: int = 2) -> MovementCounts:
    """Fig. 2 right: P-1 messages; shared-memory p2p costs 2 copies each
    (sender into the bounce buffer, receiver out — the "7 or even 14" range
    corresponds to ``copies_per_message`` of 1 or 2)."""
    messages = tasks - 1 if tasks > 1 else 0
    return MovementCounts(
        tasks=tasks,
        copies=messages * copies_per_message,
        operator_executions=messages,
        messages=messages,
    )


def audit_reduce(tasks: int, stack: str = "srm", count: int = 128) -> MovementCounts:
    """Run a single-node reduce and count the *actual* data movements.

    ``stack``: ``"srm"`` (shared-memory reduce) or ``"mpi"`` (point-to-point
    over the shared-memory transport).
    """
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=tasks))
    sources = {r: np.full(count, float(r + 1)) for r in range(tasks)}
    destination = np.zeros(count)

    if stack == "srm":
        collectives: typing.Any = SRM(machine)
    elif stack == "mpi":
        collectives = IbmMpi(machine)
    else:
        raise ValueError(f"unknown stack {stack!r}")

    def program(task):
        dst = destination if task.rank == 0 else None
        yield from collectives.reduce(task, sources[task.rank], dst, SUM, root=0)

    machine.launch(program)
    assert np.all(destination == sum(range(1, tasks + 1))), "audit reduce must be correct"

    # Count payload-sized movements by total bytes copied: flag traffic is
    # synchronization, not data, and never reaches TaskStats.bytes_copied.
    payload_bytes = count * 8
    total_copied = sum(task.stats.bytes_copied for task in machine.tasks)
    operator_executions = sum(task.stats.reduce_ops for task in machine.tasks)
    messages = sum(task.mpi.stats.sends for task in machine.tasks)
    return MovementCounts(
        tasks=tasks,
        copies=int(total_copied // payload_bytes),
        operator_executions=operator_executions,
        messages=messages,
    )
