"""The SRM barrier (paper §2.2 intra-node, [17] inter-node).

Local phase: the flat shared-memory flag barrier.  Between check-in and
release the node masters run a dissemination-pattern exchange ([22], which
the paper notes has the same ~log(P) critical path as its pairwise exchange
with recursive doubling): in round ``r`` master ``i`` zero-byte-puts master
``(i + 2^r) mod n``'s round counter and waits on its own — ``ceil(log2 n)``
rounds, no data, works for any node count.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.context import BarrierPlan, SRMContext
from repro.core.smp.barrier import smp_barrier
from repro.obs.taxonomy import DISSEMINATION_ROUND
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task

__all__ = ["barrier_body"]

_SIGNAL = np.zeros(0, dtype=np.uint8)


def barrier_body(ctx: SRMContext, task: "Task", manage: bool) -> ProcessGenerator:
    """The barrier proper (no per-invocation cursors: check-in flags are
    binary and the dissemination counters are consumed, so consecutive
    invocations compose without reservation)."""
    state = ctx.node_state(task)
    if manage:
        task.lapi.set_interrupts(False)
    try:
        between = None
        if state.is_master(task) and len(ctx.nodes) > 1:
            between = _dissemination(ctx, ctx.barrier_plan(), task)
        yield from smp_barrier(state, task, between)
    finally:
        if manage:
            task.lapi.set_interrupts(True)


def _dissemination(ctx: SRMContext, plan: BarrierPlan, task: "Task") -> ProcessGenerator:
    node = task.node.index
    my_position = plan.position[node]
    participating = len(plan.node_order)
    for round_index in range(plan.rounds):
        with task.phase(DISSEMINATION_ROUND):
            peer_node = plan.node_order[(my_position + (1 << round_index)) % participating]
            yield from task.lapi.put(
                plan.masters[peer_node],
                _SIGNAL,
                _SIGNAL,
                target_counter=plan.counters[peer_node][round_index],
            )
            yield from task.lapi.waitcntr(plan.counters[node][round_index], 1)
