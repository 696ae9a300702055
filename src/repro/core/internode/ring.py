"""Hierarchical ring allreduce — an alternative to the Fig. 5 pipeline.

The paper's large-message allreduce pipelines reduce-to-root with
broadcast-from-root (§2.4, Fig. 5).  A bandwidth-optimal alternative the
paper's future work invites evaluating: a **ring reduce-scatter followed by
a ring allgather over the node masters**, with shared-memory ends —

1. SMP reduce on every node (the master accumulates the node partial
   directly in its destination buffer);
2. masters split the message into ``k`` segments and run ``k-1``
   reduce-scatter steps (each step: put my current segment to the right
   neighbour's staging slot, combine the segment arriving from the left);
3. ``k-1`` allgather steps circulate the fully-reduced segments with direct
   puts into the neighbours' destination buffers;
4. SMP broadcast of the full result inside each node.

Inter-node traffic per master is ``2 (k-1)/k`` of the message — optimal —
versus the pipeline's up-and-down tree traversal; the pipeline wins on
latency (log k rounds vs 2(k-1)).  This module is the registered ``ring``
variant of the allreduce in :mod:`repro.core.dispatch`: force it with
``FixedPolicy({"allreduce": "ring"})``, or let a tuned/cost-model policy
pick it where its bandwidth optimality wins; the ablation benchmark
``bench_abl_ring_allreduce.py`` maps the crossover.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.context import SRMContext
from repro.core.internode.gatherscatter import _fan_out, _ring_signal, _signal_flow
from repro.core.smp.reduce import smp_reduce_chunk
from repro.errors import ConfigurationError
from repro.lapi.counters import LapiCounter
from repro.obs.taxonomy import BLOCK_REGISTER, PIPELINE_CHUNK, RING_STEP, STREAM_JOIN
from repro.shmem.segment import SharedSegment
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task
    from repro.mpi.ops import ReduceOp

__all__ = ["srm_allreduce_ring", "RingAllreducePlan"]

_SIGNAL = np.zeros(0, dtype=np.uint8)


class RingAllreducePlan:
    """Per-context counters and staging for the hierarchical ring."""

    def __init__(self, ctx: SRMContext) -> None:
        machine = ctx.machine
        self.node_order = sorted(ctx.nodes)
        self.position = {node: index for index, node in enumerate(self.node_order)}
        self.masters = {node: ctx.nodes[node].master_rank for node in self.node_order}
        capacity = ctx.config.shared_buffer_bytes
        self.staging: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.rs_arrival: dict[int, LapiCounter] = {}
        #: Outgoing-channel credits: my right's two staging slots (consumed
        #: before each reduce-scatter put, refilled by the right's ack after
        #: it combines — masters can drift up to k-1 steps apart otherwise).
        self.rs_free: dict[int, LapiCounter] = {}
        self.ag_arrival: dict[int, LapiCounter] = {}
        self.addr_arrival: dict[int, LapiCounter] = {}
        for node in self.node_order:
            master_lapi = machine.task(self.masters[node]).lapi
            segment = SharedSegment(machine.nodes[node], 2 * capacity + 128, name=f"ringar[{node}]")
            self.staging[node] = (segment.allocate(capacity), segment.allocate(capacity))
            self.rs_arrival[node] = master_lapi.counter(name=f"ringrs:{node}")
            self.rs_free[node] = master_lapi.counter(initial=2, name=f"ringfree:{node}")
            self.ag_arrival[node] = master_lapi.counter(name=f"ringag:{node}")
            self.addr_arrival[node] = master_lapi.counter(name=f"ringaddr:{node}")
        self.registry: dict[int, np.ndarray] = {}
        #: Reduce-scatter staging parity: chunks I have sent to my right /
        #: combined from my left.  My combined count always equals my left's
        #: sent count (chunks are combined in arrival order), so both ends
        #: of a channel agree on every chunk's slot without negotiation.
        self.rs_sent: dict[int, int] = {node: 0 for node in self.node_order}
        self.rs_combined: dict[int, int] = {node: 0 for node in self.node_order}


def _ring_plan(ctx: SRMContext) -> RingAllreducePlan:
    plan = getattr(ctx, "_ring_allreduce_plan", None)
    if plan is None:
        plan = RingAllreducePlan(ctx)
        ctx._ring_allreduce_plan = plan  # type: ignore[attr-defined]
    return plan


def srm_allreduce_ring(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray,
    op: "ReduceOp",
) -> ProcessGenerator:
    """One rank's part of the hierarchical ring allreduce."""
    ctx.validate("allreduce", src.nbytes, task.rank)
    state = ctx.node_state(task)
    dtype = src.dtype
    src_data = src.reshape(-1)
    dst_data = dst.reshape(-1)
    intra_tree = ctx.reduce_plan(ctx.group_root).trees.intra[task.node.index]

    capacity = ctx.config.shared_buffer_bytes // dtype.itemsize

    def smp_stage(target: np.ndarray | None) -> ProcessGenerator:
        # The SMP reduce flows chunk-wise through the shared slots.
        for low in range(0, src_data.shape[0], capacity):
            high = min(low + capacity, src_data.shape[0])
            piece_target = target[low:high] if target is not None else None
            with task.phase(PIPELINE_CHUNK):
                yield from smp_reduce_chunk(
                    state, task, intra_tree, src_data[low:high], op, target=piece_target
                )

    if not state.is_master(task):
        yield from smp_stage(None)
        yield from _fan_out(ctx, state, task, dst_data.view(np.uint8))
        return

    plan = _ring_plan(ctx)
    ring_size = len(plan.node_order)
    node = task.node.index
    my_position = plan.position[node]
    elements = src_data.shape[0]
    if elements < ring_size:
        raise ConfigurationError(
            f"ring allreduce needs >= {ring_size} elements, got {elements}"
        )
    base = elements // ring_size
    starts = [index * base for index in range(ring_size)] + [elements]
    #: Staging sub-chunk capacity in elements.
    capacity_elements = ctx.config.shared_buffer_bytes // dtype.itemsize
    if capacity_elements < 1:
        raise ConfigurationError("staging capacity below one element")

    def segment(buffer: np.ndarray, index: int) -> np.ndarray:
        index %= ring_size
        return buffer[starts[index] : starts[index + 1]]

    def sub_chunks(length: int) -> list[tuple[int, int]]:
        return [
            (low, min(low + capacity_elements, length))
            for low in range(0, length, capacity_elements)
        ]

    # Stage 1: node partial straight into my destination buffer.
    yield from smp_stage(dst_data)

    if ring_size > 1:
        # Register my buffers with my writer (the left neighbour).
        plan.registry[node] = dst
        left = plan.node_order[(my_position - 1) % ring_size]
        right = plan.node_order[(my_position + 1) % ring_size]
        with task.phase(BLOCK_REGISTER):
            yield from task.lapi.put(
                plan.masters[left], _SIGNAL, _SIGNAL, target_counter=plan.addr_arrival[left]
            )
            yield from task.lapi.waitcntr(plan.addr_arrival[node], 1)
        right_master = plan.masters[right]
        right_staging = plan.staging[right]
        right_dst = plan.registry[right].reshape(-1)

        # Stage 2: ring reduce-scatter. At step s I send segment (pos - s)
        # and combine inbound segment (pos - s - 1); segments larger than
        # the staging capacity flow as sub-chunks through the two slots.
        # Sends and combines are interleaved 1:1 — sending a whole segment
        # first would exhaust the two credits ring-wide and deadlock — and
        # arrival signals are FIFO-chained per channel (a small trailing
        # chunk must not overtake a large one still in flight).
        left_master = plan.masters[left]
        rs_signal_chain = None
        for step in range(ring_size - 1):
            with task.phase(RING_STEP):
                outgoing = segment(dst_data, my_position - step)
                incoming = segment(dst_data, my_position - step - 1)
                pieces_out = sub_chunks(outgoing.shape[0])
                pieces_in = sub_chunks(incoming.shape[0])
                for index in range(max(len(pieces_out), len(pieces_in))):
                    if index < len(pieces_out):
                        low, high = pieces_out[index]
                        slot = plan.rs_sent[node] % 2
                        plan.rs_sent[node] += 1
                        yield from task.lapi.waitcntr(plan.rs_free[node], 1)
                        piece = outgoing[low:high]
                        issue_ts = task.engine.now
                        delivery = yield from task.lapi.put(
                            right_master,
                            right_staging[slot][: piece.nbytes].view(dtype),
                            piece,
                        )
                        signal = task.engine.event(name=f"ringrs:{node}")
                        task.engine.process(
                            _ring_signal(
                                delivery, rs_signal_chain, plan.rs_arrival[right], signal,
                                flow=_signal_flow(task, issue_ts, right_master),
                            ),
                            name=f"ringrs-signal:{node}",
                        )
                        rs_signal_chain = signal
                    if index < len(pieces_in):
                        low, high = pieces_in[index]
                        my_slot = plan.rs_combined[node] % 2
                        plan.rs_combined[node] += 1
                        yield from task.lapi.waitcntr(plan.rs_arrival[node], 1)
                        piece = incoming[low:high]
                        yield from task.reduce_into(
                            piece, plan.staging[node][my_slot][: piece.nbytes].view(dtype), op
                        )
                        # Refill my writer's credit for the drained slot.
                        yield from task.lapi.put(
                            left_master, _SIGNAL, _SIGNAL, target_counter=plan.rs_free[left]
                        )

        # Stage 3: ring allgather of the reduced segments (direct puts into
        # the right neighbour's destination; FIFO-chained signals because
        # trailing segments can be smaller).
        deliveries = []
        previous_signal = None
        for step in range(ring_size - 1):
            with task.phase(RING_STEP):
                source_index = my_position + 1 - step
                issue_ts = task.engine.now
                delivery = yield from task.lapi.put(
                    right_master,
                    segment(right_dst, source_index),
                    segment(dst_data, source_index),
                )
                deliveries.append(delivery)
                signal = task.engine.event(name=f"ringag:{node}:{step}")
                task.engine.process(
                    _ring_signal(
                        delivery, previous_signal, plan.ag_arrival[right], signal,
                        flow=_signal_flow(task, issue_ts, right_master),
                    ),
                    name=f"ringag-signal:{node}",
                )
                previous_signal = signal
                yield from task.lapi.waitcntr(plan.ag_arrival[node], 1)
        with task.phase(STREAM_JOIN):
            for delivery in deliveries:
                yield delivery

    # Stage 4: local fan-out of the complete result.
    yield from _fan_out(ctx, state, task, dst_data.view(np.uint8))