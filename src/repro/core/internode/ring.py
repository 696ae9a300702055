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

It uses reserved sequences only: ``reserve_allreduce`` claims the SMP-reduce
pieces (:func:`smp_pieces`), the fan-out and, at each master, the
reduce-scatter staging slots (:func:`staging_pieces`) at start.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.context import InvocationState, SRMContext
from repro.core.internode.broadcast import in_order_signal
from repro.core.smp.broadcast import smp_fan_out
from repro.core.smp.reduce import smp_reduce_chunk
from repro.errors import ConfigurationError
from repro.lapi.counters import LapiCounter
from repro.obs.taxonomy import (
    BLOCK_REGISTER,
    FLOW_RING_SIGNAL,
    PIPELINE_CHUNK,
    RING_STEP,
    STREAM_JOIN,
)
from repro.shmem.segment import SharedSegment
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task
    from repro.mpi.ops import ReduceOp

__all__ = [
    "srm_allreduce_ring",
    "smp_pieces",
    "staging_pieces",
    "ring_signal_flow",
    "RingAllreducePlan",
]

_SIGNAL = np.zeros(0, dtype=np.uint8)


class RingAllreducePlan:
    """Per-context counters and staging for the hierarchical ring."""

    def __init__(self, ctx: SRMContext) -> None:
        capacity = ctx.config.shared_buffer_bytes
        self.staging: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.rs_arrival: dict[int, LapiCounter] = {}
        #: Outgoing-channel credits: my right's two staging slots (consumed
        #: before each reduce-scatter put, refilled by the right's ack after
        #: it combines — masters can drift up to k-1 steps apart otherwise).
        self.rs_free: dict[int, LapiCounter] = {}
        self.ag_arrival: dict[int, LapiCounter] = {}
        self.addr_arrival: dict[int, LapiCounter] = {}
        for node in ctx.node_order:
            master_lapi = ctx.tasks[ctx.masters[node]].lapi
            segment = SharedSegment(ctx.nodes[node].node, 2 * capacity + 128, name=f"ringar[{node}]")
            self.staging[node] = (segment.allocate(capacity), segment.allocate(capacity))
            self.rs_arrival[node] = master_lapi.counter(name=f"ringrs:{node}")
            self.rs_free[node] = master_lapi.counter(initial=2, name=f"ringfree:{node}")
            self.ag_arrival[node] = master_lapi.counter(name=f"ringag:{node}")
            self.addr_arrival[node] = master_lapi.counter(name=f"ringaddr:{node}")
        self.registry: dict[int, np.ndarray] = {}


def smp_pieces(ctx: SRMContext, src: np.ndarray) -> range:
    """Element offsets of the SMP-reduce pieces, one shared slot each.

    The one source of the piece count ``reserve_allreduce`` claims and of
    the SMP stage's chunking; the step is also the staging sub-chunk size.
    """
    capacity = ctx.config.shared_buffer_bytes // src.dtype.itemsize
    if capacity < 1:
        raise ConfigurationError("staging capacity below one element")
    return range(0, src.size, capacity)


def _segment_starts(elements: int, ring_size: int) -> list[int]:
    """Element offset of each node segment, plus the end."""
    base = elements // ring_size
    return [index * base for index in range(ring_size)] + [elements]


def staging_pieces(ctx: SRMContext, node: int, src: np.ndarray) -> list[tuple[range, range]]:
    """Per reduce-scatter step of ``node``'s master: the offsets, within the
    outgoing and the incoming segment, of the staging sub-chunks it sends
    right and combines from the left.

    The one source of the staging-slot counts ``reserve_allreduce`` claims
    and of the body's sub-chunking.  A master combines chunks in arrival
    order, so its combined count always equals its left's sent count: both
    ends of a channel agree on every chunk's slot without negotiation.
    """
    ring_size = len(ctx.node_order)
    position = ctx.node_position[node]
    capacity = smp_pieces(ctx, src).step
    starts = _segment_starts(src.size, ring_size)

    def offsets(index: int) -> range:
        index %= ring_size
        return range(0, starts[index + 1] - starts[index], capacity)

    return [
        (offsets(position - step), offsets(position - step - 1))
        for step in range(ring_size - 1)
    ]


def ring_signal_flow(task: "Task", issue_ts: float, dst_rank: int):
    """A callback recording the ``ring-signal`` flow link at increment time.

    FIFO-chained ring signals increment the neighbour's arrival counter from
    a helper process, invisible to the put-level flow links; this records the
    causal edge the wait-state classifier and critical-path walker need —
    issued when the put was injected, delivered when the signal lands.
    Purely passive (an append on the recorder), so simulation timing is
    untouched.
    """
    obs, engine = task.obs, task.engine

    def record() -> None:
        obs.flow(FLOW_RING_SIGNAL, task.rank, issue_ts, dst_rank, engine.now)

    return record


def srm_allreduce_ring(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray,
    op: "ReduceOp",
    invocation: InvocationState,
) -> ProcessGenerator:
    """One rank's part of the hierarchical ring allreduce, over the
    invocation's reserved SMP-reduce, staging and fan-out windows."""
    state = ctx.node_state(task)
    dtype = src.dtype
    src_data = src.reshape(-1)
    dst_data = dst.reshape(-1)
    intra_tree = ctx.reduce_plan(ctx.group_root).trees.intra[task.node.index]
    pieces = smp_pieces(ctx, src)
    capacity = pieces.step
    reduce_base = invocation["reduce", task.rank]
    bcast_base = invocation["bcast", task.rank]

    def smp_stage(target: np.ndarray | None) -> ProcessGenerator:
        # The SMP reduce flows chunk-wise through the shared slots.
        for index, low in enumerate(pieces):
            high = min(low + capacity, src_data.shape[0])
            piece_target = target[low:high] if target is not None else None
            with task.phase(PIPELINE_CHUNK):
                yield from smp_reduce_chunk(
                    state, task, intra_tree, src_data[low:high], op, target=piece_target,
                    sequence=reduce_base + index,
                )

    if not state.is_master(task):
        yield from smp_stage(None)
        yield from smp_fan_out(state, task, dst_data.view(np.uint8), bcast_base)
        return

    plan = ctx.plan(RingAllreducePlan)
    ring_size = len(ctx.node_order)
    node = task.node.index
    my_position = ctx.node_position[node]
    elements = src_data.shape[0]
    if elements < ring_size:
        raise ConfigurationError(
            f"ring allreduce needs >= {ring_size} elements, got {elements}"
        )
    starts = _segment_starts(elements, ring_size)

    def segment(buffer: np.ndarray, index: int) -> np.ndarray:
        index %= ring_size
        return buffer[starts[index] : starts[index + 1]]

    # Stage 1: node partial straight into my destination buffer.
    yield from smp_stage(dst_data)

    if ring_size > 1:
        # Register my buffers with my writer (the left neighbour).
        plan.registry[node] = dst
        left = ctx.node_order[(my_position - 1) % ring_size]
        right = ctx.node_order[(my_position + 1) % ring_size]
        with task.phase(BLOCK_REGISTER):
            yield from task.lapi.put(
                ctx.masters[left], _SIGNAL, _SIGNAL, target_counter=plan.addr_arrival[left]
            )
            yield from task.lapi.waitcntr(plan.addr_arrival[node], 1)
        right_master = ctx.masters[right]
        right_staging = plan.staging[right]
        right_dst = plan.registry[right].reshape(-1)

        # Stage 2: ring reduce-scatter. At step s I send segment (pos - s)
        # and combine inbound segment (pos - s - 1); segments larger than
        # the staging capacity flow as sub-chunks through the two slots.
        # Sends and combines are interleaved 1:1 — sending a whole segment
        # first would exhaust the two credits ring-wide and deadlock — and
        # arrival signals are FIFO-chained per channel (a small trailing
        # chunk must not overtake a large one still in flight).
        left_master = ctx.masters[left]
        rs_signal_chain = None
        sent = invocation["ring-sent", task.rank]
        combined = invocation["ring-combined", task.rank]
        for step, (pieces_out, pieces_in) in enumerate(staging_pieces(ctx, node, src)):
            with task.phase(RING_STEP):
                outgoing = segment(dst_data, my_position - step)
                incoming = segment(dst_data, my_position - step - 1)
                for index in range(max(len(pieces_out), len(pieces_in))):
                    if index < len(pieces_out):
                        low = pieces_out[index]
                        slot = sent % 2
                        sent += 1
                        yield from task.lapi.waitcntr(plan.rs_free[node], 1)
                        piece = outgoing[low : low + capacity]
                        issue_ts = task.engine.now
                        delivery = yield from task.lapi.put(
                            right_master,
                            right_staging[slot][: piece.nbytes].view(dtype),
                            piece,
                        )
                        signal = task.engine.event(name=f"ringrs:{node}")
                        task.engine.process(
                            in_order_signal(
                                delivery, rs_signal_chain, plan.rs_arrival[right], signal,
                                flow=ring_signal_flow(task, issue_ts, right_master),
                            ),
                            name=f"ringrs-signal:{node}",
                        )
                        rs_signal_chain = signal
                    if index < len(pieces_in):
                        low = pieces_in[index]
                        my_slot = combined % 2
                        combined += 1
                        yield from task.lapi.waitcntr(plan.rs_arrival[node], 1)
                        piece = incoming[low : low + capacity]
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
                    in_order_signal(
                        delivery, previous_signal, plan.ag_arrival[right], signal,
                        flow=ring_signal_flow(task, issue_ts, right_master),
                    ),
                    name=f"ringag-signal:{node}",
                )
                previous_signal = signal
                yield from task.lapi.waitcntr(plan.ag_arrival[node], 1)
        with task.phase(STREAM_JOIN):
            for delivery in deliveries:
                yield delivery

    # Stage 4: local fan-out of the complete result.
    yield from smp_fan_out(state, task, dst_data.view(np.uint8), bcast_base)