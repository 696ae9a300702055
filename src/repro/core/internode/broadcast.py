"""The integrated SRM broadcast (paper §2.4, Fig. 4).

Two protocols, switching at :attr:`SRMConfig.small_protocol_max` (64 KB):

**Small** (Fig. 4, left): data travels through each node's two shared-memory
buffers.  Per chunk, a representative (node master; the root on its own
node):

1. waits for its parent's put to land in shared buffer ``slot`` (LAPI
   arrival counter) — the root instead sources from its user buffer;
2. relays the chunk down its inter-node subtree with non-blocking puts,
   each gated by that child's *buffer-free* counter (``LAPI_Waitcntr`` on
   the counter rather than spinning on a flag, §2.4);
3. fans out locally: the root fills the shared buffer (Fig. 3), a non-root
   master just sets the READY flags — the data is already in shared memory,
   "avoiding unnecessary data copies";
4. copies its own chunk out, and a helper acknowledges the drained buffer
   to the parent with a zero-byte put (step 3 of Fig. 4).

Messages above :attr:`SRMConfig.pipeline_min` are chunked so the two buffers
pipeline; interrupts are disabled for the duration (§2.3) because every wait
is a polling LAPI call.

**Large** (Fig. 4, right): no intermediate network buffers.  Each non-root
master registers its user buffer with its parent (the address-exchange put,
stage 1), parents stream chunks straight into the registered user buffers
under a bounded put window, and each node pipelines the arrived chunks
through its shared buffers for the local fan-out (stages 2–4).
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.config import SRMConfig
from repro.core.context import BcastPlan, InvocationState, NodeState, SRMContext
from repro.core.smp.broadcast import announce_slot, drain_slot, fill_slot, smp_broadcast_chunk
from repro.obs.taxonomy import PIPELINE_CHUNK, STREAM_JOIN
from repro.sim.events import Event
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task

__all__ = ["reserve_broadcast", "broadcast_body", "in_order_signal"]

#: Zero-byte put payload used for pure counter signals.
_SIGNAL = np.zeros(0, dtype=np.uint8)


def _bytes(buffer: np.ndarray) -> np.ndarray:
    return buffer.reshape(-1).view(np.uint8)


def reserve_broadcast(
    plan: BcastPlan,
    state: NodeState,
    task: "Task",
    chunks: list[tuple[int, int]],
    large: bool,
) -> InvocationState:
    """Claim this invocation's sequence windows at this rank (at start)."""
    invocation = InvocationState(op="broadcast", root=plan.root)
    me = state.index_of(task)
    if large and plan.trees.is_representative(task.rank):
        # Representatives in the large protocol advance the SMP cursor only
        # on multi-task nodes (the fill loop is skipped otherwise) and own a
        # window of streamed-chunk thresholds at their node.
        if state.size > 1:
            invocation.bcast_base = state.reserve_bcast(me, len(chunks))
        invocation.stream_base = plan.reserve_stream(task.node.index, len(chunks))
    else:
        invocation.bcast_base = state.reserve_bcast(me, len(chunks))
    return invocation


def broadcast_body(
    ctx: SRMContext,
    plan: BcastPlan,
    state: NodeState,
    task: "Task",
    buffer: np.ndarray,
    chunks: list[tuple[int, int]],
    large: bool,
    manage: bool,
    invocation: InvocationState,
) -> ProcessGenerator:
    """The broadcast proper, over a pre-reserved invocation window."""
    if manage:
        task.lapi.set_interrupts(False)
    try:
        if large:
            yield from _broadcast_large(ctx, plan, state, task, buffer, chunks, invocation)
        else:
            yield from _broadcast_small(ctx, plan, state, task, buffer, chunks, invocation)
    finally:
        if manage:
            task.lapi.set_interrupts(True)


# ---------------------------------------------------------------------------
# small protocol
# ---------------------------------------------------------------------------


def _broadcast_small(
    ctx: SRMContext,
    plan: BcastPlan,
    state: NodeState,
    task: "Task",
    buffer: np.ndarray,
    chunks: list[tuple[int, int]],
    invocation: InvocationState,
) -> ProcessGenerator:
    data = _bytes(buffer)
    if not plan.trees.is_representative(task.rank):
        for index, (offset, size) in enumerate(chunks):
            with task.phase(PIPELINE_CHUNK):
                yield from smp_broadcast_chunk(
                    state,
                    task,
                    is_source=False,
                    src_chunk=None,
                    dst_chunk=data[offset : offset + size],
                    sequence=invocation.bcast_base + index,
                )
        return

    spec = task.spec
    is_root = task.rank == plan.root
    children = plan.inter_children(task.rank)
    parent = plan.inter_parent(task.rank)
    edge = plan.edges.get(task.node.index)

    for index, (offset, size) in enumerate(chunks):
        with task.phase(PIPELINE_CHUNK):
            view = data[offset : offset + size]
            sequence = invocation.bcast_base + index
            slot = sequence % 2

            if is_root:
                relay_source = view
            else:
                assert edge is not None
                # Step: wait for the parent's put to land in my shared buffer.
                yield from task.lapi.waitcntr(edge.arrival[slot], 1)
                relay_source = state.bcast_buf.data(slot, size)

            # Fig. 4 order: send down the tree first, then the local fan-out.
            for child_rank in children:
                child_node = spec.node_of(child_rank)
                child_edge = plan.edges[child_node]
                child_state = ctx.nodes[child_node]
                yield from task.lapi.waitcntr(child_edge.free[slot], 1)
                yield from task.lapi.put(
                    child_rank,
                    child_state.bcast_buf.data(slot, size),
                    relay_source,
                    target_counter=child_edge.arrival[slot],
                )

            if state.size > 1:
                if is_root:
                    yield from fill_slot(state, task, slot, view)
                else:
                    yield from announce_slot(state, task, slot)
            if not is_root:
                yield from task.copy(view, state.bcast_buf.data(slot, size))
                assert parent is not None and edge is not None
                _spawn_free_ack(state, task, slot, parent, edge.free[slot])


def _spawn_free_ack(state: NodeState, task: "Task", slot: int, parent_rank: int, free_counter) -> None:
    """Once the locals drain buffer ``slot``, zero-byte-put the parent's
    free counter (Fig. 4 step 3) — off the critical path of this master."""

    def helper() -> ProcessGenerator:
        if state.size > 1:
            yield from state.bcast_buf.flags(slot).wait_all(
                task, lambda v: v == 0, skip=state.index_of(task)
            )
        yield from task.lapi.put(parent_rank, _SIGNAL, _SIGNAL, target_counter=free_counter)

    task.engine.process(helper(), name=f"bcast-ack[{task.rank}]s{slot}")


# ---------------------------------------------------------------------------
# large protocol
# ---------------------------------------------------------------------------


def _broadcast_large(
    ctx: SRMContext,
    plan: BcastPlan,
    state: NodeState,
    task: "Task",
    buffer: np.ndarray,
    chunks: list[tuple[int, int]],
    invocation: InvocationState,
    root_chunk_ready: list[Event] | None = None,
) -> ProcessGenerator:
    """The Fig. 4 (right) streamed protocol.

    ``root_chunk_ready`` (used by the pipelined allreduce, Fig. 5): per-chunk
    events the root's streaming and local fan-out must wait for.
    """
    data = _bytes(buffer)
    if not plan.trees.is_representative(task.rank):
        for index, (offset, size) in enumerate(chunks):
            with task.phase(PIPELINE_CHUNK):
                yield from smp_broadcast_chunk(
                    state,
                    task,
                    is_source=False,
                    src_chunk=None,
                    dst_chunk=data[offset : offset + size],
                    sequence=invocation.bcast_base + index,
                )
        return

    is_root = task.rank == plan.root
    children = plan.inter_children(task.rank)
    parent = plan.inter_parent(task.rank)
    my_node = task.node.index
    arrival = plan.stream_arrival.get(my_node)
    base = invocation.stream_base

    # Stage 1: register the user buffer and signal the parent (the
    # address-exchange put).
    plan.user_buffers[my_node] = buffer
    if parent is not None:
        yield from task.lapi.put(
            parent, _SIGNAL, _SIGNAL, target_counter=plan.address_arrival[my_node]
        )

    forwarders = [
        task.engine.process(
            _stream_to_child(
                ctx, plan, task, child_rank, data, chunks, arrival, base, root_chunk_ready
            ),
            name=f"bcast-stream[{task.rank}->{child_rank}]",
        )
        for child_rank in children
    ]

    # Stages 3/4: pipeline arrived chunks through the node's shared buffers.
    if state.size > 1:
        for index, (offset, size) in enumerate(chunks):
            with task.phase(PIPELINE_CHUNK):
                if arrival is not None:
                    yield from task.lapi.watch(arrival, base + index + 1)
                elif root_chunk_ready is not None:
                    yield root_chunk_ready[index]
                sequence = invocation.bcast_base + index
                yield from fill_slot(state, task, sequence % 2, data[offset : offset + size])
    elif arrival is not None:
        yield from task.lapi.watch(arrival, base + len(chunks))

    if forwarders:
        with task.phase(STREAM_JOIN):
            for forwarder in forwarders:
                yield forwarder


def _stream_to_child(
    ctx: SRMContext,
    plan: BcastPlan,
    task: "Task",
    child_rank: int,
    data: np.ndarray,
    chunks: list[tuple[int, int]],
    my_arrival,
    my_base: int,
    root_chunk_ready: list[Event] | None,
) -> ProcessGenerator:
    """Stage 2: stream chunks into the child's registered user buffer."""
    child_node = task.spec.node_of(child_rank)
    yield from task.lapi.waitcntr(plan.address_arrival[child_node], 1)
    child_data = _bytes(plan.user_buffers[child_node])
    child_arrival = plan.stream_arrival[child_node]
    window_depth = task.obs.put_window_depth
    window: list = []
    previous_signal: Event | None = None
    for index, (offset, size) in enumerate(chunks):
        with task.phase(PIPELINE_CHUNK):
            if my_arrival is not None:
                yield from task.lapi.watch(my_arrival, my_base + index + 1)
            elif root_chunk_ready is not None:
                yield root_chunk_ready[index]
            if len(window) >= ctx.config.put_window:
                yield window.pop(0)
                window_depth.observe(len(window))
            delivery = yield from task.lapi.put(
                child_rank,
                child_data[offset : offset + size],
                data[offset : offset + size],
            )
            window.append(delivery)
            window_depth.observe(len(window))
            # The SP switch delivers puts on one route in FIFO order; the
            # fluid contention model can complete a small trailing chunk
            # "first", so the cumulative arrival counter is bumped strictly
            # in chunk order: each chunk's signal waits for its delivery AND
            # its predecessor.
            signal = Event(task.engine, name=f"fifo:{child_rank}:{index}")
            task.engine.process(
                in_order_signal(delivery, previous_signal, child_arrival, signal),
                name=f"fifo-signal->{child_rank}",
            )
            previous_signal = signal
    for delivery in window:
        yield delivery
    window_depth.observe(0)


def in_order_signal(
    delivery, previous_signal: Event | None, counter, signal: Event, flow=None
) -> ProcessGenerator:
    """Bump ``counter`` once ``delivery`` landed *and* the previous signal
    on the same route fired, then fire ``signal``.

    The SP switch delivers one route's puts in FIFO order, but the fluid
    network model can land a later, smaller put first; chaining the
    signals restores send order.  ``flow`` (optional) records the causal
    link at increment time (see :func:`repro.core.internode.ring.ring_signal_flow`).
    """
    yield delivery
    if previous_signal is not None and not previous_signal.processed:
        yield previous_signal
    counter.increment()
    if flow is not None:
        flow()
    signal.succeed()
