"""RMA-native gather / scatter / allgather (extension operations).

The paper implements the "common set" — barrier, broadcast, reduce,
allreduce — but its substrate invites the block-data collectives too, and a
release of this system would ship them.  They are built the way the
ARMCI/Global-Arrays line of work (the authors' own software) built them:
**directly on one-sided puts**, with no packing trees:

* **scatter** — every member registers its receive buffer with the root
  (one zero-byte address-exchange put each); the root then puts block *i*
  straight into member *i*'s buffer.  Intra-node puts short-circuit through
  the memory bus, so the SMP domain is exploited without a separate
  protocol.
* **gather** — the root announces its receive window by broadcasting a
  zero-byte epoch token down the (log-depth) SRM broadcast tree; every
  member then puts its block into the root's buffer at its own offset and
  the root waits for the arrival counter to reach ``group size - 1``.
* **allgather** — two regimes, like the paper's own operations: below
  :attr:`SRMConfig.allgather_ring_min` total bytes, gather-to-root composed
  with an SRM broadcast (latency-optimal, ~2 log k network rounds); above
  it, a **hierarchical ring**: members put blocks into their master's
  result buffer through the memory bus, the k masters circulate
  node-segments around a ring of puts (each byte crosses the network k−1
  times in perfect parallel — bandwidth-optimal, like MPI's ring, but at
  node granularity with log-free shared-memory ends), and the full result
  fans out locally through the Fig. 3 double buffers.

Block layout follows MPI: member *j*'s block occupies
``[position_j * block, (position_j + 1) * block)`` where ``position_j`` is
the member's index in the group's sorted member list.

Each operation enters as an inline request (:mod:`repro.core.requests`):
``prepare_*`` validates and dispatches at start, and the body runs after
the chain gate, with its sub-collectives reserved through
:func:`~repro.core.requests.run_nested`.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.context import SRMContext
from repro.core.internode.broadcast import in_order_signal
from repro.core.internode.ring import ring_signal_flow
from repro.core.requests import (
    Prepared,
    prepare_barrier,
    prepare_broadcast,
    run_nested,
    unreserved,
)
from repro.core.smp.broadcast import fan_out_offsets, smp_fan_out
from repro.errors import ConfigurationError
from repro.lapi.counters import LapiCounter
from repro.machine.memops import require_contiguous
from repro.obs.taxonomy import BLOCK_REGISTER, BLOCK_TRANSFER, RING_STEP, STREAM_JOIN
from repro.shmem.buffers import FILL
from repro.shmem.flags import SharedFlag
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task

__all__ = [
    "prepare_scatter",
    "prepare_gather",
    "prepare_allgather",
    "prepare_alltoall",
    "BlockPlan",
    "AllgatherPlan",
]

_SIGNAL = np.zeros(0, dtype=np.uint8)


def _bytes(buffer: np.ndarray) -> np.ndarray:
    return buffer.reshape(-1).view(np.uint8)


class BlockPlan:
    """Per-root counters and the per-call buffer registry for block ops."""

    def __init__(self, ctx: SRMContext, root: int) -> None:
        root_lapi = ctx.tasks[root].lapi
        #: Scatter: each member's arrival counter (one block expected).
        self.scatter_arrival: dict[int, LapiCounter] = {
            rank: ctx.tasks[rank].lapi.counter(name=f"scat:{rank}")
            for rank in ctx.members
            if rank != root
        }
        #: Scatter: registrations landed at the root.
        self.address_arrival = root_lapi.counter(name=f"scat-addr:{root}")
        #: Gather: blocks landed at the root.
        self.gather_arrival = root_lapi.counter(name=f"gath:{root}")
        #: Per-call registries (serialized by collective semantics).
        self.member_buffers: dict[int, np.ndarray] = {}
        self.root_buffer: np.ndarray | None = None
        #: Gather epoch token carried by the window-open broadcast.
        self.epoch = np.zeros(1, dtype=np.uint8)


def _positions(ctx: SRMContext) -> dict[int, int]:
    return {rank: index for index, rank in enumerate(ctx.members)}


def prepare_scatter(
    ctx: SRMContext,
    task: "Task",
    sendbuf: np.ndarray | None,
    recvbuf: np.ndarray,
    root: int = 0,
) -> Prepared:
    """Scatter ``sendbuf`` blocks from ``root`` into every member's ``recvbuf``."""
    ctx.validate("scatter", recvbuf.nbytes, task.rank, root=root)
    # The send buffer is read at the root only, the receive buffer everywhere.
    require_contiguous(
        "scatter", sendbuf=sendbuf if task.rank == root else None, recvbuf=recvbuf
    )
    decision = ctx.dispatch("scatter", recvbuf.nbytes, task)
    plan = ctx.plan(BlockPlan, root)
    if task.rank == root:
        if sendbuf is None:
            raise ConfigurationError("the scatter root needs a send buffer")
        if sendbuf.nbytes != recvbuf.nbytes * len(ctx.members):
            raise ConfigurationError(
                f"scatter send buffer is {sendbuf.nbytes} B; "
                f"expected {len(ctx.members)} blocks of {recvbuf.nbytes} B"
            )
    return (
        decision,
        unreserved("scatter", root),
        lambda _invocation: _scatter(ctx, plan, task, sendbuf, recvbuf, root),
    )


def _scatter(
    ctx: SRMContext,
    plan: BlockPlan,
    task: "Task",
    sendbuf: np.ndarray | None,
    recvbuf: np.ndarray,
    root: int,
) -> ProcessGenerator:
    members = ctx.members
    block = recvbuf.nbytes

    if task.rank != root:
        # Register my buffer, then wait for the root's put to land.
        plan.member_buffers[task.rank] = recvbuf
        with task.phase(BLOCK_REGISTER):
            yield from task.lapi.put(root, _SIGNAL, _SIGNAL, target_counter=plan.address_arrival)
        with task.phase(BLOCK_TRANSFER):
            yield from task.lapi.waitcntr(plan.scatter_arrival[task.rank], 1)
        return

    assert sendbuf is not None
    data = _bytes(sendbuf)
    positions = _positions(ctx)
    # Wait for every member's registration, then stream the blocks.
    if len(members) > 1:
        with task.phase(BLOCK_REGISTER):
            yield from task.lapi.waitcntr(plan.address_arrival, len(members) - 1)
    with task.phase(BLOCK_TRANSFER):
        deliveries = []
        for rank in members:
            view = data[positions[rank] * block : (positions[rank] + 1) * block]
            if rank == root:
                yield from task.copy(_bytes(recvbuf), view)
                continue
            delivery = yield from task.lapi.put(
                rank,
                _bytes(plan.member_buffers[rank]),
                view,
                target_counter=plan.scatter_arrival[rank],
            )
            deliveries.append(delivery)
        for delivery in deliveries:
            yield delivery


def prepare_gather(
    ctx: SRMContext,
    task: "Task",
    sendbuf: np.ndarray,
    recvbuf: np.ndarray | None,
    root: int = 0,
) -> Prepared:
    """Gather every member's ``sendbuf`` block into ``root``'s ``recvbuf``."""
    ctx.validate("gather", sendbuf.nbytes, task.rank, root=root)
    # The receive buffer is written at the root only.
    require_contiguous(
        "gather", sendbuf=sendbuf, recvbuf=recvbuf if task.rank == root else None
    )
    decision = ctx.dispatch("gather", sendbuf.nbytes, task)
    plan = ctx.plan(BlockPlan, root)
    if task.rank == root:
        if recvbuf is None:
            raise ConfigurationError("the gather root needs a receive buffer")
        if recvbuf.nbytes != sendbuf.nbytes * len(ctx.members):
            raise ConfigurationError(
                f"gather receive buffer is {recvbuf.nbytes} B; "
                f"expected {len(ctx.members)} blocks of {sendbuf.nbytes} B"
            )
    return (
        decision,
        unreserved("gather", root),
        lambda _invocation: _gather(ctx, plan, task, sendbuf, recvbuf, root),
    )


def _gather(
    ctx: SRMContext,
    plan: BlockPlan,
    task: "Task",
    sendbuf: np.ndarray,
    recvbuf: np.ndarray | None,
    root: int,
) -> ProcessGenerator:
    members = ctx.members
    block = sendbuf.nbytes
    positions = _positions(ctx)

    if task.rank == root:
        plan.root_buffer = recvbuf
    # Window-open epoch rides the SRM broadcast tree (log depth).
    with task.phase(BLOCK_REGISTER):
        yield from run_nested(prepare_broadcast(ctx, task, plan.epoch, root))

    data = _bytes(plan.root_buffer)  # type: ignore[arg-type]
    my_slice = data[positions[task.rank] * block : (positions[task.rank] + 1) * block]
    with task.phase(BLOCK_TRANSFER):
        if task.rank == root:
            yield from task.copy(my_slice, _bytes(sendbuf))
            if len(members) > 1:
                yield from task.lapi.waitcntr(plan.gather_arrival, len(members) - 1)
            return
        yield from task.lapi.put(
            root, my_slice, _bytes(sendbuf), target_counter=plan.gather_arrival
        )


def prepare_allgather(
    ctx: SRMContext,
    task: "Task",
    sendbuf: np.ndarray,
    recvbuf: np.ndarray,
) -> Prepared:
    """Every member's block, concatenated, delivered to every member."""
    ctx.validate("allgather", recvbuf.nbytes, task.rank)
    require_contiguous("allgather", sendbuf=sendbuf, recvbuf=recvbuf)
    if recvbuf.nbytes != sendbuf.nbytes * len(ctx.members):
        raise ConfigurationError(
            f"allgather receive buffer is {recvbuf.nbytes} B; expected "
            f"{len(ctx.members)} blocks of {sendbuf.nbytes} B"
        )
    decision = ctx.dispatch("allgather", recvbuf.nbytes, task)

    def body(_invocation) -> ProcessGenerator:
        if decision.variant == "ring":
            yield from _allgather_ring(ctx, task, sendbuf, recvbuf)
            return
        root = ctx.group_root
        mine = recvbuf if task.rank == root else None
        yield from run_nested(prepare_gather(ctx, task, sendbuf, mine, root))
        yield from run_nested(prepare_broadcast(ctx, task, recvbuf, root))

    return decision, unreserved("allgather"), body


class AlltoallPlan:
    """Registry + per-member arrival counters for the all-to-all exchange."""

    def __init__(self, ctx: SRMContext) -> None:
        self.arrival: dict[int, LapiCounter] = {
            rank: ctx.tasks[rank].lapi.counter(name=f"a2a:{rank}")
            for rank in ctx.members
        }
        self.registry: dict[int, np.ndarray] = {}


def prepare_alltoall(
    ctx: SRMContext,
    task: "Task",
    sendbuf: np.ndarray,
    recvbuf: np.ndarray,
) -> Prepared:
    """Personalized exchange: my block *j* lands in member *j*'s buffer at
    my position.

    RMA-native: after a window-opening barrier (every member has registered
    its receive buffer), each member issues ``size - 1`` direct puts — every
    block crosses the network exactly once, all transfers in parallel — and
    waits for its own ``size - 1`` arrivals.
    """
    ctx.validate("alltoall", sendbuf.nbytes, task.rank)
    require_contiguous("alltoall", sendbuf=sendbuf, recvbuf=recvbuf)
    decision = ctx.dispatch("alltoall", sendbuf.nbytes, task)
    size = len(ctx.members)
    if sendbuf.nbytes != recvbuf.nbytes or sendbuf.nbytes % size:
        raise ConfigurationError(
            f"alltoall buffers must both hold {size} equal blocks "
            f"(got send={sendbuf.nbytes} B, recv={recvbuf.nbytes} B)"
        )
    plan = ctx.plan(AlltoallPlan)
    return (
        decision,
        unreserved("alltoall"),
        lambda _invocation: _alltoall(ctx, plan, task, sendbuf, recvbuf),
    )


def _alltoall(
    ctx: SRMContext,
    plan: AlltoallPlan,
    task: "Task",
    sendbuf: np.ndarray,
    recvbuf: np.ndarray,
) -> ProcessGenerator:
    members = ctx.members
    size = len(members)
    block = sendbuf.nbytes // size
    positions = _positions(ctx)
    my_position = positions[task.rank]
    send_data = _bytes(sendbuf)
    recv_data = _bytes(recvbuf)

    # Window open: the barrier doubles as the registration epoch — after it,
    # every member's buffer reference is current for this call.
    plan.registry[task.rank] = recvbuf
    with task.phase(BLOCK_REGISTER):
        yield from run_nested(prepare_barrier(ctx, task))

    with task.phase(BLOCK_TRANSFER):
        # My own block moves locally.
        yield from task.copy(
            recv_data[my_position * block : (my_position + 1) * block],
            send_data[my_position * block : (my_position + 1) * block],
        )
        deliveries = []
        for offset in range(1, size):
            # Rotated order spreads instantaneous load across targets.
            peer_position = (my_position + offset) % size
            peer = members[peer_position]
            peer_buffer = _bytes(plan.registry[peer])
            delivery = yield from task.lapi.put(
                peer,
                peer_buffer[my_position * block : (my_position + 1) * block],
                send_data[peer_position * block : (peer_position + 1) * block],
                target_counter=plan.arrival[peer],
            )
            deliveries.append(delivery)
        if size > 1:
            yield from task.lapi.waitcntr(plan.arrival[task.rank], size - 1)
        for delivery in deliveries:
            yield delivery


# ---------------------------------------------------------------------------
# hierarchical ring allgather (large results)
# ---------------------------------------------------------------------------


class AllgatherPlan:
    """Counters, registries, and segment geometry for the master ring."""

    def __init__(self, ctx: SRMContext) -> None:
        #: Segment geometry: members are sorted, so one node's members form a
        #: contiguous range of positions in the group member list.
        positions = {rank: index for index, rank in enumerate(ctx.members)}
        self.segment: dict[int, tuple[int, int]] = {}
        for node in ctx.node_order:
            state = ctx.nodes[node]
            first = positions[state.members[0]]
            self.segment[node] = (first, len(state.members))
        self.ring_arrival: dict[int, LapiCounter] = {}
        self.addr_arrival: dict[int, LapiCounter] = {}
        self.member_arrival: dict[int, LapiCounter] = {}
        self.epoch_flag: dict[int, SharedFlag] = {}
        for node in ctx.node_order:
            master_lapi = ctx.tasks[ctx.masters[node]].lapi
            self.ring_arrival[node] = master_lapi.counter(name=f"agring:{node}")
            self.addr_arrival[node] = master_lapi.counter(name=f"agaddr:{node}")
            self.member_arrival[node] = master_lapi.counter(name=f"agmem:{node}")
            self.epoch_flag[node] = SharedFlag(ctx.nodes[node].node, name=f"agepoch[{node}]")
        #: Per-call registry of each node's master result buffer.
        self.registry: dict[int, np.ndarray] = {}


def _allgather_ring(
    ctx: SRMContext,
    task: "Task",
    sendbuf: np.ndarray,
    recvbuf: np.ndarray,
) -> ProcessGenerator:
    plan = ctx.plan(AllgatherPlan)
    state = ctx.node_state(task)
    # Claim the local fan-out's sequences and this call's epoch now: the
    # body runs after the chain gate, so this rank's earlier requests hold
    # theirs already.
    fan_out_base, _ = state.bcast_buf.reserve(
        ctx.ledger, ("bcast", task.rank), len(fan_out_offsets(state, recvbuf.nbytes)), FILL
    )
    epoch = ctx.ledger.reserve(("allgather", task.rank), 1) + 1
    node = task.node.index
    block = sendbuf.nbytes
    ring_size = len(ctx.node_order)
    my_position = ctx.node_position[node]
    data = _bytes(recvbuf)
    member_positions = {rank: index for index, rank in enumerate(ctx.members)}
    my_slice = slice(
        member_positions[task.rank] * block, (member_positions[task.rank] + 1) * block
    )

    def segment_view(buffer: np.ndarray, segment_node: int) -> np.ndarray:
        first, count = plan.segment[segment_node]
        return buffer[first * block : (first + count) * block]

    if not state.is_master(task):
        # Wait for this call's window, put my block into the master's
        # result buffer (an intra-node put: one bus copy), then join the
        # local fan-out of the completed result.
        with task.phase(BLOCK_REGISTER):
            yield from plan.epoch_flag[node].wait_for(task, lambda v: v >= epoch)
        with task.phase(BLOCK_TRANSFER):
            yield from task.lapi.put(
                ctx.masters[node],
                _bytes(plan.registry[node])[my_slice],
                _bytes(sendbuf),
                target_counter=plan.member_arrival[node],
            )
        yield from smp_fan_out(state, task, data, fan_out_base)
        return

    # Master: open the window, register with my writer (the left neighbour
    # puts into my buffer), and contribute my own block.
    plan.registry[node] = recvbuf
    left = ctx.node_order[(my_position - 1) % ring_size]
    with task.phase(BLOCK_REGISTER):
        yield from task.lapi.put(
            ctx.masters[left], _SIGNAL, _SIGNAL, target_counter=plan.addr_arrival[left]
        )
        yield from plan.epoch_flag[node].set(task, epoch)
    with task.phase(BLOCK_TRANSFER):
        yield from task.copy(data[my_slice], _bytes(sendbuf))
        if state.size > 1:
            yield from task.lapi.waitcntr(plan.member_arrival[node], state.size - 1)

    # Ring: at step s, forward the segment that originated s hops back.
    with task.phase(BLOCK_REGISTER):
        yield from task.lapi.waitcntr(plan.addr_arrival[node], 1)
    right = ctx.node_order[(my_position + 1) % ring_size]
    right_buffer = _bytes(plan.registry[right])
    right_master = ctx.masters[right]
    deliveries = []
    previous_signal = None
    for step in range(ring_size - 1):
        with task.phase(RING_STEP):
            source_node = ctx.node_order[(my_position - step) % ring_size]
            issue_ts = task.engine.now
            delivery = yield from task.lapi.put(
                right_master,
                segment_view(right_buffer, source_node),
                segment_view(data, source_node),
            )
            deliveries.append(delivery)
            # Node segments differ in size, so the fluid network model can land
            # a later (smaller) segment first; bump the right neighbour's
            # counter strictly in send order, as the FIFO switch route would.
            signal = task.engine.event(name=f"ag-fifo:{node}:{step}")
            task.engine.process(
                in_order_signal(
                    delivery, previous_signal, plan.ring_arrival[right], signal,
                    flow=ring_signal_flow(task, issue_ts, right_master),
                ),
                name=f"ag-signal:{node}->{right}",
            )
            previous_signal = signal
            # My inbound segment for this step must land before I can forward
            # it next step (and before the result is complete).
            yield from task.lapi.waitcntr(plan.ring_arrival[node], 1)
    with task.phase(STREAM_JOIN):
        for delivery in deliveries:
            yield delivery
    yield from smp_fan_out(state, task, data, fan_out_base)
