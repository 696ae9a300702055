"""Persistent SRM state: per-node shared structures and per-root plans.

SRM's performance comes from *reusing* shared-memory buffers, flags, and
LAPI counters across calls (consecutive operations alternate between the two
buffers, §2.2), so this state lives in a context object created once per
machine, not per call:

* :class:`NodeState` — one per SMP node: the broadcast
  :class:`~repro.shmem.buffers.DoubleBuffer`, the per-task reduce slots with
  their sequence flags, and the barrier flag bank.
* Plan objects — cached per root: the SMP embedding (Fig. 1) plus the LAPI
  counters implementing the two-buffer inter-node flow control (Fig. 4).

Sequence bookkeeping: chunk flags hold *cumulative* chunk counts rather than
booleans, so no inter-call reset synchronization is ever needed — every task
executes the same sequence of collective calls, hence agrees on every
sequence number by construction.

With the request layer (:mod:`repro.core.requests`) several invocations of
one plan can be in flight at once, so the per-invocation cursors — broadcast
and reduce chunk sequences, streamed-chunk bases, per-edge send/receive
counts, the exchange call parity — are *reserved* synchronously at
``start()`` into an :class:`InvocationState` instead of being read and
advanced lazily mid-schedule.  Two in-flight invocations therefore never
alias a buffer slot: each owns a disjoint sequence window, and the
cumulative-counter discipline above keeps both sides of every edge in
agreement about slot parity without any extra synchronization.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SRMConfig
from repro.core.dispatch import Decision, Dispatcher, SelectionPolicy
from repro.errors import ConfigurationError
from repro.lapi.counters import LapiCounter
from repro.machine.cluster import Machine, Node
from repro.shmem.buffers import DoubleBuffer
from repro.shmem.flags import FlagArray, SharedFlag
from repro.shmem.segment import SharedSegment
from repro.trees.embedding import EmbeddedTrees, group_embedding

__all__ = [
    "SRMContext",
    "NodeState",
    "InvocationState",
    "BcastPlan",
    "ReducePlan",
    "AllreducePlan",
    "BarrierPlan",
]

_Plan = typing.TypeVar("_Plan")


@dataclass
class InvocationState:
    """The per-invocation mutable cursors of one collective call at one rank.

    Reserved synchronously when the invocation starts (a blocking call, an
    ``i*`` one-shot, or a persistent ``plan.start()``) by the ``reserve_*``
    helpers in :mod:`repro.core.internode`; the protocol bodies then compute
    every slot parity and counter threshold from these bases instead of
    reading and mutating the shared plan/node cursors mid-schedule.  The
    pipelined allreduce carries both its reduce-stage and broadcast-stage
    windows in one instance (the field sets are disjoint).
    """

    op: str
    root: int | None = None
    #: Per-rank invocation number (assigned by the request layer; orders the
    #: rank's requests and names them in deadlock reports).
    sequence: int = 0
    #: First SMP-broadcast chunk sequence of this invocation at this rank.
    bcast_base: int = 0
    #: First SMP-reduce chunk sequence of this invocation at this rank.
    reduce_base: int = 0
    #: Large-protocol broadcast: first streamed-chunk threshold at my node.
    stream_base: int = 0
    #: Reduce: first staging-slot sequence toward my inter-node parent.
    sent_base: int = 0
    #: Reduce: first staging-slot sequence per inter-node child rank.
    recv_base: dict[int, int] = field(default_factory=dict)
    #: Exchange allreduce: this master's call number (slot parity).
    call: int = 0


class NodeState:
    """All shared-memory structures of one node, reused by every operation.

    ``members`` restricts the structures to a task group's local members
    (the §5 arbitrary-task-group extension): flags, slots, and sequence
    counters are sized and indexed by the member list, so tasks outside the
    group never appear in any wait condition.
    """

    def __init__(
        self,
        node: Node,
        config: SRMConfig,
        members: typing.Sequence[int] | None = None,
    ) -> None:
        self.node = node
        self.config = config
        self.members: tuple[int, ...] = (
            tuple(members) if members is not None else tuple(node.ranks)
        )
        if not self.members:
            raise ConfigurationError(f"node {node.index} has no group members")
        self._index = {rank: position for position, rank in enumerate(self.members)}
        size = len(self.members)
        chunk = config.shared_buffer_bytes

        # Broadcast: the Fig. 3 structure — two buffers + per-task READY flags.
        self.bcast_buf = DoubleBuffer(node, chunk, flags_per_buffer=size, name=f"bcast[{node.index}]")
        #: Per-task count of chunks pushed through the broadcast buffers.
        self.bcast_seq = [0] * size

        # Reduce: two chunk slots per task + cumulative ready/consumed flags.
        segment = SharedSegment(node, (2 * size + 4) * chunk + 64 * (size + 8), name=f"reduce[{node.index}]")
        self.reduce_slots: list[tuple[np.ndarray, np.ndarray]] = [
            (segment.allocate(chunk), segment.allocate(chunk)) for _ in range(size)
        ]
        self.reduce_ready = FlagArray(node, size, name=f"rdy[{node.index}]", kind="sequence")
        self.reduce_consumed = FlagArray(node, size, name=f"cons[{node.index}]", kind="sequence")
        #: Per-task count of chunks this task has contributed to SMP reduces.
        self.reduce_seq = [0] * size
        #: Per task, per slot: the global sequence of the last write into that
        #: slot (None = never).  Guards slot reuse even when a task's tree
        #: role changes between calls (a reduce root writes no slot).
        self.reduce_last_write: list[list[int | None]] = [[None, None] for _ in range(size)]

        # Master-side node-partial buffers (put sources for inter-node reduce).
        self.partial = (segment.allocate(chunk), segment.allocate(chunk))

        # Barrier: one flag per task, own cache line (§2.2).
        self.barrier_flags = FlagArray(node, size, name=f"bar[{node.index}]", kind="checkin")

    @property
    def size(self) -> int:
        """Number of participating tasks on this node."""
        return len(self.members)

    @property
    def master_rank(self) -> int:
        """The node's group master (lowest member rank)."""
        return self.members[0]

    def index_of(self, task: typing.Any) -> int:
        """This task's slot/flag index within the node's member list."""
        return self.index_of_rank(task.rank)

    def index_of_rank(self, rank: int) -> int:
        try:
            return self._index[rank]
        except KeyError:
            raise ConfigurationError(
                f"rank {rank} is not a group member on node {self.node.index}"
            ) from None

    def is_master(self, task: typing.Any) -> bool:
        """True when this task is the node's group master."""
        return task.rank == self.members[0]

    def reserve_bcast(self, local_index: int, count: int) -> int:
        """Claim the next ``count`` SMP-broadcast chunk sequences; returns
        the first.  Reserving at start (instead of advancing lazily per
        chunk) is what keeps two in-flight invocations out of each other's
        buffer slots."""
        base = self.bcast_seq[local_index]
        self.bcast_seq[local_index] = base + count
        return base

    def reserve_reduce(self, local_index: int, count: int) -> int:
        """Claim the next ``count`` SMP-reduce chunk sequences; returns the
        first."""
        base = self.reduce_seq[local_index]
        self.reduce_seq[local_index] = base + count
        return base

    def reduce_slot(self, local_index: int, sequence: int, nbytes: int) -> np.ndarray:
        """The slot a task writes its ``sequence``-th reduce chunk into."""
        pair = self.reduce_slots[local_index]
        return pair[sequence % 2][:nbytes]

    def partial_buffer(self, sequence: int, nbytes: int) -> np.ndarray:
        """The master's node-partial buffer for a given chunk sequence."""
        return self.partial[sequence % 2][:nbytes]


class _EdgeCounters:
    """The Fig. 4 (left) flow-control counters of one inter-node tree edge.

    ``arrival[slot]`` lives at the child and counts parent puts landed in the
    child's shared buffer ``slot``; ``free[slot]`` lives at the parent,
    starts at 1 per slot (both buffers initially free), and is incremented by
    the child's zero-byte ack put once the SMP fan-out drained the slot.
    """

    def __init__(self, machine: Machine, parent_rank: int, child_rank: int) -> None:
        child = machine.task(child_rank).lapi
        parent = machine.task(parent_rank).lapi
        self.arrival = (child.counter(name=f"arr0:{child_rank}"), child.counter(name=f"arr1:{child_rank}"))
        self.free = (
            parent.counter(initial=1, name=f"free0:{parent_rank}->{child_rank}"),
            parent.counter(initial=1, name=f"free1:{parent_rank}->{child_rank}"),
        )


@dataclass
class BcastPlan:
    """Everything a broadcast from one root needs."""

    root: int
    trees: EmbeddedTrees
    #: Flow-control counters per child node (small protocol).
    edges: dict[int, _EdgeCounters]
    #: Large protocol: per node, the count of streamed chunks landed.
    stream_arrival: dict[int, LapiCounter]
    #: Large protocol: address-exchange counters at each parent, per child.
    address_arrival: dict[int, LapiCounter]
    #: Large protocol: the per-call registry of each node's user buffer,
    #: filled by the address-exchange puts (the simulated "address").
    user_buffers: dict[int, np.ndarray] = field(default_factory=dict)
    #: Cumulative streamed-chunk counts per node (stream_arrival counters are
    #: watched, never consumed, so thresholds are absolute across calls).
    stream_base: dict[int, int] = field(default_factory=dict)

    def reserve_stream(self, node: int, count: int) -> int:
        """Claim ``count`` streamed-chunk thresholds at ``node``; returns the
        first (absolute across calls — the arrival counter is never reset)."""
        base = self.stream_base.get(node, 0)
        self.stream_base[node] = base + count
        return base

    def inter_children(self, rank: int) -> list[int]:
        """Inter-node children of ``rank`` (empty for non-representatives)."""
        if rank in self.trees.inter.parent:
            return self.trees.inter.children_of(rank)
        return []

    def inter_parent(self, rank: int) -> int | None:
        """Inter-node parent of ``rank`` (None for the root / non-reps)."""
        if rank in self.trees.inter.parent:
            return self.trees.inter.parent_of(rank)
        return None


@dataclass
class ReducePlan:
    """Everything a reduce toward one root needs.

    The tree is the same embedding as broadcast, walked leaf→root.  Each
    edge gets two chunk-sized staging buffers *at the parent's node* plus
    arrival counters (at the parent) and free counters (at the child).
    """

    root: int
    trees: EmbeddedTrees
    #: child rank -> (staging buffer pair at parent, counters).
    staging: dict[int, tuple[np.ndarray, np.ndarray]]
    arrival: dict[int, tuple[LapiCounter, LapiCounter]]
    free: dict[int, tuple[LapiCounter, LapiCounter]]
    #: Cumulative chunk counts per edge: the child's send count and the
    #: parent's receive count advance identically, so both sides agree on
    #: the staging slot parity without synchronization.
    sent_seq: dict[int, int] = field(default_factory=dict)
    recv_seq: dict[int, int] = field(default_factory=dict)

    def reserve_sent(self, rank: int, count: int) -> int:
        """Claim ``count`` staging-slot sequences toward ``rank``'s parent."""
        base = self.sent_seq.get(rank, 0)
        self.sent_seq[rank] = base + count
        return base

    def reserve_recv(self, child_rank: int, count: int) -> int:
        """Claim ``count`` staging-slot sequences on the ``child_rank`` edge."""
        base = self.recv_seq.get(child_rank, 0)
        self.recv_seq[child_rank] = base + count
        return base

    def inter_children(self, rank: int) -> list[int]:
        if rank in self.trees.inter.parent:
            return self.trees.inter.children_of(rank)
        return []

    def inter_parent(self, rank: int) -> int | None:
        if rank in self.trees.inter.parent:
            return self.trees.inter.parent_of(rank)
        return None


@dataclass
class AllreducePlan:
    """Recursive-doubling pairwise exchange among node masters (§2.2, §3).

    For ``k`` participating nodes, the first ``2^floor(log2 k)`` positions
    (in ``node_order``) do the exchange; the excess nodes fold their
    contribution into a partner first and receive the result back at the end
    (the standard non-power-of-two fix-up).  All indexing is by *position in
    the group's node order*, so arbitrary task groups work unchanged.
    """

    rounds: int
    #: Participating node indices in exchange order.
    node_order: list[int]
    #: node index -> position in node_order.
    position: dict[int, int]
    #: node index -> that node's group master rank.
    masters: dict[int, int]
    fold_partner: dict[int, int]  # excess node index -> partner node index
    #: Per node: one staging buffer pair per round (slot = call parity).
    exchange: dict[int, list[tuple[np.ndarray, np.ndarray]]]
    arrival: dict[int, list[LapiCounter]]
    #: Fold staging (pre-phase) at the partner; fold-back uses bcast-style puts.
    fold_staging: dict[int, tuple[np.ndarray, np.ndarray]]
    fold_arrival: dict[int, LapiCounter]
    fold_result_arrival: dict[int, LapiCounter]
    #: Per-master call count (slot parity agreement across calls).
    call_seq: dict[int, int]

    def reserve_call(self, rank: int) -> int:
        """Claim this master's next exchange call number (slot parity)."""
        call = self.call_seq[rank]
        self.call_seq[rank] = call + 1
        return call

    @property
    def group_size(self) -> int:
        """Size of the power-of-two exchange group."""
        return 1 << self.rounds


@dataclass
class BarrierPlan:
    """Dissemination-pattern inter-node barrier counters ([17], [22])."""

    rounds: int
    #: Participating node indices in dissemination order.
    node_order: list[int]
    position: dict[int, int]
    masters: dict[int, int]
    #: Per node, per round: the arrival counter at that node's master.
    counters: dict[int, list[LapiCounter]]


class SRMContext:
    """Shared state for all SRM collectives on one machine.

    ``members`` restricts the context to an arbitrary task group (an MPI
    sub-communicator) — the paper's §5 open problem.  The default is the
    whole machine (MPI_COMM_WORLD).
    """

    def __init__(
        self,
        machine: Machine,
        config: SRMConfig | None = None,
        members: typing.Iterable[int] | None = None,
        policy: "SelectionPolicy | None" = None,
    ) -> None:
        self.machine = machine
        self.config = config if config is not None else SRMConfig()
        if members is None:
            member_list = list(range(machine.spec.total_tasks))
        else:
            member_list = sorted(set(members))
            if not member_list:
                raise ConfigurationError("a task group needs at least one member")
            for rank in member_list:
                machine.spec.check_rank(rank)
        self.members: tuple[int, ...] = tuple(member_list)
        self.member_set = frozenset(member_list)
        members_by_node: dict[int, list[int]] = {}
        for rank in member_list:
            members_by_node.setdefault(machine.spec.node_of(rank), []).append(rank)
        #: Participating node index -> its NodeState (group-sized).
        self.nodes: dict[int, NodeState] = {
            node: NodeState(machine.nodes[node], self.config, node_members)
            for node, node_members in members_by_node.items()
        }
        self._bcast_plans: dict[int, BcastPlan] = {}
        self._reduce_plans: dict[int, ReducePlan] = {}
        self._allreduce_plan: AllreducePlan | None = None
        self._barrier_plan: BarrierPlan | None = None
        #: (plan class, *key) -> plan, for the extension operations.
        self._extension_plans: dict[tuple, typing.Any] = {}
        #: Protocol-dispatch layer: every algorithm choice routes through
        #: here (the default policy reproduces the paper's §2.4 thresholds).
        self.dispatcher = Dispatcher(self, policy)
        #: Per-rank tail of the request chain: within one context a rank's
        #: collectives run in started order (MPI's per-communicator ordering
        #: guarantee); overlap comes from cross-rank skew and from other
        #: contexts.  Maintained by :mod:`repro.core.requests`.
        self._request_tail: dict[int, typing.Any] = {}
        #: Per-rank invocation numbering (names requests in reports).
        self._invocation_seq: dict[int, int] = {}

    def next_invocation(self, rank: int) -> int:
        """This rank's next invocation number (0, 1, 2, ... per context)."""
        sequence = self._invocation_seq.get(rank, 0)
        self._invocation_seq[rank] = sequence + 1
        return sequence

    @property
    def group_root(self) -> int:
        """Default root for rootless compositions: the lowest member."""
        return self.members[0]

    def check_member(self, rank: int) -> int:
        if rank not in self.member_set:
            raise ConfigurationError(f"rank {rank} is not a member of this group")
        return rank

    def node_state(self, task: typing.Any) -> NodeState:
        """The NodeState of ``task``'s node."""
        try:
            return self.nodes[task.node.index]
        except KeyError:
            raise ConfigurationError(
                f"task {task.rank}'s node hosts no members of this group"
            ) from None

    # -- validation (the single choke point for every entry path) -----------

    def validate(self, op: str, nbytes: int, rank: int, root: int | None = None) -> None:
        """Validate one collective call's arguments, synchronously.

        Every entry path — blocking calls, ``i*`` one-shots and persistent
        plan construction — routes through here, so membership/root/size
        errors raise at ``start()`` (or plan init), never from inside a
        half-started schedule.
        """
        self.check_member(rank)
        if root is not None:
            self.check_member(root)
        if nbytes < 0:
            raise ConfigurationError(f"{op}: message size must be >= 0, got {nbytes}")

    # -- dispatch ------------------------------------------------------------

    def dispatch(
        self, op: str, nbytes: int, task: typing.Any = None, persistent: bool = False
    ) -> Decision:
        """Resolve the algorithm variant for one collective call.

        ``persistent`` marks the decision telemetry record as pinned by a
        persistent plan (dispatched once at init, then amortized over every
        ``start()``).
        """
        return self.dispatcher.decide(op, nbytes, task, persistent=persistent)

    # -- plan construction (cached per root) --------------------------------

    def extension_plan(self, factory: typing.Callable[..., _Plan], *key: typing.Any) -> _Plan:
        """The extension operations' plan ``factory(self, *key)``, built at
        first use and cached per ``(factory, *key)`` for the context's life."""
        cache_key = (factory, *key)
        plan = self._extension_plans.get(cache_key)
        if plan is None:
            plan = self._extension_plans[cache_key] = factory(self, *key)
        return plan

    def bcast_plan(self, root: int) -> BcastPlan:
        self.check_member(root)
        if root not in self._bcast_plans:
            spec = self.machine.spec
            trees = group_embedding(
                spec,
                self.members,
                root,
                inter_family=self.dispatcher.tree_family("inter-tree"),
            )
            edges: dict[int, _EdgeCounters] = {}
            stream_arrival: dict[int, LapiCounter] = {}
            address_arrival: dict[int, LapiCounter] = {}
            for child_rank in trees.inter.ranks:
                parent_rank = trees.inter.parent_of(child_rank)
                node = spec.node_of(child_rank)
                if parent_rank is None:
                    continue
                edges[node] = _EdgeCounters(self.machine, parent_rank, child_rank)
                stream_arrival[node] = self.machine.task(child_rank).lapi.counter(
                    name=f"stream:{child_rank}"
                )
                address_arrival[node] = self.machine.task(parent_rank).lapi.counter(
                    name=f"addr:{parent_rank}<-{child_rank}"
                )
            self._bcast_plans[root] = BcastPlan(
                root=root,
                trees=trees,
                edges=edges,
                stream_arrival=stream_arrival,
                address_arrival=address_arrival,
            )
        return self._bcast_plans[root]

    def reduce_plan(self, root: int) -> ReducePlan:
        self.check_member(root)
        if root not in self._reduce_plans:
            spec = self.machine.spec
            trees = group_embedding(
                spec,
                self.members,
                root,
                inter_family=self.dispatcher.tree_family("inter-tree"),
                intra_family=self.dispatcher.tree_family("intra-reduce-tree"),
            )
            chunk = self.config.shared_buffer_bytes
            staging: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            arrival: dict[int, tuple[LapiCounter, LapiCounter]] = {}
            free: dict[int, tuple[LapiCounter, LapiCounter]] = {}
            for child_rank in trees.inter.ranks:
                parent_rank = trees.inter.parent_of(child_rank)
                if parent_rank is None:
                    continue
                parent_node = self.machine.task(parent_rank).node
                segment = SharedSegment(parent_node, 2 * chunk + 128, name=f"stage<-{child_rank}")
                staging[child_rank] = (segment.allocate(chunk), segment.allocate(chunk))
                parent_lapi = self.machine.task(parent_rank).lapi
                child_lapi = self.machine.task(child_rank).lapi
                arrival[child_rank] = (
                    parent_lapi.counter(name=f"rarr0<-{child_rank}"),
                    parent_lapi.counter(name=f"rarr1<-{child_rank}"),
                )
                free[child_rank] = (
                    child_lapi.counter(initial=1, name=f"rfree0:{child_rank}"),
                    child_lapi.counter(initial=1, name=f"rfree1:{child_rank}"),
                )
            self._reduce_plans[root] = ReducePlan(
                root=root, trees=trees, staging=staging, arrival=arrival, free=free
            )
        return self._reduce_plans[root]

    def allreduce_plan(self) -> AllreducePlan:
        if self._allreduce_plan is None:
            node_order = sorted(self.nodes)
            position = {node: index for index, node in enumerate(node_order)}
            masters = {node: self.nodes[node].master_rank for node in node_order}
            k = len(node_order)
            group = 1 << (k.bit_length() - 1)
            if group > k:
                group >>= 1
            rounds = group.bit_length() - 1
            chunk = max(self.config.allreduce_exchange_max, 1)
            exchange: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
            arrival: dict[int, list[LapiCounter]] = {}
            fold_partner: dict[int, int] = {}
            fold_staging: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            fold_arrival: dict[int, LapiCounter] = {}
            fold_result_arrival: dict[int, LapiCounter] = {}
            call_seq: dict[int, int] = {}
            for node in node_order:
                master = masters[node]
                call_seq[master] = 0
                machine_node = self.machine.nodes[node]
                lapi = self.machine.task(master).lapi
                if position[node] < group:
                    segment = SharedSegment(
                        machine_node,
                        rounds * 2 * chunk + 128 * (rounds + 1),
                        name=f"rd[{node}]",
                    )
                    exchange[node] = [
                        (segment.allocate(chunk), segment.allocate(chunk))
                        for _ in range(rounds)
                    ]
                    arrival[node] = [lapi.counter(name=f"rd{r}:{node}") for r in range(rounds)]
                else:
                    partner = node_order[position[node] - group]
                    fold_partner[node] = partner
                    partner_node = self.machine.nodes[partner]
                    partner_lapi = self.machine.task(masters[partner]).lapi
                    segment = SharedSegment(partner_node, 2 * chunk + 128, name=f"fold[{node}]")
                    fold_staging[node] = (segment.allocate(chunk), segment.allocate(chunk))
                    fold_arrival[node] = partner_lapi.counter(name=f"fold:{node}->{partner}")
                    fold_result_arrival[node] = lapi.counter(name=f"foldback:{partner}->{node}")
            self._allreduce_plan = AllreducePlan(
                rounds=rounds,
                node_order=node_order,
                position=position,
                masters=masters,
                fold_partner=fold_partner,
                exchange=exchange,
                arrival=arrival,
                fold_staging=fold_staging,
                fold_arrival=fold_arrival,
                fold_result_arrival=fold_result_arrival,
                call_seq=call_seq,
            )
        return self._allreduce_plan

    def barrier_plan(self) -> BarrierPlan:
        if self._barrier_plan is None:
            node_order = sorted(self.nodes)
            position = {node: index for index, node in enumerate(node_order)}
            masters = {node: self.nodes[node].master_rank for node in node_order}
            rounds = (len(node_order) - 1).bit_length()
            counters = {
                node: [
                    self.machine.task(masters[node]).lapi.counter(name=f"bar{r}:{node}")
                    for r in range(rounds)
                ]
                for node in node_order
            }
            self._barrier_plan = BarrierPlan(
                rounds=rounds,
                node_order=node_order,
                position=position,
                masters=masters,
                counters=counters,
            )
        return self._barrier_plan
