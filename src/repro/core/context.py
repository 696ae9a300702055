"""Persistent SRM state: per-node shared structures, plans, and the ledger.

SRM's performance comes from *reusing* shared-memory buffers, flags, and
LAPI counters across calls (consecutive operations alternate between the two
buffers, §2.2), so this state lives in a context object created once per
machine, not per call:

* :class:`NodeState` — one per SMP node: the broadcast slot and the
  per-task reduce slots (each a :class:`~repro.shmem.buffers.DoubleBuffer`
  handoff), and the barrier flag bank.
* Plan objects — cached per root: the SMP embedding (Fig. 1) plus the LAPI
  counters implementing the two-buffer inter-node flow control (Fig. 4).
* :class:`SequenceLedger` — every cumulative count that picks a slot.

Sequence bookkeeping: slots are picked and handed over by *cumulative*
chunk sequences, so no inter-call reset synchronization is ever needed —
every task executes the same sequence of collective calls, hence agrees on
every sequence number (and every slot's last writer) by construction.  They
live in one place, the context's ledger.

With the request layer (:mod:`repro.core.requests`) several invocations of
one plan can be in flight at once, so an invocation *reserves* its windows
synchronously at ``start()`` into an :class:`InvocationState` instead of
reading and advancing the ledger lazily mid-schedule.  Two in-flight
invocations therefore never alias a buffer slot: each owns a disjoint
sequence window, and the cumulative-counter discipline above keeps both
sides of every edge in agreement about slot parity without any extra
synchronization.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SRMConfig
from repro.core.dispatch import Decision, Dispatcher, SelectionPolicy
from repro.errors import ConfigurationError
from repro.lapi.counters import LapiCounter
from repro.machine.cluster import Machine, Node, Task
from repro.shmem.buffers import DoubleBuffer
from repro.shmem.flags import FlagArray
from repro.shmem.segment import SharedSegment
from repro.trees.embedding import EmbeddedTrees, group_embedding

__all__ = [
    "SRMContext",
    "SequenceLedger",
    "NodeState",
    "InvocationState",
    "BcastPlan",
    "ReducePlan",
    "AllreducePlan",
    "BarrierPlan",
]

_Plan = typing.TypeVar("_Plan")


class SequenceLedger(dict):
    """Every cumulative slot cursor of one context, keyed by what it counts.

    A key is a tuple naming the cursor and its owner, for example
    ``("bcast", rank)`` (SMP-broadcast chunks of a member),
    ``("recv", root, child)`` (reduce staging slots on one edge) or
    ``("request", rank)`` (the request layer's invocation numbers).  A key
    never reserved reads 0, as in :class:`collections.Counter`.
    :meth:`reserve` advances the cursors (and ``DoubleBuffer.reserve`` keeps
    a slot's last writers beside its cursor), so replay can snapshot the
    whole ledger without knowing any protocol's cursors.
    """

    __slots__ = ()

    def __missing__(self, key: tuple) -> int:
        return 0

    def reserve(self, key: tuple, count: int) -> int:
        """Claim the next ``count`` sequences of ``key``; returns the first."""
        base = self.get(key, 0)
        self[key] = base + count
        return base


@dataclass
class InvocationState:
    """The sequence windows one collective call reserved at one rank.

    Reserved synchronously when the invocation starts (a blocking call, an
    ``i*`` one-shot, or a persistent ``plan.start()``) by the ``reserve_*``
    helpers in :mod:`repro.core.internode`; the protocol bodies then compute
    every slot parity and counter threshold from these bases
    (``invocation["bcast", rank]``) instead of reading the ledger
    mid-schedule.  The pipelined allreduce carries both its reduce-stage and
    broadcast-stage windows in one instance (their keys are disjoint).
    """

    op: str
    root: int | None = None
    #: Per-rank invocation number (assigned by the request layer; orders the
    #: rank's requests and names them in deadlock reports).
    sequence: int = 0
    #: Ledger key -> the first sequence reserved for it, in reservation order.
    bases: dict[tuple, int] = field(default_factory=dict)
    #: Key -> each slot generation's last writer before the claim (the
    #: replay window key includes every one the reservation read).
    writers: dict[tuple, tuple] = field(default_factory=dict)

    def reserve(self, ledger: SequenceLedger, key: tuple, count: int) -> int:
        """Claim ``count`` sequences of ``key`` for this invocation."""
        base = self.bases[key] = ledger.reserve(key, count)
        return base

    def __getitem__(self, key: tuple) -> int:
        return self.bases[key]


class NodeState:
    """All shared-memory structures of one node, reused by every operation.

    ``members`` restricts the structures to a task group's local members
    (the §5 arbitrary-task-group extension): flags and slots are sized and
    indexed by the member list, so tasks outside the group never appear in
    any wait condition.  ``ledger`` is the owning context's (a standalone
    node state keeps its own).
    """

    def __init__(
        self,
        node: Node,
        config: SRMConfig,
        members: typing.Sequence[int] | None = None,
        ledger: SequenceLedger | None = None,
    ) -> None:
        self.node = node
        self.config = config
        self.ledger = ledger if ledger is not None else SequenceLedger()
        self.members: tuple[int, ...] = (
            tuple(members) if members is not None else tuple(node.ranks)
        )
        if not self.members:
            raise ConfigurationError(f"node {node.index} has no group members")
        self._index = {rank: position for position, rank in enumerate(self.members)}
        size = len(self.members)
        chunk = config.shared_buffer_bytes

        # Broadcast: the Fig. 3 structure — two buffers, a seat per task.
        self.bcast_buf = DoubleBuffer(node, chunk, seats=size, name=f"bcast[{node.index}]")

        # Reduce: a slot per task, read by its parent of the moment.
        self.reduce_slots = [
            DoubleBuffer(node, chunk, seats=1, name=f"reduce[{node.index}][{i}]") for i in range(size)
        ]

        # Master-side node-partial buffers (put sources for inter-node reduce).
        segment = SharedSegment(node, 2 * chunk + 128, name=f"partial[{node.index}]")
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

    def partial_buffer(self, sequence: int, nbytes: int) -> np.ndarray:
        """The master's node-partial buffer for a given chunk sequence."""
        return self.partial[sequence % 2][:nbytes]


class _EdgeCounters:
    """The Fig. 4 (left) flow-control counters of one inter-node tree edge.

    ``arrival[slot]`` lives at the child and counts parent puts landed in the
    child's shared buffer ``slot``; ``free[slot]`` lives at the parent: its
    credit to write that slot, 1 at first and re-granted by the child's
    zero-byte ack put once the node drained this edge's write.
    """

    def __init__(self, tasks: typing.Sequence[Task], parent_rank: int, child_rank: int) -> None:
        child = tasks[child_rank].lapi
        parent = tasks[parent_rank].lapi
        self.arrival = (child.counter(name=f"arr0:{child_rank}"), child.counter(name=f"arr1:{child_rank}"))
        self.free = (
            parent.counter(initial=1, name=f"free0:{parent_rank}->{child_rank}"),
            parent.counter(initial=1, name=f"free1:{parent_rank}->{child_rank}"),
        )


class _TreePlan:
    """The Fig. 1 embedding toward one root, shared by broadcast and reduce."""

    root: int
    trees: EmbeddedTrees

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


class BcastPlan(_TreePlan):
    """Everything a broadcast from one root needs."""

    def __init__(self, ctx: "SRMContext", root: int) -> None:
        spec = ctx.spec
        self.root = root
        self.trees = group_embedding(
            spec,
            ctx.members,
            root,
            inter_family=ctx.dispatcher.tree_family("inter-tree"),
        )
        #: This tree's small protocol as a broadcast slot's last writer.
        self.writer = ("put", root)
        #: Flow-control counters per child node (small protocol).
        self.edges: dict[int, _EdgeCounters] = {}
        #: Large protocol: per node, the count of streamed chunks landed
        #: (watched, never consumed, so thresholds are absolute across calls).
        self.stream_arrival: dict[int, LapiCounter] = {}
        #: Large protocol: address-exchange counters at each parent, per child.
        self.address_arrival: dict[int, LapiCounter] = {}
        for child_rank in self.trees.inter.ranks:
            parent_rank = self.trees.inter.parent_of(child_rank)
            if parent_rank is None:
                continue
            node = spec.node_of(child_rank)
            self.edges[node] = _EdgeCounters(ctx.tasks, parent_rank, child_rank)
            self.stream_arrival[node] = ctx.tasks[child_rank].lapi.counter(
                name=f"stream:{child_rank}"
            )
            self.address_arrival[node] = ctx.tasks[parent_rank].lapi.counter(
                name=f"addr:{parent_rank}<-{child_rank}"
            )
        #: Large protocol: the per-call registry of each node's user buffer,
        #: filled by the address-exchange puts (the simulated "address").
        self.user_buffers: dict[int, np.ndarray] = {}


class ReducePlan(_TreePlan):
    """Everything a reduce toward one root needs.

    The tree is the same embedding as broadcast, walked leaf→root.  Each
    edge gets two chunk-sized staging buffers *at the parent's node* plus
    arrival counters (at the parent) and free counters (at the child).
    """

    def __init__(self, ctx: "SRMContext", root: int) -> None:
        tasks = ctx.tasks
        self.root = root
        self.trees = group_embedding(
            ctx.spec,
            ctx.members,
            root,
            inter_family=ctx.dispatcher.tree_family("inter-tree"),
            intra_family=ctx.dispatcher.tree_family("intra-reduce-tree"),
        )
        chunk = ctx.config.shared_buffer_bytes
        #: child rank -> staging buffer pair at the parent, and its counters.
        self.staging: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.arrival: dict[int, tuple[LapiCounter, LapiCounter]] = {}
        self.free: dict[int, tuple[LapiCounter, LapiCounter]] = {}
        for child_rank in self.trees.inter.ranks:
            parent_rank = self.trees.inter.parent_of(child_rank)
            if parent_rank is None:
                continue
            parent_node = tasks[parent_rank].node
            segment = SharedSegment(parent_node, 2 * chunk + 128, name=f"stage<-{child_rank}")
            self.staging[child_rank] = (segment.allocate(chunk), segment.allocate(chunk))
            parent_lapi = tasks[parent_rank].lapi
            child_lapi = tasks[child_rank].lapi
            self.arrival[child_rank] = (
                parent_lapi.counter(name=f"rarr0<-{child_rank}"),
                parent_lapi.counter(name=f"rarr1<-{child_rank}"),
            )
            self.free[child_rank] = (
                child_lapi.counter(initial=1, name=f"rfree0:{child_rank}"),
                child_lapi.counter(initial=1, name=f"rfree1:{child_rank}"),
            )


class AllreducePlan:
    """Recursive-doubling pairwise exchange among node masters (§2.2, §3).

    For ``k`` participating nodes, the first ``2^floor(log2 k)`` positions
    (in the context's ``node_order``) do the exchange; the excess nodes fold
    their contribution into a partner first and receive the result back at
    the end (the standard non-power-of-two fix-up).  All indexing is by
    *position in the group's node order*, so arbitrary task groups work
    unchanged.
    """

    def __init__(self, ctx: "SRMContext") -> None:
        node_order = ctx.node_order
        k = len(node_order)
        group = 1 << (k.bit_length() - 1)
        if group > k:
            group >>= 1
        self.rounds = group.bit_length() - 1
        chunk = max(ctx.config.allreduce_exchange_max, 1)
        #: Per node: one staging buffer pair per round (slot = call parity).
        self.exchange: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self.arrival: dict[int, list[LapiCounter]] = {}
        #: Excess node index -> partner node index.
        self.fold_partner: dict[int, int] = {}
        #: Fold staging (pre-phase) at the partner; fold-back uses bcast-style puts.
        self.fold_staging: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.fold_arrival: dict[int, LapiCounter] = {}
        self.fold_result_arrival: dict[int, LapiCounter] = {}
        for position, node in enumerate(node_order):
            machine_node = ctx.nodes[node].node
            lapi = ctx.tasks[ctx.masters[node]].lapi
            if position < group:
                segment = SharedSegment(
                    machine_node,
                    self.rounds * 2 * chunk + 128 * (self.rounds + 1),
                    name=f"rd[{node}]",
                )
                self.exchange[node] = [
                    (segment.allocate(chunk), segment.allocate(chunk))
                    for _ in range(self.rounds)
                ]
                self.arrival[node] = [lapi.counter(name=f"rd{r}:{node}") for r in range(self.rounds)]
            else:
                partner = node_order[position - group]
                self.fold_partner[node] = partner
                partner_lapi = ctx.tasks[ctx.masters[partner]].lapi
                segment = SharedSegment(ctx.nodes[partner].node, 2 * chunk + 128, name=f"fold[{node}]")
                self.fold_staging[node] = (segment.allocate(chunk), segment.allocate(chunk))
                self.fold_arrival[node] = partner_lapi.counter(name=f"fold:{node}->{partner}")
                self.fold_result_arrival[node] = lapi.counter(name=f"foldback:{partner}->{node}")

    @property
    def group_size(self) -> int:
        """Size of the power-of-two exchange group."""
        return 1 << self.rounds


class BarrierPlan:
    """Dissemination-pattern inter-node barrier counters ([17], [22])."""

    def __init__(self, ctx: "SRMContext") -> None:
        self.rounds = (len(ctx.node_order) - 1).bit_length()
        #: Per node, per round: the arrival counter at that node's master.
        self.counters: dict[int, list[LapiCounter]] = {
            node: [
                ctx.tasks[ctx.masters[node]].lapi.counter(name=f"bar{r}:{node}")
                for r in range(self.rounds)
            ]
            for node in ctx.node_order
        }


class SRMContext:
    """Shared state for all SRM collectives on one machine.

    ``members`` restricts the context to an arbitrary task group (an MPI
    sub-communicator) — the paper's §5 open problem.  The default is the
    whole machine (MPI_COMM_WORLD).

    The context keeps the machine parts it builds on (spec, cost, tasks,
    metrics registry), never the machine: the request layer's progress
    processes hold the context, and the machine must stay free to go when
    its owner drops it.
    """

    def __init__(
        self,
        machine: Machine,
        config: SRMConfig | None = None,
        members: typing.Iterable[int] | None = None,
        policy: "SelectionPolicy | None" = None,
    ) -> None:
        self.spec = machine.spec
        self.cost = machine.cost
        self.metrics = machine.obs.metrics
        #: The machine's tasks, by rank (the plans' counters live on them).
        self.tasks: typing.Sequence[Task] = machine.tasks
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
        #: Every slot cursor of this group's collectives.
        self.ledger = SequenceLedger()
        members_by_node: dict[int, list[int]] = {}
        for rank in member_list:
            members_by_node.setdefault(machine.spec.node_of(rank), []).append(rank)
        #: Participating node index -> its NodeState (group-sized).
        self.nodes: dict[int, NodeState] = {
            node: NodeState(machine.nodes[node], self.config, node_members, self.ledger)
            for node, node_members in members_by_node.items()
        }
        #: The node ring the master-level protocols walk: participating node
        #: indices in order, each node's position in it, and its group master.
        self.node_order: list[int] = sorted(self.nodes)
        self.node_position = {node: index for index, node in enumerate(self.node_order)}
        self.masters = {node: self.nodes[node].master_rank for node in self.node_order}
        #: (plan class, *key) -> plan, built at first use.
        self._plans: dict[tuple, typing.Any] = {}
        #: Protocol-dispatch layer: every algorithm choice routes through
        #: here (the default policy reproduces the paper's §2.4 thresholds).
        self.dispatcher = Dispatcher(self, policy)
        #: Per-rank tail of the request chain: within one context a rank's
        #: collectives run in started order (MPI's per-communicator ordering
        #: guarantee); overlap comes from cross-rank skew and from other
        #: contexts.  Maintained by :mod:`repro.core.requests`.
        self._request_tail: dict[int, typing.Any] = {}

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

    def dispatch(self, op: str, nbytes: int, task: typing.Any = None) -> Decision:
        """Resolve the algorithm variant for one collective call."""
        return self.dispatcher.decide(op, nbytes, task)

    # -- plans (built at first use, cached for the context's life) ----------

    def plan(self, factory: typing.Callable[..., _Plan], *key: typing.Any) -> _Plan:
        """The plan ``factory(self, *key)``, built at first use and cached
        per ``(factory, *key)`` for the context's life."""
        cache_key = (factory, *key)
        plan = self._plans.get(cache_key)
        if plan is None:
            plan = self._plans[cache_key] = factory(self, *key)
        return plan

    def bcast_plan(self, root: int) -> BcastPlan:
        self.check_member(root)
        return self.plan(BcastPlan, root)

    def reduce_plan(self, root: int) -> ReducePlan:
        self.check_member(root)
        return self.plan(ReducePlan, root)

    def allreduce_plan(self) -> AllreducePlan:
        return self.plan(AllreducePlan)

    def barrier_plan(self) -> BarrierPlan:
        return self.plan(BarrierPlan)
