"""The simulated machine: nodes, tasks, and program launching.

A :class:`Machine` instantiates the cluster described by a
:class:`~repro.machine.spec.ClusterSpec` under one discrete-event engine:

* each **node** gets a memory bus (fluid-flow shared bandwidth over which all
  intra-node copies and NIC DMA contend) and a pair of NIC links (in/out);
* each **task** (MPI rank) gets a LAPI endpoint (RMA substrate) and an MPI
  endpoint (point-to-point substrate), plus timed data-movement helpers that
  really move NumPy bytes when the simulated operation completes.  Each
  helper pays a start-up and then shares the bus in one link call
  (:meth:`~repro.sim.resources.SharedBandwidth.transfer_after`), so the
  calling process resumes once, at completion.

Programs are generators taking a :class:`Task`; :meth:`Machine.launch` runs
one program instance per rank and reports per-rank results and the makespan.

Only the machine's owner holds it strongly.  Its parts (nodes, tasks, their
endpoints and flags) keep what they read on every call (engine, cost, node,
rank) as plain attributes and reach the machine itself through a weak
reference, so when the owner drops the machine reference counting frees it
at once; freeing it releases the engine (:meth:`Engine._release`), and the
rest follows.
"""

from __future__ import annotations

import typing
import weakref

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.machine.costmodel import CostModel
from repro.machine.memops import raw_copyto
from repro.machine.spec import ClusterSpec
from repro.obs import Observability
from repro.obs.taxonomy import REDUCE_APPLY, SHM_COPY
from repro.sim import Engine, SharedBandwidth
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.lapi.counters import LapiCounter
    from repro.shmem.flags import SharedFlag

__all__ = ["Machine", "Node", "Task", "LaunchResult"]


class Node:
    """One SMP node: a memory bus, two NIC directions, and its task ranks."""

    def __init__(self, machine: "Machine", index: int) -> None:
        cost = machine.cost
        engine = machine.engine
        self._machine = weakref.ref(machine)
        self.engine = engine
        self.cost = cost
        self.obs = machine.obs
        self.index = index
        self.ranks = machine.spec.ranks_on_node(index)
        #: All intra-node copies, reductions, and NIC DMA share this bus.
        self.bus = SharedBandwidth(engine, cost.memory_bus_bandwidth, name=f"bus[{index}]")
        self.nic_out = SharedBandwidth(engine, cost.net_bandwidth, name=f"nic_out[{index}]")
        self.nic_in = SharedBandwidth(engine, cost.net_bandwidth, name=f"nic_in[{index}]")

    @property
    def machine(self) -> "Machine | None":
        """The machine this node belongs to (``None`` once it was freed)."""
        return self._machine()

    @property
    def size(self) -> int:
        """Number of tasks on this node."""
        return len(self.ranks)

    @property
    def master_rank(self) -> int:
        """The node's default master task (lowest rank, §2.3: one selected
        process per node communicates across the network)."""
        return self.ranks[0]

    def __repr__(self) -> str:
        return f"<Node {self.index} ranks={self.ranks.start}..{self.ranks.stop - 1}>"


class TaskStats:
    """Per-task substrate counts: each is kept here and nowhere else, and the
    metrics registry reads them (:data:`repro.obs.hub.TASK_COUNTS`)."""

    __slots__ = ("copies", "bytes_copied", "reduce_ops", "bytes_reduced", "yields", "interrupts")

    def __init__(self) -> None:
        self.copies = 0
        self.bytes_copied = 0
        self.reduce_ops = 0
        self.bytes_reduced = 0
        self.yields = 0
        self.interrupts = 0


class Task:
    """One MPI rank: the execution context handed to simulated programs."""

    def __init__(self, machine: "Machine", rank: int) -> None:
        self._machine = weakref.ref(machine)
        self.rank = rank
        self.node: Node = machine.nodes[machine.spec.node_of(rank)]
        self.engine: Engine = machine.engine
        self.cost: CostModel = machine.cost
        self.spec: ClusterSpec = machine.spec
        self.obs: Observability = machine.obs
        self.stats = TaskStats()
        # Substrate endpoints are attached by Machine after all tasks exist
        # (they need the full task table for addressing).
        self.lapi: typing.Any = None
        self.mpi: typing.Any = None

    # -- identity helpers ---------------------------------------------------

    @property
    def machine(self) -> "Machine | None":
        """The machine this task runs on (``None`` once it was freed)."""
        return self._machine()

    @property
    def local_index(self) -> int:
        """Index of this task within its node."""
        return self.spec.local_index(self.rank)

    @property
    def is_node_master(self) -> bool:
        """True if this task is its node's master."""
        return self.rank == self.node.master_rank

    def same_node(self, other_rank: int) -> bool:
        """True when ``other_rank`` shares this task's SMP node."""
        return self.spec.same_node(self.rank, other_rank)

    def phase(self, name: str, detail: str = "") -> typing.ContextManager:
        """Open a named observability phase span (``with task.phase(...)``)."""
        return self.obs.phase(self, name, detail)

    # -- timed data movement -------------------------------------------------

    def copy(
        self, dst: np.ndarray, src: np.ndarray
    ) -> ProcessGenerator:
        """Copy ``src`` into ``dst`` through shared memory (``yield from``).

        Costs one copy start-up plus the bus transfer (capped at one CPU's
        copy bandwidth); the bytes actually land in ``dst`` on completion, so
        correctness is observable, not assumed.
        """
        if dst.nbytes != src.nbytes:
            raise ProtocolError(
                f"copy size mismatch: dst {dst.nbytes} B vs src {src.nbytes} B"
            )
        nbytes = dst.nbytes
        ends, row = self.obs.recorder.leaf(self.rank, SHM_COPY)
        try:
            yield self.node.bus.transfer_after(
                self.cost.sm_copy_latency, nbytes, max_rate=self.cost.sm_copy_bandwidth
            )
        finally:
            ends[row] = self.engine.now
        raw_copyto(dst, src)
        trace = self.engine.trace
        if trace is not None:
            trace.record_copy(dst, src)
        self.stats.copies += 1
        self.stats.bytes_copied += nbytes

    def reduce_into(
        self,
        dst: np.ndarray,
        src: np.ndarray,
        op: typing.Callable[[np.ndarray, np.ndarray], None],
    ) -> ProcessGenerator:
        """Apply ``dst = op(dst, src)`` element-wise at reduce-op bandwidth.

        ``op`` is an in-place combiner such as those in :mod:`repro.mpi.ops`.
        """
        if dst.nbytes != src.nbytes:
            raise ProtocolError(
                f"reduce size mismatch: dst {dst.nbytes} B vs src {src.nbytes} B"
            )
        nbytes = dst.nbytes
        ends, row = self.obs.recorder.leaf(self.rank, REDUCE_APPLY)
        try:
            yield self.node.bus.transfer_after(
                self.cost.sm_copy_latency, nbytes, max_rate=self.cost.reduce_op_bandwidth
            )
        finally:
            ends[row] = self.engine.now
        op(dst, src)
        trace = self.engine.trace
        if trace is not None:
            trace.record_reduce(dst, src, op)
        self.stats.reduce_ops += 1
        self.stats.bytes_reduced += nbytes

    def combine_into(
        self,
        dst: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        op: typing.Any,
    ) -> ProcessGenerator:
        """Apply ``dst = a OP b`` in one streaming pass (``dst`` may alias
        ``a``) — the zero-extra-copy combine the SRM reduce root uses."""
        if not (dst.nbytes == a.nbytes == b.nbytes):
            raise ProtocolError(
                f"combine size mismatch: {dst.nbytes}/{a.nbytes}/{b.nbytes} B"
            )
        nbytes = dst.nbytes
        ends, row = self.obs.recorder.leaf(self.rank, REDUCE_APPLY)
        try:
            yield self.node.bus.transfer_after(
                self.cost.sm_copy_latency, nbytes, max_rate=self.cost.reduce_op_bandwidth
            )
        finally:
            ends[row] = self.engine.now
        op.combine_into(dst, a, b)
        trace = self.engine.trace
        if trace is not None:
            trace.record_combine(dst, a, b, op)
        self.stats.reduce_ops += 1
        self.stats.bytes_reduced += nbytes

    def compute(self, seconds: float) -> ProcessGenerator:
        """Model ``seconds`` of pure CPU work (no bus traffic)."""
        yield self.engine.timeout(seconds)

    def __repr__(self) -> str:
        return f"<Task rank={self.rank} node={self.node.index} local={self.local_index}>"


class LaunchResult:
    """Outcome of one :meth:`Machine.launch`: per-rank results + timing.

    ``finish_times`` and ``results`` hold the ranks in completion order.
    """

    def __init__(
        self,
        results: dict[int, typing.Any],
        start_time: float,
        finish_times: dict[int, float],
    ) -> None:
        self.results = results
        self.start_time = start_time
        self.finish_times = finish_times
        self.end_time = max(finish_times.values())

    @property
    def elapsed(self) -> float:
        """Makespan: last rank's finish minus the common start."""
        return self.end_time - self.start_time

    def __repr__(self) -> str:
        return f"<LaunchResult elapsed={self.elapsed:.6g}s ranks={len(self.results)}>"


class Machine:
    """A simulated SMP cluster ready to run collective programs."""

    def __init__(
        self,
        spec: ClusterSpec,
        cost: CostModel | None = None,
        seed: int = 0,
        observe: bool = True,
        scheduler: typing.Any = None,
    ) -> None:
        self.spec = spec
        self.cost = cost if cost is not None else CostModel.ibm_sp_colony()
        #: ``scheduler`` (a :class:`repro.sim.scheduler.Scheduler`) selects
        #: the engine's same-timestamp tie-break policy; ``None`` keeps the
        #: default deterministic order and the engine's fast paths.
        self.engine = Engine(scheduler=scheduler)
        # Fail loudly: a broken protocol invariant raises at its first
        # violating write.  Imported here: the verify package imports the
        # machine.
        from repro.verify.invariants import Verifier

        self.engine.verifier = Verifier(strict=True)
        #: Always-on metrics + phase recorder; ``observe=False`` swaps in
        #: no-op instruments (used to assert observation never perturbs
        #: simulated results).
        self.obs = Observability(self.engine, enabled=observe)
        self.rng = np.random.default_rng(seed)
        #: Every LAPI counter and shared flag created on this machine, in
        #: creation order (``LapiEndpoint.counter`` and ``SharedFlag``
        #: register themselves), so compiled replay can snapshot them all.
        self.counters: list[LapiCounter] = []
        self.flags: list[SharedFlag] = []
        self.nodes = [Node(self, index) for index in range(spec.nodes)]
        self.tasks = [Task(self, rank) for rank in range(spec.total_tasks)]
        self._attach_endpoints()
        self.obs.read_task_counts(self.tasks)
        if self.cost.daemon_interval > 0:
            self._start_daemon_noise()

    def __del__(self) -> None:
        # Only the owner holds a machine, so this runs when the owner drops
        # it: release the engine, and reference counting frees the rest.
        self.engine._release()

    def _attach_endpoints(self) -> None:
        # Imported here: the substrate modules type-reference Machine/Task.
        from repro.lapi.endpoint import LapiEndpoint
        from repro.mpi.p2p import MpiEndpoint

        for task in self.tasks:
            task.lapi = LapiEndpoint(task)
        for task in self.tasks:
            task.mpi = MpiEndpoint(task)

    def _start_daemon_noise(self) -> None:
        """Periodic per-node bus theft modelling AIX system daemons (§2.1)."""
        cost, rng = self.cost, self.rng

        def daemon(node: Node) -> ProcessGenerator:
            steal_bytes = cost.daemon_duration * cost.memory_bus_bandwidth
            while True:
                interval = float(rng.exponential(cost.daemon_interval))
                yield node.bus.transfer_after(interval, steal_bytes)

        for node in self.nodes:
            self.engine.process(daemon(node), name=f"daemon[{node.index}]")

    # -- convenience accessors -------------------------------------------

    def task(self, rank: int) -> Task:
        """The task object for ``rank``."""
        self.spec.check_rank(rank)
        return self.tasks[rank]

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    # -- running programs ---------------------------------------------------

    def launch(
        self,
        program: typing.Callable[[Task], ProcessGenerator],
        ranks: typing.Iterable[int] | None = None,
    ) -> LaunchResult:
        """Run one ``program(task)`` generator per rank to completion.

        All instances start at the current simulated time; the engine runs
        until every instance finishes.  The machine can be launched again
        afterwards — simulated time keeps advancing, which is how repeated
        (pipelined, buffer-alternating) calls are measured.
        """
        selected = list(ranks) if ranks is not None else list(range(self.spec.total_tasks))
        if not selected:
            raise ConfigurationError("launch() needs at least one rank")
        engine = self.engine
        start_time = engine.now
        finish_times: dict[int, float] = {}
        results: dict[int, typing.Any] = {}

        def wrapped(task: Task) -> ProcessGenerator:
            outcome = yield from program(task)
            finish_times[task.rank] = engine.now
            results[task.rank] = outcome

        processes = [
            engine.process(wrapped(self.tasks[rank]), name=f"rank{rank}")
            for rank in selected
        ]
        engine.run(until=engine.all_of(processes))
        return LaunchResult(results, start_time, finish_times)

    def __repr__(self) -> str:
        return f"<Machine {self.spec} t={self.engine.now:.6g}>"
