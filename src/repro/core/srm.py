"""The public SRM collectives facade.

One :class:`SRM` instance per machine owns the persistent shared-memory and
counter state (:class:`~repro.core.context.SRMContext`) and exposes the four
operations of the paper, plus the block-data, scan and reduce-scatter
extensions, as per-rank generators, mirroring the baseline stacks' interface
so benchmarks can swap implementations.

Usage inside a simulated program::

    srm = SRM(machine)

    def program(task):
        data = np.zeros(1024) if task.rank else np.arange(1024.0)
        yield from srm.broadcast(task, data, root=0)
        ...

    machine.launch(program)

The paper's four also exist in **nonblocking** (``ibcast`` et al., returning
a :class:`~repro.core.requests.CollectiveRequest` whose progress runs in its
own process) and **persistent** (``plan_broadcast`` et al., returning a
:class:`~repro.core.requests.PersistentCollective` whose dispatch decision
and buffer bindings are pinned once and replayed per ``start()``) form.
Every blocking method is an inline request on the rank's started-order
chain (:func:`~repro.core.requests.run_blocking`) — one way in for all ten
operations, so a blocking call issued while requests are in flight runs
after them.
"""

from __future__ import annotations

import typing
import weakref

import numpy as np

from repro.core import requests as _requests
from repro.core.config import SRMConfig
from repro.core.context import SRMContext
from repro.core.dispatch import SelectionPolicy
from repro.core.internode.gatherscatter import (
    prepare_allgather,
    prepare_alltoall,
    prepare_gather,
    prepare_scatter,
)
from repro.core.internode.scan import prepare_scan
from repro.core.requests import (
    CollectiveRequest,
    PersistentCollective,
    run_blocking,
)
from repro.machine.cluster import Machine
from repro.machine.memops import require_contiguous
from repro.mpi.ops import SUM, ReduceOp
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task

__all__ = ["SRM"]


class SRM:
    """Shared-Remote-Memory collective operations (the paper's system).

    ``group`` restricts the operations to an arbitrary subset of ranks (an
    MPI sub-communicator) — the §5 extension.  Each SRM instance owns its
    own shared buffers and counters, so disjoint groups can run collectives
    concurrently on one machine.

    ``policy`` selects the algorithm variant per call through the protocol
    dispatch layer (:mod:`repro.core.dispatch`): the default
    :class:`~repro.core.dispatch.PaperPolicy` reproduces the paper's §2.4
    switch points exactly; pass a
    :class:`~repro.core.dispatch.CostModelPolicy`,
    :class:`~repro.core.dispatch.TunedPolicy` (from ``python -m repro
    tune``), or :class:`~repro.core.dispatch.FixedPolicy` to override.
    """

    name = "SRM"

    def __init__(
        self,
        machine: Machine,
        config: SRMConfig | None = None,
        group: typing.Iterable[int] | None = None,
        policy: "SelectionPolicy | None" = None,
    ) -> None:
        # Weak: a program blocked in a collective holds this facade, and the
        # machine must stay free to go when its owner drops it.
        self._machine = weakref.ref(machine)
        self.config = config if config is not None else SRMConfig()
        self.ctx = SRMContext(machine, self.config, members=group, policy=policy)

    @property
    def machine(self) -> Machine | None:
        """The machine these collectives run on (``None`` once it was freed)."""
        return self._machine()

    @property
    def policy(self) -> "SelectionPolicy":
        """The active selection policy (see :mod:`repro.core.dispatch`)."""
        return self.ctx.dispatcher.policy

    @property
    def members(self) -> tuple[int, ...]:
        """The participating global ranks (all ranks by default)."""
        return self.ctx.members

    def broadcast(self, task: "Task", buffer: np.ndarray, root: int = 0) -> ProcessGenerator:
        """Broadcast ``buffer`` from ``root`` to every member (in place)."""
        prepared = _requests.prepare_broadcast(self.ctx, task, buffer, root)
        yield from run_blocking(self.ctx, task, prepared)

    def reduce(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray | None = None,
        op: ReduceOp = SUM,
        root: int = 0,
    ) -> ProcessGenerator:
        """Combine every member's ``src`` with ``op`` into ``root``'s ``dst``."""
        prepared = _requests.prepare_reduce(self.ctx, task, src, dst, op, root)
        yield from run_blocking(self.ctx, task, prepared)

    def allreduce(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray,
        op: ReduceOp = SUM,
    ) -> ProcessGenerator:
        """Combine every member's ``src`` into every member's ``dst``."""
        prepared = _requests.prepare_allreduce(self.ctx, task, src, dst, op)
        yield from run_blocking(self.ctx, task, prepared)

    def barrier(self, task: "Task") -> ProcessGenerator:
        """Synchronize all members."""
        prepared = _requests.prepare_barrier(self.ctx, task)
        yield from run_blocking(self.ctx, task, prepared)

    # -- nonblocking one-shots (MPI_I* shape) ------------------------------

    def ibcast(self, task: "Task", buffer: np.ndarray, root: int = 0) -> CollectiveRequest:
        """Start a nonblocking broadcast; complete with ``yield from
        request.wait()``.  Argument errors raise here, never mid-schedule."""
        return _requests.start_broadcast(self.ctx, task, buffer, root)

    def ireduce(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray | None = None,
        op: ReduceOp = SUM,
        root: int = 0,
    ) -> CollectiveRequest:
        """Start a nonblocking reduce."""
        return _requests.start_reduce(self.ctx, task, src, dst, op, root)

    def iallreduce(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray,
        op: ReduceOp = SUM,
    ) -> CollectiveRequest:
        """Start a nonblocking allreduce."""
        return _requests.start_allreduce(self.ctx, task, src, dst, op)

    def ibarrier(self, task: "Task") -> CollectiveRequest:
        """Start a nonblocking barrier."""
        return _requests.start_barrier(self.ctx, task)

    # -- persistent plans (MPI_*_init shape): plan once, start repeatedly --

    def plan_broadcast(
        self, task: "Task", buffer: np.ndarray, root: int = 0
    ) -> PersistentCollective:
        """A persistent broadcast of ``buffer`` from ``root``: the dispatch
        decision, tree embedding, and buffer binding are pinned now; each
        ``plan.start()`` only claims a request and reserves its windows, or
        leaves both to the replay window (:class:`PersistentCollective`)."""
        return _requests.persistent_broadcast(self.ctx, task, buffer, root)

    def plan_reduce(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray | None = None,
        op: ReduceOp = SUM,
        root: int = 0,
    ) -> PersistentCollective:
        """A persistent reduce plan (buffers and operator bound at init)."""
        return _requests.persistent_reduce(self.ctx, task, src, dst, op, root)

    def plan_allreduce(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray,
        op: ReduceOp = SUM,
    ) -> PersistentCollective:
        """A persistent allreduce plan (buffers and operator bound at init)."""
        return _requests.persistent_allreduce(self.ctx, task, src, dst, op)

    def plan_barrier(self, task: "Task") -> PersistentCollective:
        """A persistent barrier plan."""
        return _requests.persistent_barrier(self.ctx, task)

    # -- block-data extensions (RMA-native, see internode/gatherscatter) --

    def scatter(
        self,
        task: "Task",
        sendbuf: np.ndarray | None,
        recvbuf: np.ndarray,
        root: int = 0,
    ) -> ProcessGenerator:
        """Distribute ``root``'s blocks: member *i* receives block *i*."""
        prepared = prepare_scatter(self.ctx, task, sendbuf, recvbuf, root)
        yield from run_blocking(self.ctx, task, prepared)

    def gather(
        self,
        task: "Task",
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        root: int = 0,
    ) -> ProcessGenerator:
        """Collect every member's block into ``root``'s ``recvbuf``."""
        prepared = prepare_gather(self.ctx, task, sendbuf, recvbuf, root)
        yield from run_blocking(self.ctx, task, prepared)

    def allgather(
        self,
        task: "Task",
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
    ) -> ProcessGenerator:
        """Every member's block, concatenated, delivered to every member."""
        prepared = prepare_allgather(self.ctx, task, sendbuf, recvbuf)
        yield from run_blocking(self.ctx, task, prepared)

    def alltoall(
        self,
        task: "Task",
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
    ) -> ProcessGenerator:
        """Personalized exchange: my block *j* reaches member *j*."""
        prepared = prepare_alltoall(self.ctx, task, sendbuf, recvbuf)
        yield from run_blocking(self.ctx, task, prepared)

    def scan(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray,
        op: ReduceOp = SUM,
    ) -> ProcessGenerator:
        """Inclusive prefix reduction in group-member order."""
        prepared = prepare_scan(self.ctx, task, src, dst, op)
        yield from run_blocking(self.ctx, task, prepared)

    def reduce_scatter(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray,
        op: ReduceOp = SUM,
    ) -> ProcessGenerator:
        """Block-regular reduce-scatter: ``dst`` gets my block of the sum
        (two chained calls: reduce, then the RMA-native scatter)."""
        members = self.ctx.members
        if src.nbytes != dst.nbytes * len(members):
            raise ValueError("reduce_scatter src must hold one block per member")
        require_contiguous("reduce_scatter", dst=dst)
        root = self.ctx.group_root
        scratch = (
            np.empty(src.reshape(-1).shape, dtype=src.dtype)
            if task.rank == root
            else None
        )
        yield from self.reduce(task, src, scratch, op, root=root)
        yield from self.scatter(task, scratch, dst, root=root)
