"""Request-based nonblocking and persistent collectives.

The blocking facade re-resolves its dispatch decision and re-derives its
chunking on every call, even though the paper's design (§2.2) is built on
*reusing* shared buffers, flags, and counters across calls.  This module
factors one collective invocation into three phases so the first two can be
hoisted out of the per-call path:

1. **prepare** — validate arguments, look up the cached plan/node state, and
   resolve the dispatch :class:`~repro.core.dispatch.Decision` (chunking,
   variant, interrupt management).  A persistent plan does this exactly once,
   at init.
2. **reserve** — synchronously claim the invocation's sequence windows from
   the context's :class:`~repro.core.context.SequenceLedger` into an
   :class:`~repro.core.context.InvocationState`: broadcast/reduce chunk
   sequences, streamed-chunk thresholds, per-edge staging parities, the
   exchange call number.  Reservation at ``start()`` is what lets several
   invocations of one plan be in flight without aliasing a buffer slot.
3. **run the body** — the protocol generator, parameterized by the reserved
   window, executing inside either the caller (blocking) or a spawned
   progress process (nonblocking/persistent).

Ordering guarantees (the MPI persistent/nonblocking collective contract):
within one context (communicator), one rank's requests run in *started*
order — request *k+1*'s body is gated on request *k*'s completion at that
rank — and every rank must start a context's collectives in the same order.
Across contexts there is no ordering: requests on disjoint groups progress
concurrently.  Overlap within one context comes from cross-rank skew (rank 0
can be two invocations ahead of rank 7's wait).

This is the only way into an SRM collective.  A blocking call
(:func:`run_blocking`) is an *inline* request: ``start()`` reserves,
``wait()`` runs the body in the calling process via ``yield from`` — zero
extra events when the chain is idle.  The extension operations (scatter,
gather, allgather, alltoall, scan; their ``prepare_*`` live beside their
protocols) claim no window at start (:func:`unreserved`); the windows of
their sub-collectives and SMP fan-outs are reserved inside the body, after
the chain gate, through :func:`run_nested`.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.context import InvocationState, SRMContext
from repro.core.internode.allreduce import allreduce_body, reserve_allreduce
from repro.core.internode.barrier import barrier_body
from repro.core.internode.broadcast import broadcast_body, reserve_broadcast
from repro.core.internode.reduce import reduce_body, reserve_reduce
from repro.core.replay import manager_for
from repro.machine.memops import require_contiguous
from repro.obs.taxonomy import REQUEST
from repro.sim.events import Event
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.dispatch import Decision
    from repro.machine.cluster import Task
    from repro.mpi.ops import ReduceOp

__all__ = [
    "CollectiveRequest",
    "PersistentCollective",
    "run_blocking",
    "run_nested",
    "unreserved",
    "start_broadcast",
    "start_reduce",
    "start_allreduce",
    "start_barrier",
    "persistent_broadcast",
    "persistent_reduce",
    "persistent_allreduce",
    "persistent_barrier",
]

#: A prepare result: the pinned decision plus the reserve/body closures.
Prepared = tuple[
    "Decision | None",
    typing.Callable[[], InvocationState],
    typing.Callable[[InvocationState], ProcessGenerator],
]


class CollectiveRequest:
    """One rank's handle on one started collective invocation.

    Mirrors an MPI request: :meth:`test` polls completion, :meth:`wait`
    blocks (``yield from request.wait()`` inside a simulated program) and
    returns the operation's value.  Requests of one rank within one context
    are chained in started order; the chain gate is skipped when the
    predecessor already completed — which is always the case for purely
    blocking programs, keeping them byte-identical to the legacy path.
    """

    __slots__ = (
        "ctx",
        "task",
        "op",
        "root",
        "invocation",
        "_body",
        "_process",
        "_predecessor",
        "_completion",
        "_done",
        "_value",
        "_inline",
    )

    def __init__(
        self,
        ctx: SRMContext,
        task: "Task",
        invocation: InvocationState,
        body: ProcessGenerator,
        inline: bool,
        deferred: bool = False,
    ) -> None:
        self.ctx = ctx
        self.task = task
        self.op = invocation.op
        self.root = invocation.root
        self.invocation = invocation
        self._body = body
        self._inline = inline
        self._process = None
        self._completion: Event | None = None
        self._done = False
        self._value: typing.Any = None
        self._predecessor: CollectiveRequest | None = ctx._request_tail.get(task.rank)
        ctx._request_tail[task.rank] = self
        if not inline and not deferred:
            self._spawn()

    def _spawn(self) -> None:
        """Materialize the progress process (idempotent).

        Deferred starts (:mod:`repro.core.replay`) spawn at the next run
        flush when their window cannot replay from a compiled schedule.
        """
        if self._process is not None or self._done:
            return
        self._process = self.task.engine.process(
            self._run(),
            name=f"req:{self.op}[{self.task.rank}]#{self.invocation.sequence}",
        )

    def _replay_complete(self, value: typing.Any) -> None:
        """Complete this request from a compiled-schedule replay."""
        self._done = True
        self._value = value
        # Passed the gate: holding the predecessor would chain every
        # replayed request of this rank into one ever-growing list.
        self._predecessor = None
        if self._completion is not None:
            self._completion.succeed(value)

    # -- state ---------------------------------------------------------------

    @property
    def completed(self) -> bool:
        """True once the operation finished at this rank."""
        process = self._process
        if process is not None:
            return process.triggered
        return self._done

    def test(self) -> bool:
        """Nonblocking completion poll (MPI_Test without the blocking arm)."""
        return self.completed

    def describe(self) -> str:
        """Human-readable identity for deadlock reports and logs."""
        root = "" if self.root is None else f"root={self.root}"
        return f"{self.op}({root})#{self.invocation.sequence} at rank {self.task.rank}"

    def __repr__(self) -> str:
        state = "done" if self.completed else "in-flight"
        return f"<CollectiveRequest {self.describe()} {state}>"

    # -- progress ------------------------------------------------------------

    def _completion_event(self) -> Event:
        """An event firing at this request's completion (for successors)."""
        if self._process is not None:
            return typing.cast(Event, self._process)
        # Inline requests and deferred (replayable) requests complete via an
        # explicit event: wait()'s inline arm or _replay_complete fires it.
        if self._completion is None:
            self._completion = Event(
                self.task.engine, name=f"req-done:{self.op}[{self.task.rank}]"
            )
        return self._completion

    def _gate_on_predecessor(self) -> ProcessGenerator:
        """Block until the previous request of this rank completed.

        The per-rank, per-context started-order chain — MPI's ordering
        guarantee for collectives on one communicator.  A no-op (no events)
        when the predecessor already finished, so blocking programs pay
        nothing.
        """
        predecessor = self._predecessor
        if predecessor is not None and not predecessor.completed:
            yield predecessor._completion_event()
        self._predecessor = None

    def _run(self) -> ProcessGenerator:
        """Progress-process body for nonblocking/persistent requests."""
        yield from self._gate_on_predecessor()
        # Zero-duration marker attributing this process's spans to the
        # owning request (same precedent as the DISPATCH marker).
        with self.task.phase(REQUEST, detail=self.describe()):
            pass
        value = yield from self._body
        self._done = True
        self._value = value
        return value

    def wait(self) -> ProcessGenerator:
        """Complete the request; yields from inside a simulated program.

        Inline (blocking-facade) requests run their body in the calling
        process; process-mode requests join their progress process.  Returns
        the operation's value; waiting an already-completed request returns
        immediately.
        """
        if self._inline:
            if self._done:
                return self._value
            yield from self._gate_on_predecessor()
            value = yield from self._body
            self._done = True
            self._value = value
            if self._completion is not None:
                self._completion.succeed(value)
            return value
        if self._process is None:
            # Deferred start: replayed windows are already done; a wait that
            # somehow precedes the run flush materializes the slow path.
            if self._done:
                return self._value
            self._spawn()
        process = self.task.engine.active_process
        if process is not None:
            process.waiting_request = self
        try:
            value = yield self._process
        finally:
            if process is not None:
                process.waiting_request = None
        return value


class PersistentCollective:
    """A reusable collective plan: bindings pinned at init, started freely.

    The MPI ``MPI_Bcast_init`` shape: arguments are validated, the dispatch
    decision resolved, and the tree/counter/buffer bindings captured once;
    every :meth:`start` afterwards only reserves an invocation window and
    spawns the progress process — the per-call setup cost is amortized
    across all starts.
    """

    def __init__(
        self,
        ctx: SRMContext,
        task: "Task",
        op: str,
        root: int | None,
        decision: "Decision | None",
        reserve: typing.Callable[[], InvocationState],
        body: typing.Callable[[InvocationState], ProcessGenerator],
        rebuild: typing.Callable[..., Prepared] | None = None,
    ) -> None:
        self.ctx = ctx
        self.task = task
        self.op = op
        self.root = root
        #: The dispatch decision pinned at init (None for barrier's
        #: decision-light path — only interrupt management is pinned).
        self.decision = decision
        self._reserve = reserve
        self._body = body
        self._rebuild = rebuild
        #: Number of times this plan has been started.
        self.starts = 0
        #: Bumped by :meth:`invalidate`; part of every compiled-schedule key,
        #: so stale traces can never match a rebound plan.
        self._generation = 0

    def start(self) -> CollectiveRequest:
        """Begin one invocation; returns its request handle.

        When compiled replay is enabled (:attr:`SRMConfig.compiled_replay`)
        and the engine is idle, the start is *deferred*: the next plain
        ``engine.run()`` either replays a cached :class:`CompiledSchedule`
        for the whole window of deferred starts or materializes (and
        records) the slow path.  Starts issued from inside a running
        process always spawn immediately, exactly as before.
        """
        invocation = self._reserve()
        invocation.sequence = self.ctx.ledger.reserve(("request", self.task.rank), 1)
        body = self._body(invocation)
        self.starts += 1
        if self.ctx.config.compiled_replay:
            manager = manager_for(self.task.engine)
            if manager.accepts(self):
                request = CollectiveRequest(
                    self.ctx, self.task, invocation, body, inline=False, deferred=True
                )
                manager.defer(self, invocation, request)
                return request
        return CollectiveRequest(self.ctx, self.task, invocation, body, inline=False)

    def invalidate(self) -> None:
        """Drop every compiled schedule recorded against this plan.

        Must be called (and is called by :meth:`rebind`) whenever the plan's
        buffer bindings change; a replay against stale bindings would move
        the wrong bytes.
        """
        self._generation += 1
        trace = self.task.engine.trace
        if trace is not None:
            trace.invalidate_plan(self)

    def rebind(self, *args: typing.Any, **kwargs: typing.Any) -> "PersistentCollective":
        """Re-prepare this plan against new buffer arguments (in place).

        Arguments mirror the plan's ``persistent_*`` constructor (minus
        ``ctx``/``task``/``root``).  Cached compiled schedules are
        invalidated; the next start re-records.
        """
        if self._rebuild is None:
            raise TypeError(f"persistent {self.op} plan does not support rebind")
        decision, reserve, body = self._rebuild(*args, **kwargs)
        self.decision = decision
        self._reserve = reserve
        self._body = body
        self.invalidate()
        return self

    def __repr__(self) -> str:
        return (
            f"<PersistentCollective {self.op} rank {self.task.rank} "
            f"starts={self.starts}>"
        )


# ---------------------------------------------------------------------------
# per-operation prepare (validate + plan lookup + dispatch + closures)
# ---------------------------------------------------------------------------


def _managing_interrupts(
    decision: "Decision", task: "Task", body: typing.Callable[[InvocationState], ProcessGenerator]
) -> typing.Callable[[InvocationState], ProcessGenerator]:
    """``body`` under the decision's §2.3 interrupt management: arrival
    interrupts off for the whole invocation, back on however it ends."""
    if not decision.manage_interrupts:
        return body

    def managed(invocation: InvocationState) -> ProcessGenerator:
        task.lapi.set_interrupts(False)
        try:
            return (yield from body(invocation))
        finally:
            task.lapi.set_interrupts(True)

    return managed


def prepare_broadcast(
    ctx: SRMContext,
    task: "Task",
    buffer: np.ndarray,
    root: int = 0,
) -> Prepared:
    ctx.validate("broadcast", buffer.nbytes, task.rank, root=root)
    require_contiguous("broadcast", buffer=buffer)
    plan = ctx.bcast_plan(root)
    state = ctx.node_state(task)
    decision = ctx.dispatch("broadcast", buffer.nbytes, task)
    chunks = list(decision.chunks)
    large = decision.variant == "large"

    def reserve() -> InvocationState:
        invocation = InvocationState(op="broadcast", root=root)
        return reserve_broadcast(ctx, plan, task, chunks, large, invocation)

    def body(invocation: InvocationState) -> ProcessGenerator:
        return broadcast_body(ctx, plan, state, task, buffer, chunks, large, invocation)

    return decision, reserve, _managing_interrupts(decision, task, body)


def prepare_reduce(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray | None,
    op: "ReduceOp",
    root: int = 0,
) -> Prepared:
    ctx.validate("reduce", src.nbytes, task.rank, root=root)
    plan = ctx.reduce_plan(root)
    state = ctx.node_state(task)
    if task.rank == root and dst is None:
        raise ValueError("the reduce root needs a destination buffer")
    decision = ctx.dispatch("reduce", src.nbytes, task)
    chunks = list(decision.chunks)

    def reserve() -> InvocationState:
        invocation = InvocationState(op="reduce", root=root)
        return reserve_reduce(ctx, plan, task, chunks, invocation)

    def body(invocation: InvocationState) -> ProcessGenerator:
        return reduce_body(
            ctx, plan, state, task, src, dst, op, chunks, None, invocation
        )

    return decision, reserve, _managing_interrupts(decision, task, body)


def prepare_allreduce(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray,
    op: "ReduceOp",
) -> Prepared:
    ctx.validate("allreduce", src.nbytes, task.rank)
    require_contiguous("allreduce", dst=dst)
    if dst.nbytes != src.nbytes:
        raise ValueError(
            f"allreduce dst ({dst.nbytes} B) must match src ({src.nbytes} B)"
        )
    decision = ctx.dispatch("allreduce", src.nbytes, task)

    def reserve() -> InvocationState:
        return reserve_allreduce(ctx, task, decision, src)

    def body(invocation: InvocationState) -> ProcessGenerator:
        return allreduce_body(ctx, task, src, dst, op, decision, invocation)

    return decision, reserve, _managing_interrupts(decision, task, body)


def unreserved(op: str, root: int | None = None) -> typing.Callable[[], InvocationState]:
    """The reserve closure of an operation that claims no window at start.

    Barrier needs none (binary check-in flags, consumed dissemination
    counters).  The extension operations claim theirs inside the body,
    which runs after the chain gate.  Either way the gate alone orders
    their invocations.
    """
    return lambda: InvocationState(op=op, root=root)


def prepare_barrier(ctx: SRMContext, task: "Task") -> Prepared:
    ctx.validate("barrier", 0, task.rank)
    decision = ctx.dispatch("barrier", 0, task)

    def body(invocation: InvocationState) -> ProcessGenerator:
        return barrier_body(ctx, task)

    return decision, unreserved("barrier"), _managing_interrupts(decision, task, body)


# ---------------------------------------------------------------------------
# start (blocking, one-shot, nested) / persistent constructors
# ---------------------------------------------------------------------------


def _start(
    ctx: SRMContext, task: "Task", prepared: Prepared, inline: bool = False
) -> CollectiveRequest:
    _decision, reserve, body = prepared
    invocation = reserve()
    invocation.sequence = ctx.ledger.reserve(("request", task.rank), 1)
    return CollectiveRequest(ctx, task, invocation, body(invocation), inline)


def run_blocking(ctx: SRMContext, task: "Task", prepared: Prepared) -> ProcessGenerator:
    """Start one blocking call as an inline request on ``task``'s chain;
    the returned generator completes it in the calling process."""
    return _start(ctx, task, prepared, inline=True).wait()


def run_nested(prepared: Prepared) -> ProcessGenerator:
    """Reserve a sub-collective's window now and return its body, to run
    inside the parent request's body.

    The parent already passed the chain gate, so reserving now keeps this
    rank's windows in started order.  Starting the sub-collective as a
    request instead would chain it behind its own parent — a deadlock.
    """
    _decision, reserve, body = prepared
    return body(reserve())


def start_broadcast(
    ctx: SRMContext, task: "Task", buffer: np.ndarray, root: int = 0
) -> CollectiveRequest:
    """Start a nonblocking broadcast; errors raise here, never mid-schedule."""
    return _start(ctx, task, prepare_broadcast(ctx, task, buffer, root))


def start_reduce(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray | None,
    op: "ReduceOp",
    root: int = 0,
) -> CollectiveRequest:
    """Start a nonblocking reduce; errors raise here, never mid-schedule."""
    return _start(ctx, task, prepare_reduce(ctx, task, src, dst, op, root))


def start_allreduce(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray,
    op: "ReduceOp",
) -> CollectiveRequest:
    """Start a nonblocking allreduce; errors raise here, never mid-schedule."""
    return _start(ctx, task, prepare_allreduce(ctx, task, src, dst, op))


def start_barrier(ctx: SRMContext, task: "Task") -> CollectiveRequest:
    """Start a nonblocking barrier."""
    return _start(ctx, task, prepare_barrier(ctx, task))


def persistent_broadcast(
    ctx: SRMContext, task: "Task", buffer: np.ndarray, root: int = 0
) -> PersistentCollective:
    """Build a persistent broadcast plan over ``buffer`` (bound at init)."""
    decision, reserve, body = prepare_broadcast(ctx, task, buffer, root)
    return PersistentCollective(
        ctx, task, "broadcast", root, decision, reserve, body,
        rebuild=lambda new_buffer: prepare_broadcast(ctx, task, new_buffer, root),
    )


def persistent_reduce(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray | None,
    op: "ReduceOp",
    root: int = 0,
) -> PersistentCollective:
    """Build a persistent reduce plan (buffers and operator bound at init)."""
    decision, reserve, body = prepare_reduce(ctx, task, src, dst, op, root)
    return PersistentCollective(
        ctx, task, "reduce", root, decision, reserve, body,
        rebuild=lambda new_src, new_dst: prepare_reduce(ctx, task, new_src, new_dst, op, root),
    )


def persistent_allreduce(
    ctx: SRMContext,
    task: "Task",
    src: np.ndarray,
    dst: np.ndarray,
    op: "ReduceOp",
) -> PersistentCollective:
    """Build a persistent allreduce plan (buffers and operator bound at init)."""
    decision, reserve, body = prepare_allreduce(ctx, task, src, dst, op)
    return PersistentCollective(
        ctx, task, "allreduce", None, decision, reserve, body,
        rebuild=lambda new_src, new_dst: prepare_allreduce(ctx, task, new_src, new_dst, op),
    )


def persistent_barrier(ctx: SRMContext, task: "Task") -> PersistentCollective:
    """Build a persistent barrier plan."""
    decision, reserve, body = prepare_barrier(ctx, task)
    return PersistentCollective(ctx, task, "barrier", None, decision, reserve, body)
