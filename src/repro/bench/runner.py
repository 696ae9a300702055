"""Measurement harness: build stacks, time collectives in simulated time.

Mirrors the paper's protocol (§3): each data point is the average execution
time of repeated back-to-back calls of one operation (the paper used 1000
calls; the simulator is deterministic so a handful suffices — consecutive
calls still exercise buffer alternation and cross-call pipelining), on a
16-tasks-per-node cluster, with the ``sum`` operator over ``double``
elements for the reductions.
"""

from __future__ import annotations

import typing

from repro.core import SRM, SRMConfig
from repro.core.programs import PROGRAMS, program_for
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec, CostModel, Machine
from repro.mpi.collectives import IbmMpi, Mpich
from repro.mpi.ops import SUM, ReduceOp

__all__ = [
    "STACKS",
    "OPERATIONS",
    "build",
    "operation_body",
    "looped_program",
    "time_operation",
    "Measurement",
]

#: Stack registry: name -> builder.
STACKS = ("srm", "ibm", "mpich")

#: The paper's common set, i.e. every operation the harness can time.
OPERATIONS = tuple(PROGRAMS)


def build(
    stack: str,
    spec: ClusterSpec,
    cost: CostModel | None = None,
    srm_config: SRMConfig | None = None,
    seed: int = 0,
    policy: typing.Any = None,
) -> tuple[Machine, typing.Any]:
    """Build a fresh machine plus the named collective stack on it.

    Each stack gets its own machine so per-stack cost tuning (MPICH's
    layering overheads) and persistent state never leak across comparisons.
    ``policy`` overrides the SRM stack's protocol-selection policy (a
    :class:`~repro.core.dispatch.SelectionPolicy`); the MPI stacks, which
    have no dispatch layer, ignore it.
    """
    base = cost if cost is not None else CostModel.ibm_sp_colony()
    if stack == "srm":
        machine = Machine(spec, cost=base, seed=seed)
        return machine, SRM(machine, config=srm_config, policy=policy)
    if stack == "ibm":
        machine = Machine(spec, cost=IbmMpi.tune_cost(base), seed=seed)
        return machine, IbmMpi(machine)
    if stack == "mpich":
        machine = Machine(spec, cost=Mpich.tune_cost(base), seed=seed)
        return machine, Mpich(machine)
    raise ConfigurationError(f"unknown stack {stack!r}; expected one of {STACKS}")


class Measurement:
    """One timed data point."""

    __slots__ = ("stack", "operation", "nbytes", "total_tasks", "seconds", "repeats", "nodes")

    def __init__(
        self,
        stack: str,
        operation: str,
        nbytes: int,
        total_tasks: int,
        seconds: float,
        repeats: int,
        nodes: int = 0,
    ) -> None:
        self.stack = stack
        self.operation = operation
        self.nbytes = nbytes
        self.total_tasks = total_tasks
        self.seconds = seconds
        self.repeats = repeats
        #: Node count of the cluster shape (0 when built by hand without one).
        self.nodes = nodes

    @property
    def microseconds(self) -> float:
        return self.seconds * 1e6

    def __repr__(self) -> str:
        return (
            f"<{self.stack} {self.operation} {self.nbytes}B P={self.total_tasks}: "
            f"{self.microseconds:.2f}us>"
        )


def operation_body(
    machine: Machine,
    stack: typing.Any,
    operation: str,
    nbytes: int = 0,
    root: int = 0,
    op: ReduceOp = SUM,
) -> typing.Callable:
    """The per-task generator body for one call of ``operation``.

    Shared by :func:`time_operation`, the snapshot capture in
    :mod:`repro.bench.snapshot`, the autotuner and the ``trace``/``profile``
    commands, so all of them time exactly the same workload: the
    :data:`~repro.core.programs.PROGRAMS` row, its buffers allocated once
    and reused call-to-call.
    """
    run = program_for(operation)(machine.spec.total_tasks, nbytes, root, op)

    def body(task, _iteration):
        yield from run.call(stack, task)

    return body


def looped_program(body: typing.Callable, iterations: int) -> typing.Callable:
    """A per-task program running ``body`` ``iterations`` times back-to-back."""

    def program(task):
        for iteration in range(iterations):
            yield from body(task, iteration)

    return program


def time_operation(
    machine: Machine,
    stack: typing.Any,
    operation: str,
    nbytes: int = 0,
    root: int = 0,
    op: ReduceOp = SUM,
    repeats: int = 3,
    warmup: int = 1,
) -> Measurement:
    """Average simulated seconds per call of ``operation`` on ``stack``.

    ``warmup`` unmeasured calls first populate buffers/plans (and leave the
    double-buffer cursors mid-stream, like the paper's 1000-call loops),
    then ``repeats`` back-to-back calls are timed as one launch.
    """
    if repeats < 1 or warmup < 0:
        raise ConfigurationError("repeats must be >= 1 and warmup >= 0")
    body = operation_body(machine, stack, operation, nbytes, root, op)
    if warmup:
        machine.launch(looped_program(body, warmup))
    result = machine.launch(looped_program(body, repeats))
    return Measurement(
        stack=getattr(stack, "name", type(stack).__name__),
        operation=operation,
        nbytes=nbytes,
        total_tasks=machine.spec.total_tasks,
        seconds=result.elapsed / repeats,
        repeats=repeats,
        nodes=machine.spec.nodes,
    )
