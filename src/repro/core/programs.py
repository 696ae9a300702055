"""The per-operation workload of the paper's evaluation, written once.

The paper times each collective as one fixed workload (§3): repeated
back-to-back broadcast, reduce, allreduce and barrier calls, reductions with
the ``sum`` operator over ``double`` elements.  :data:`PROGRAMS` maps each
operation name to its row, a :class:`Program` subclass.  An instance holds
one run's per-rank buffers and knows how to

* write the input of window *w* (window 0 is the allocated input: the
  broadcast root's buffer holds 7 and rank ``r`` contributes ``r + 1``),
* make one blocking call on any collective stack (SRM or the MPI
  baselines),
* build the persistent ``plan_*`` on SRM and rebind it to these buffers,
* list the result arrays, in the order the verifier digests them, and
* check them against the NumPy truth.

The benchmark runner, the schedule verifier and the ``trace``/``profile``
commands (:func:`~repro.bench.trace.trace_call`) all drive these rows, so
adding an operation is one new row.  The module imports neither
:mod:`repro.bench` nor :mod:`repro.verify`, so each of those loads without
the other.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.errors import ConfigurationError
from repro.mpi.ops import SUM, ReduceOp

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.requests import PersistentCollective
    from repro.machine.cluster import Task
    from repro.sim.process import ProcessGenerator

__all__ = ["Program", "PROGRAMS", "program_for"]


class Program:
    """One run of one operation: its buffers, its call, its truth.

    The defaults describe an operation without data: nothing to refill or
    rebind, no result arrays, and completion is the whole truth.
    """

    #: Operation name; a key of :data:`PROGRAMS`.
    name = ""
    #: False for an operation that moves no data: its size does not matter.
    moves_data = True

    def __init__(self, total: int, nbytes: int = 0, root: int = 0, op: ReduceOp = SUM) -> None:
        # Rows size their buffers with max(1, ...): zero bytes runs on
        # one-element buffers, but a negative size is a caller error.
        if nbytes < 0:
            raise ConfigurationError(f"message size must be >= 0, got {nbytes}")
        self.total = total
        self.root = root
        self.op = op

    def call(self, stack: typing.Any, task: "Task") -> "ProcessGenerator":
        """One blocking call at ``task``'s rank on any collective stack."""
        raise NotImplementedError

    def plan(self, srm: typing.Any, task: "Task") -> "PersistentCollective":
        """The persistent SRM plan of the same call."""
        raise NotImplementedError

    def rebind(self, plan: "PersistentCollective") -> None:
        """Point ``plan`` (built by :meth:`plan` on another run) at these buffers."""

    def refill(self, window: int) -> None:
        """Write window ``window``'s input; window 0's is the allocated one."""

    def results(self) -> list[np.ndarray]:
        """The result arrays, in digest order."""
        return []

    def truth(self, window: int) -> bool:
        """Whether :meth:`results` hold the NumPy truth of window ``window``."""
        return True


class Broadcast(Program):
    name = "broadcast"

    def __init__(self, total: int, nbytes: int = 0, root: int = 0, op: ReduceOp = SUM) -> None:
        super().__init__(total, nbytes, root, op)
        self.buffers = [np.zeros(max(1, nbytes), dtype=np.uint8) for _ in range(total)]
        self.buffers[root][:] = self._fill(0)

    @staticmethod
    def _fill(window: int) -> int:
        return (7 + 31 * window) % 251

    def call(self, stack: typing.Any, task: "Task") -> "ProcessGenerator":
        return stack.broadcast(task, self.buffers[task.rank], root=self.root)

    def plan(self, srm: typing.Any, task: "Task") -> "PersistentCollective":
        return srm.plan_broadcast(task, self.buffers[task.rank], root=self.root)

    def rebind(self, plan: "PersistentCollective") -> None:
        plan.rebind(self.buffers[plan.task.rank])

    def refill(self, window: int) -> None:
        self.buffers[self.root][:] = self._fill(window)

    def results(self) -> list[np.ndarray]:
        return self.buffers

    def truth(self, window: int) -> bool:
        fill = self._fill(window)
        return all(np.all(buffer == fill) for buffer in self.buffers)


class _Reduction(Program):
    """Rank ``r`` contributes ``r + 1`` in every double element (§3 sums
    over doubles; byte sizes round to whole elements).  Window ``w`` adds
    ``w`` to the root's contribution, so the truth is the triangular number
    of the rank count plus ``w``; small integers keep every summation order
    bit-equal."""

    def __init__(self, total: int, nbytes: int = 0, root: int = 0, op: ReduceOp = SUM) -> None:
        super().__init__(total, nbytes, root, op)
        self.count = max(1, nbytes // 8)
        self.sources = [np.full(self.count, float(rank + 1)) for rank in range(total)]

    def refill(self, window: int) -> None:
        self.sources[self.root][:] = float(self.root + 1 + window)

    def truth(self, window: int) -> bool:
        expected = np.full(self.count, float(self.total * (self.total + 1) // 2 + window))
        return all(np.array_equal(result, expected) for result in self.results())


class Reduce(_Reduction):
    name = "reduce"

    def __init__(self, total: int, nbytes: int = 0, root: int = 0, op: ReduceOp = SUM) -> None:
        super().__init__(total, nbytes, root, op)
        self.destination = np.zeros(self.count)

    def _buffers(self, rank: int) -> tuple[np.ndarray, np.ndarray | None]:
        return self.sources[rank], self.destination if rank == self.root else None

    def call(self, stack: typing.Any, task: "Task") -> "ProcessGenerator":
        return stack.reduce(task, *self._buffers(task.rank), self.op, root=self.root)

    def plan(self, srm: typing.Any, task: "Task") -> "PersistentCollective":
        return srm.plan_reduce(task, *self._buffers(task.rank), self.op, root=self.root)

    def rebind(self, plan: "PersistentCollective") -> None:
        plan.rebind(*self._buffers(plan.task.rank))

    def results(self) -> list[np.ndarray]:
        return [self.destination]


class Allreduce(_Reduction):
    name = "allreduce"

    def __init__(self, total: int, nbytes: int = 0, root: int = 0, op: ReduceOp = SUM) -> None:
        super().__init__(total, nbytes, root, op)
        self.destinations = [np.zeros(self.count) for _ in range(total)]

    def call(self, stack: typing.Any, task: "Task") -> "ProcessGenerator":
        rank = task.rank
        return stack.allreduce(task, self.sources[rank], self.destinations[rank], self.op)

    def plan(self, srm: typing.Any, task: "Task") -> "PersistentCollective":
        rank = task.rank
        return srm.plan_allreduce(task, self.sources[rank], self.destinations[rank], self.op)

    def rebind(self, plan: "PersistentCollective") -> None:
        rank = plan.task.rank
        plan.rebind(self.sources[rank], self.destinations[rank])

    def results(self) -> list[np.ndarray]:
        return self.destinations


class Barrier(Program):
    name = "barrier"
    moves_data = False

    def call(self, stack: typing.Any, task: "Task") -> "ProcessGenerator":
        return stack.barrier(task)

    def plan(self, srm: typing.Any, task: "Task") -> "PersistentCollective":
        return srm.plan_barrier(task)


#: Operation name -> row: the paper's common set, in its figure order.
PROGRAMS: dict[str, type[Program]] = {
    row.name: row for row in (Broadcast, Reduce, Allreduce, Barrier)
}


def program_for(operation: str) -> type[Program]:
    """The row of ``operation``; unknown names raise :class:`ConfigurationError`."""
    row = PROGRAMS.get(operation)
    if row is None:
        raise ConfigurationError(
            f"unknown operation {operation!r}; expected one of {tuple(PROGRAMS)}"
        )
    return row
