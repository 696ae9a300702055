"""A dropped machine frees itself, with the cyclic collector off.

Only a machine's owner holds it strongly, and no reference cycle runs
through its parts, its engine or an SRM context built on it: the machine's
finalizer releases the engine (queue, live processes, hooks), and
reference counting frees the rest.  Each case below runs with the cyclic
collector disabled, drops its references, and then requires that every
machine it built is gone and that a collection finds no cyclic garbage
whose type or function is defined in ``repro``.
"""

import dataclasses
import gc
import os
import types
import weakref

import numpy as np
import pytest

import repro
from repro.bench.snapshot import capture_cell
from repro.core import SRM
from repro.core.programs import program_for
from repro.errors import DeadlockError
from repro.machine import ClusterSpec, CostModel, Machine
from repro.sim.scheduler import RandomScheduler
from repro.verify.faults import FaultPlan
from repro.verify.runner import default_grid, run_cell_once

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _code_of(obj):
    if isinstance(obj, types.FunctionType):
        return obj.__code__
    if isinstance(obj, types.MethodType):
        return getattr(obj.__func__, "__code__", None)
    if isinstance(obj, types.GeneratorType):
        return obj.gi_code
    if isinstance(obj, types.FrameType):
        return obj.f_code
    return None


def _from_repro(obj) -> bool:
    """True for an object whose type or function is defined in ``repro``."""
    if type(obj).__module__.split(".")[0] == "repro":
        return True
    code = _code_of(obj)
    return code is not None and os.path.abspath(code.co_filename).startswith(REPRO_DIR)


def _describe(obj) -> str:
    code = _code_of(obj)
    if code is not None:
        return f"{type(obj).__name__} {code.co_qualname}"
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


@pytest.fixture
def machines(monkeypatch):
    """Weak references to every machine built in the test, which runs with
    the cyclic collector off."""
    built: list[weakref.ref] = []
    original = Machine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(Machine, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        yield built
    finally:
        gc.enable()


def _assert_freed(built: list, run) -> None:
    run()
    assert built, "the case built no machine"
    alive = [ref for ref in built if ref() is not None]
    assert not alive, f"{len(alive)} of {len(built)} machines outlived their owner"
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        leaked = sorted({_describe(obj) for obj in gc.garbage if _from_repro(obj)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


def _verify_kinds():
    """One cell per (operation, overlap) kind of the default grid, run as
    the reference and as one explored schedule with faults."""
    seen = set()
    for cell in default_grid():
        if (cell.operation, cell.overlap) in seen:
            continue
        seen.add((cell.operation, cell.overlap))
        for explored in (False, True):
            label = f"{cell.operation}-{cell.overlap}-{'explored' if explored else 'reference'}"
            yield pytest.param(cell, explored, id=label)


@pytest.mark.parametrize("cell, explored", list(_verify_kinds()))
def test_verify_runs_free_their_machines(machines, cell, explored):
    def run():
        if explored:
            run_cell_once(cell, RandomScheduler(seed=3), FaultPlan(seed=3))
        else:
            run_cell_once(cell, None)

    _assert_freed(machines, run)


@pytest.mark.parametrize("operation", ["broadcast", "reduce", "allreduce", "barrier"])
@pytest.mark.parametrize("stack", ["srm", "ibm", "mpich"])
def test_captured_cells_free_their_machines(machines, stack, operation):
    nbytes = 8 if program_for(operation).moves_data else 0
    _assert_freed(
        machines,
        lambda: capture_cell(stack, operation, nbytes, nodes=2, tasks_per_node=3, repeats=2),
    )


def test_a_persistent_session_frees_its_machine(machines):
    """Replay hits and a rebind: the replay manager's traces hold plans,
    contexts and buffers, and the machine still goes."""

    def run():
        machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
        srm = SRM(machine)
        rows = program_for("allreduce")(4, 64)
        plans = [rows.plan(srm, machine.task(rank)) for rank in range(4)]
        for window in range(8):
            if window == 6:
                rows = program_for("allreduce")(4, 64)
                for plan in plans:
                    rows.rebind(plan)
            rows.refill(window)
            requests = [plan.start() for plan in plans]
            machine.engine.run()
            assert all(request.completed for request in requests)
        assert machine.engine.trace.hit_count > 0

    _assert_freed(machines, run)


def test_a_machine_with_daemon_noise_frees_itself(machines):
    """Each node's daemon process never ends; the finalizer closes it."""

    def run():
        cost = dataclasses.replace(CostModel.ibm_sp_colony(), daemon_interval=50e-6)
        machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2), cost=cost)
        srm = SRM(machine)
        rows = program_for("broadcast")(4, 1024)
        machine.launch(lambda task: rows.call(srm, task))
        names = {process.name for process in machine.engine.blocked_processes()}
        assert {"daemon[0]", "daemon[1]"} <= names

    _assert_freed(machines, run)


def test_a_deadlocked_run_frees_its_machine(machines):
    """Only rank 1 enters the broadcast: its request's process blocks
    forever, waiting on a counter the machine's plans hold."""

    def run():
        machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
        srm = SRM(machine)

        def program(task):
            request = srm.ibcast(task, np.zeros(8), root=0)
            yield from request.wait()

        try:
            machine.launch(program, ranks=[1])
        except DeadlockError:
            pass
        else:  # pragma: no cover - the case must deadlock
            raise AssertionError("the run did not deadlock")

    _assert_freed(machines, run)


def test_parts_held_alone_do_not_keep_their_machine(machines):
    """A held task or SRM keeps its own parts, not the machine."""
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    srm = SRM(machine)
    task = machine.task(3)
    assert task.machine is machine and srm.machine is machine
    del machine
    assert task.machine is None and srm.machine is None
    assert srm.ctx.tasks[3] is task
    assert task.lapi.node is task.node and task.node.bus.engine is task.engine


def test_a_run_that_raises_is_still_collectable(machines):
    """An exception raised out of a process keeps, in its traceback, the
    frames that hold the machine, and the failed events that hold the
    exception stay queued: that cycle is left to the cyclic collector.  It
    must stay collectable — nothing may hold the machine from outside."""

    def run():
        machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
        srm = SRM(machine)

        def program(task):
            yield from srm.broadcast(task, np.zeros(8), root=0)
            if task.rank == 3:
                raise ValueError("a program error")

        try:
            machine.launch(program)
        except ValueError:
            pass

    run()
    gc.collect()
    assert [ref for ref in machines if ref() is not None] == []
