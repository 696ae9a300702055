"""Tests for the machine state auditor — and, through it, a leak check over
every collective operation of every stack."""

import numpy as np
import pytest

from repro.bench import build
from repro.machine import ClusterSpec, Machine
from repro.machine.audit import audit_machine
from repro.mpi.ops import SUM


def test_fresh_machine_is_clean():
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    report = audit_machine(machine)
    assert report.clean
    assert "clean" in str(report)


def test_detects_posted_receive_leak():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=2))
    buffer = np.zeros(8, np.uint8)

    def program(task):
        request = task.mpi.irecv(1, 0, buffer)
        # Give the receive time to pass its matching overhead and post.
        yield task.engine.timeout(1e-4)
        del request  # never matched

    machine.launch(program, ranks=[0])
    report = audit_machine(machine, drain=False)
    assert not report.clean
    assert any("posted" in p for p in report.problems)


def test_detects_unexpected_message_leak():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=2))

    def program(task):
        yield from task.mpi.send(1, np.ones(64, np.uint8), tag=9)

    machine.launch(program, ranks=[0])
    report = audit_machine(machine)
    assert any("unexpected" in p for p in report.problems)
    assert any("eager pool" in p for p in report.problems)  # credit still held


def test_totals_reported():
    machine, stack = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    buffers = {r: np.zeros(1024, np.uint8) for r in range(4)}
    buffers[0][:] = 1

    def program(task):
        yield from stack.broadcast(task, buffers[task.rank], root=0)

    machine.launch(program)
    report = audit_machine(machine)
    assert report.clean, str(report)
    # The machine-wide totals are the registry's reads of the task stats.
    totals = machine.obs.metrics.summary()
    assert totals["lapi.puts"] >= 1
    assert totals["task.bytes_copied"] > 0


OPERATIONS = (
    "broadcast",
    "reduce",
    "allreduce",
    "barrier",
    "scatter",
    "gather",
    "allgather",
    "alltoall",
    "scan",
    "reduce_scatter",
)


@pytest.mark.parametrize("name", ["srm", "ibm", "mpich"])
@pytest.mark.parametrize("operation", OPERATIONS)
def test_no_leaks_after_each_operation(name, operation):
    """Every operation of every stack leaves the machine in steady state."""
    machine, stack = build(name, ClusterSpec(nodes=2, tasks_per_node=3))
    total = 6
    block = 128
    sources = {r: np.full(block, float(r + 1)) for r in range(total)}
    outs = {r: np.zeros(block) for r in range(total)}
    blockbufs = {r: np.full(block, r + 1, np.uint8) for r in range(total)}
    wide = {r: np.zeros(block * total, np.uint8) for r in range(total)}
    destination = np.zeros(block)
    fullsend = np.arange(block * total, dtype=np.uint8)

    def program(task):
        if operation == "broadcast":
            yield from stack.broadcast(task, blockbufs[task.rank], root=0)
        elif operation == "reduce":
            dst = destination if task.rank == 0 else None
            yield from stack.reduce(task, sources[task.rank], dst, SUM, root=0)
        elif operation == "allreduce":
            yield from stack.allreduce(task, sources[task.rank], outs[task.rank], SUM)
        elif operation == "barrier":
            yield from stack.barrier(task)
        elif operation == "scatter":
            src = fullsend if task.rank == 0 else None
            yield from stack.scatter(task, src, blockbufs[task.rank], root=0)
        elif operation == "gather":
            dst = wide[0] if task.rank == 0 else None
            yield from stack.gather(task, blockbufs[task.rank], dst, root=0)
        elif operation == "allgather":
            yield from stack.allgather(task, blockbufs[task.rank], wide[task.rank])
        elif operation == "alltoall":
            yield from stack.alltoall(task, wide[task.rank], np.zeros(block * total, np.uint8))
        elif operation == "scan":
            yield from stack.scan(task, sources[task.rank], outs[task.rank], SUM)
        else:
            yield from stack.reduce_scatter(task, np.ones(block * total), np.zeros(block), SUM)

    machine.launch(program)
    report = audit_machine(machine)
    assert report.clean, f"{name}/{operation}: {report}"


def test_no_leaks_after_mixed_group_work():
    from repro.core import SRM

    machine = Machine(ClusterSpec(nodes=4, tasks_per_node=2))
    members = [0, 2, 5, 7]
    srm = SRM(machine, group=members)
    sources = {r: np.full(64, float(r)) for r in members}
    outs = {r: np.zeros(64) for r in members}

    def program(task):
        for _ in range(2):
            yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)
            yield from srm.barrier(task)

    machine.launch(program, ranks=members)
    report = audit_machine(machine)
    assert report.clean, str(report)
