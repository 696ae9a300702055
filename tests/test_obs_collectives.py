"""Phase spans, flows, and critical-path coverage for the extension
collectives (scatter / gather / allgather / alltoall / scan / ring
allreduce) — the operations instrumented after the core four."""

import numpy as np
import pytest

from repro.bench import build
from repro.core import FixedPolicy, SRMConfig
from repro.machine import ClusterSpec
from repro.mpi.ops import SUM
from repro.obs.critical import critical_path
from repro.obs.taxonomy import (
    BLOCK_REGISTER,
    BLOCK_TRANSFER,
    FLOW_PUT_COUNTER,
    PIPELINE_CHUNK,
    RING_STEP,
    SCAN_CHUNK,
    WAIT_PHASES,
)


def launch(program, nodes=2, tasks=2, srm_config=None, policy=None):
    machine, stack = build(
        "srm", ClusterSpec(nodes=nodes, tasks_per_node=tasks),
        srm_config=srm_config, policy=policy,
    )
    result = machine.launch(lambda task: program(stack, task))
    return machine, result


def phase_names(machine):
    return {span.name for span in machine.obs.recorder.spans}


def run_scatter(block=1024, **kw):
    def program(stack, task):
        total = task.machine.spec.total_tasks
        send = np.arange(total * block, dtype=np.uint8) if task.rank == 0 else None
        yield from stack.scatter(task, send, np.zeros(block, np.uint8), root=0)

    return launch(program, **kw)


def run_gather(block=1024, **kw):
    def program(stack, task):
        total = task.machine.spec.total_tasks
        recv = np.zeros(total * block, np.uint8) if task.rank == 0 else None
        yield from stack.gather(task, np.full(block, task.rank, np.uint8), recv, root=0)

    return launch(program, **kw)


def run_allgather(block=1024, **kw):
    def program(stack, task):
        total = task.machine.spec.total_tasks
        recv = np.zeros(total * block, np.uint8)
        yield from stack.allgather(task, np.full(block, task.rank, np.uint8), recv)

    return launch(program, **kw)


def run_alltoall(block=512, **kw):
    def program(stack, task):
        total = task.machine.spec.total_tasks
        send = np.full(total * block, task.rank, np.uint8)
        yield from stack.alltoall(task, send, np.zeros(total * block, np.uint8))

    return launch(program, **kw)


def run_scan(nbytes=65536, **kw):
    count = nbytes // 8

    def program(stack, task):
        src = np.full(count, float(task.rank + 1))
        yield from stack.scan(task, src, np.zeros(count), SUM)

    return launch(program, **kw)


def run_ring_allreduce(nbytes=65536, nodes=4, **kw):
    count = nbytes // 8

    def program(stack, task):
        src = np.full(count, float(task.rank + 1))
        yield from stack.allreduce(task, src, np.zeros(count), SUM)

    return launch(
        program, nodes=nodes, policy=FixedPolicy({"allreduce": "ring"}), **kw
    )


# -- phase vocabulary -------------------------------------------------------


def test_scatter_records_register_and_transfer_phases():
    machine, _ = run_scatter()
    names = phase_names(machine)
    assert BLOCK_REGISTER in names
    assert BLOCK_TRANSFER in names


def test_gather_records_register_and_transfer_phases():
    machine, _ = run_gather()
    names = phase_names(machine)
    assert BLOCK_REGISTER in names
    assert BLOCK_TRANSFER in names


def test_small_allgather_composes_gather_and_broadcast_phases():
    machine, _ = run_allgather(block=64)  # well under allgather_ring_min
    names = phase_names(machine)
    assert BLOCK_REGISTER in names and BLOCK_TRANSFER in names
    assert RING_STEP not in names


def test_large_allgather_records_ring_steps():
    machine, _ = run_allgather(block=1024, nodes=4,
                               srm_config=SRMConfig(allgather_ring_min=1024))
    names = phase_names(machine)
    assert RING_STEP in names
    assert PIPELINE_CHUNK in names, "the local fan-out should record chunks"


def test_alltoall_records_register_and_transfer_phases():
    machine, _ = run_alltoall()
    names = phase_names(machine)
    assert BLOCK_REGISTER in names
    assert BLOCK_TRANSFER in names


def test_scan_records_chunk_phases():
    machine, _ = run_scan()
    spans = [s for s in machine.obs.recorder.spans if s.name == SCAN_CHUNK]
    assert spans
    # 64 KB through a smaller shared slot means several chunks per rank.
    per_rank = {}
    for span in spans:
        per_rank[span.rank] = per_rank.get(span.rank, 0) + 1
    assert set(per_rank) == set(range(machine.spec.total_tasks))


def test_ring_allreduce_records_ring_steps():
    machine, _ = run_ring_allreduce()
    spans = machine.obs.recorder.spans
    steps = [s for s in spans if s.name == RING_STEP]
    assert steps
    # Masters run 2(k-1) ring steps: k-1 reduce-scatter + k-1 allgather.
    masters = {s.rank for s in steps}
    per_master = {rank: sum(1 for s in steps if s.rank == rank) for rank in masters}
    assert all(count == 2 * (4 - 1) for count in per_master.values())
    assert BLOCK_REGISTER in {s.name for s in spans}


# -- span discipline --------------------------------------------------------


@pytest.mark.parametrize(
    "run",
    [run_scatter, run_gather, run_allgather, run_alltoall, run_scan,
     run_ring_allreduce],
    ids=["scatter", "gather", "allgather", "alltoall", "scan", "ring-allreduce"],
)
def test_spans_closed_and_nested(run):
    machine, result = run()
    spans = machine.obs.recorder.spans
    assert spans
    # Persistent helpers (the broadcast forwarder) may be parked on a wait
    # when the simulation ends; every protocol span must be closed.
    open_spans = [s for s in spans if not s.closed]
    assert all(s.name in WAIT_PHASES for s in open_spans)
    closed = [s for s in spans if s.closed]
    for child in (s for s in closed if s.depth > 0):
        parent = spans[child.parent]
        assert parent.rank == child.rank
        assert parent.start <= child.start
        assert not parent.closed or parent.end >= child.end
    assert all(
        result.start_time <= s.start <= s.end <= result.end_time for s in closed
    )


# -- flows and critical path ------------------------------------------------


@pytest.mark.parametrize(
    "run",
    [run_scatter, run_gather, run_allgather, run_alltoall, run_scan,
     run_ring_allreduce],
    ids=["scatter", "gather", "allgather", "alltoall", "scan", "ring-allreduce"],
)
def test_critical_path_attribution(run):
    machine, result = run()
    path = critical_path(
        machine.obs.recorder, start=result.start_time, end=result.end_time
    )
    assert path.total == pytest.approx(result.elapsed)
    assert path.attributed >= 0.95 * result.elapsed
    assert sum(path.by_phase().values()) == pytest.approx(path.total, rel=1e-9)


def test_block_collectives_record_cross_rank_flows():
    machine, _ = run_alltoall(nodes=2, tasks=2)
    flows = [f for f in machine.obs.recorder.flows if f.kind == FLOW_PUT_COUNTER]
    assert any(f.src_rank != f.dst_rank for f in flows)


def test_ring_allreduce_critical_path_crosses_ranks():
    machine, result = run_ring_allreduce()
    path = critical_path(
        machine.obs.recorder, start=result.start_time, end=result.end_time
    )
    assert len({segment.rank for segment in path.segments}) > 1
