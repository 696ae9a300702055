"""Unit tests for the Machine, Node, Task, and launch machinery."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.machine import ClusterSpec, CostModel, Machine
from repro.mpi.ops import SUM


def small_machine(**kwargs):
    return Machine(ClusterSpec(nodes=2, tasks_per_node=4), **kwargs)


def test_machine_builds_nodes_and_tasks():
    machine = small_machine()
    assert len(machine.nodes) == 2
    assert len(machine.tasks) == 8
    assert machine.task(5).node.index == 1
    assert machine.task(5).local_index == 1


def test_node_master_is_lowest_rank():
    machine = small_machine()
    assert machine.nodes[0].master_rank == 0
    assert machine.nodes[1].master_rank == 4
    assert machine.task(4).is_node_master
    assert not machine.task(5).is_node_master


def test_endpoints_attached():
    machine = small_machine()
    for task in machine.tasks:
        assert task.lapi is not None
        assert task.mpi is not None


def test_task_copy_moves_real_bytes_and_takes_time():
    machine = small_machine()
    task = machine.task(0)
    src = np.arange(1024, dtype=np.float64)
    dst = np.zeros_like(src)

    def program(t):
        yield from t.copy(dst, src)

    result = machine.launch(program, ranks=[0])
    assert np.array_equal(dst, src)
    expected = machine.cost.copy_time(src.nbytes)
    assert result.elapsed == pytest.approx(expected, rel=0.01)
    assert task.stats.copies == 1
    assert task.stats.bytes_copied == src.nbytes


def test_task_copy_size_mismatch_rejected():
    machine = small_machine()
    task = machine.task(0)

    def program(t):
        yield from t.copy(np.zeros(4), np.zeros(8))

    with pytest.raises(ProtocolError):
        machine.launch(program, ranks=[0])
    del task


def test_task_reduce_into_applies_operator():
    machine = small_machine()
    dst = np.full(100, 2.0)
    src = np.full(100, 3.0)

    def program(t):
        yield from t.reduce_into(dst, src, SUM)

    result = machine.launch(program, ranks=[0])
    assert np.all(dst == 5.0)
    assert result.elapsed == pytest.approx(machine.cost.reduce_time(dst.nbytes), rel=0.01)


def test_concurrent_copies_contend_on_bus():
    # Aggregate bus bandwidth below the sum of per-CPU demands -> slowdown.
    cost = CostModel.ibm_sp_colony().evolve(
        memory_bus_bandwidth=500e6, sm_copy_bandwidth=400e6, sm_copy_latency=0.0
    )
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=4), cost=cost)
    nbytes = 1_000_000
    buffers = [(np.zeros(nbytes, np.uint8), np.ones(nbytes, np.uint8)) for _ in range(4)]

    def program(t):
        dst, src = buffers[t.rank]
        yield from t.copy(dst, src)

    result = machine.launch(program)
    # 4 MB aggregate through a 500 MB/s bus: 8 ms, vs 2.5 ms uncontended.
    assert result.elapsed == pytest.approx(4 * nbytes / 500e6, rel=0.02)


def test_launch_returns_per_rank_results():
    machine = small_machine()

    def program(t):
        yield t.engine.timeout(1e-6 * (t.rank + 1))
        return t.rank * 10

    result = machine.launch(program)
    assert result.results == {rank: rank * 10 for rank in range(8)}
    assert result.elapsed == pytest.approx(8e-6)
    assert result.finish_times[0] < result.finish_times[7]


def test_sequential_launches_advance_time():
    machine = small_machine()

    def program(t):
        yield t.engine.timeout(1e-3)

    first = machine.launch(program)
    second = machine.launch(program)
    assert second.start_time == pytest.approx(first.end_time)
    assert machine.now == pytest.approx(2e-3)


def test_launch_subset_of_ranks():
    machine = small_machine()
    visited = []

    def program(t):
        visited.append(t.rank)
        yield t.engine.timeout(0)

    machine.launch(program, ranks=[1, 3])
    assert sorted(visited) == [1, 3]


def test_launch_empty_ranks_rejected():
    machine = small_machine()
    with pytest.raises(ConfigurationError):
        machine.launch(lambda t: iter(()), ranks=[])


def test_daemon_noise_perturbs_timing():
    spec = ClusterSpec(nodes=1, tasks_per_node=2)
    # Make the bus the bottleneck so daemon bus theft is visible.
    base = CostModel.ibm_sp_colony().evolve(memory_bus_bandwidth=400e6)
    quiet = Machine(spec, cost=base)
    noisy = Machine(spec, cost=base.evolve(daemon_interval=1e-4), seed=7)
    src = np.ones(4_000_000, np.uint8)
    dst = np.zeros_like(src)

    def program(t):
        for _ in range(5):
            yield from t.copy(dst, src)

    quiet_time = quiet.launch(program, ranks=[0]).elapsed
    noisy_time = noisy.launch(program, ranks=[0]).elapsed
    assert noisy_time > quiet_time


def test_compute_models_pure_cpu_time():
    machine = small_machine()

    def program(t):
        yield from t.compute(5e-6)

    assert machine.launch(program, ranks=[0]).elapsed == pytest.approx(5e-6)


def test_copy_on_idle_bus_resumes_once(monkeypatch):
    # Start-up and bus transfer are one link call: the copying process
    # resumes once, at completion, and the engine still processes the same
    # five events (start, start-up, wake-up, completion, process end).
    from repro.sim.process import Process

    stamps = []
    resume = Process._resume

    def counting(self, event):
        if self.name == "copier":
            stamps.append(self.engine.now)
        return resume(self, event)

    monkeypatch.setattr(Process, "_resume", counting)
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=1))
    task = machine.task(0)
    src = np.arange(4096, dtype=np.uint8)
    dst = np.zeros_like(src)

    def program():
        yield from task.copy(dst, src)

    machine.engine.process(program(), name="copier")
    machine.engine.run()
    assert np.array_equal(dst, src)
    assert stamps == [0.0, machine.cost.copy_time(4096)]
    assert machine.engine.events_processed == 5
