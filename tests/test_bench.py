"""Unit tests for the benchmark harness."""

import pytest

from repro.bench import (
    Measurement,
    build,
    clear_cache,
    format_bytes,
    format_us,
    measure,
    message_sizes,
    processor_configs,
    ratio_percent,
    small_message_sizes,
    sweep,
    table,
    time_operation,
)
from repro.core import SRM
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec
from repro.mpi.collectives import IbmMpi, Mpich


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


SPEC = ClusterSpec(nodes=2, tasks_per_node=4)


def test_build_returns_matching_stack():
    machine, stack = build("srm", SPEC)
    assert isinstance(stack, SRM)
    machine, stack = build("ibm", SPEC)
    assert isinstance(stack, IbmMpi)
    machine, stack = build("mpich", SPEC)
    assert isinstance(stack, Mpich)


def test_build_unknown_stack_rejected():
    with pytest.raises(ConfigurationError):
        build("openmpi", SPEC)


def test_mpich_machine_gets_tuned_cost():
    ibm_machine, _ = build("ibm", SPEC)
    mpich_machine, _ = build("mpich", SPEC)
    assert mpich_machine.cost.mpi_send_overhead > ibm_machine.cost.mpi_send_overhead


def test_time_operation_all_operations():
    for operation in ("broadcast", "reduce", "allreduce", "barrier"):
        machine, stack = build("srm", SPEC)
        measurement = time_operation(machine, stack, operation, 256, repeats=2)
        assert measurement.seconds > 0
        assert measurement.operation == operation
        assert measurement.total_tasks == 8


def test_time_operation_validates_input():
    machine, stack = build("srm", SPEC)
    with pytest.raises(ConfigurationError):
        time_operation(machine, stack, "alltoall", 8)
    with pytest.raises(ConfigurationError):
        time_operation(machine, stack, "broadcast", 8, repeats=0)


def test_programs_reject_negative_sizes():
    from repro.core.programs import PROGRAMS

    for operation, row in PROGRAMS.items():
        with pytest.raises(ConfigurationError, match="-8"):
            row(4, -8)
        # Zero bytes still runs, on one-element buffers.
        for result in row(4, 0).results():
            assert result.size == 1, operation


def test_warmup_reaches_steady_state():
    # Repeated measurement passes on one machine stay in the same regime
    # (launch boundaries flush stalled acknowledgements, so perfect equality
    # is not expected — only stability within a factor).
    machine, stack = build("srm", SPEC)
    first = time_operation(machine, stack, "broadcast", 1024, repeats=3, warmup=1)
    second = time_operation(machine, stack, "broadcast", 1024, repeats=3, warmup=0)
    assert 0.5 * first.seconds < second.seconds < 2.0 * first.seconds


def test_measurement_repr_and_units():
    measurement = Measurement("srm", "broadcast", 64, 8, 12.5e-6, 3)
    assert measurement.microseconds == pytest.approx(12.5)
    assert "srm" in repr(measurement)


def test_measure_is_memoized():
    first = measure("srm", "broadcast", 512, nodes=2, tasks_per_node=4)
    second = measure("srm", "broadcast", 512, nodes=2, tasks_per_node=4)
    assert first is second


def test_sweep_covers_sizes():
    results = sweep("srm", "broadcast", [8, 64], nodes=2)
    assert [m.nbytes for m in results] == [8, 64]


def test_ratio_percent():
    fast = Measurement("srm", "broadcast", 8, 8, 1e-6, 1)
    slow = Measurement("ibm", "broadcast", 8, 8, 4e-6, 1)
    assert ratio_percent(fast, slow) == pytest.approx(25.0)


def test_grids_have_paper_endpoints():
    assert message_sizes()[0] == 8
    assert message_sizes()[-1] == 8 * 1024 * 1024
    assert small_message_sizes()[-1] == 64 * 1024
    assert processor_configs()[-1] == 16  # 256 CPUs at 16/node


def test_format_helpers():
    assert format_bytes(8) == "8B"
    assert format_bytes(4096) == "4KB"
    assert format_bytes(8 * 1024 * 1024) == "8MB"
    assert format_us(1.5e-6) == "1.50"
    assert "," in format_us(0.5)  # 500,000 us


def test_table_alignment():
    rendered = table(["a", "bb"], [[1, 2], [33, 44]])
    lines = rendered.splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("bb")
