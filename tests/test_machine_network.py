"""Unit tests for the network-transfer primitive, memops, and reduction ops."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.machine import ClusterSpec, Machine, network_transfer
from repro.machine.memops import raw_copyto
from repro.mpi.ops import SUM, by_name


@pytest.fixture
def machine():
    return Machine(ClusterSpec(nodes=2, tasks_per_node=2))


# ---------------------------------------------------------------------------
# network_transfer
# ---------------------------------------------------------------------------


def test_transfer_time_is_latency_plus_bandwidth(machine):
    nbytes = 1_000_000

    def program(task):
        yield from network_transfer(machine.nodes[0], machine.nodes[1], nbytes)

    elapsed = machine.launch(program, ranks=[0]).elapsed
    cost = machine.cost
    assert elapsed == pytest.approx(cost.net_latency + nbytes / cost.net_bandwidth, rel=0.01)


def test_zero_byte_transfer_is_pure_latency(machine):
    def program(task):
        yield from network_transfer(machine.nodes[0], machine.nodes[1], 0)

    elapsed = machine.launch(program, ranks=[0]).elapsed
    assert elapsed == pytest.approx(machine.cost.net_latency)


def test_same_node_transfer_rejected(machine):
    def program(task):
        yield from network_transfer(machine.nodes[0], machine.nodes[0], 10)

    with pytest.raises(ProtocolError):
        machine.launch(program, ranks=[0])


def test_concurrent_transfers_share_the_nic(machine):
    nbytes = 1_000_000

    def program(task):
        yield from network_transfer(machine.nodes[0], machine.nodes[1], nbytes)

    # Both ranks on node 0 stream to node 1 at once: NIC-out splits.
    result = machine.launch(program, ranks=[0, 1])
    expected = machine.cost.net_latency + 2 * nbytes / machine.cost.net_bandwidth
    assert result.elapsed == pytest.approx(expected, rel=0.02)


def test_opposite_directions_do_not_contend(machine):
    nbytes = 1_000_000

    def program(task):
        if task.rank == 0:
            yield from network_transfer(machine.nodes[0], machine.nodes[1], nbytes)
        else:
            yield from network_transfer(machine.nodes[1], machine.nodes[0], nbytes)

    result = machine.launch(program, ranks=[0, 2])
    # Full duplex: same time as a single transfer.
    expected = machine.cost.net_latency + nbytes / machine.cost.net_bandwidth
    assert result.elapsed == pytest.approx(expected, rel=0.05)


# ---------------------------------------------------------------------------
# raw_copyto
# ---------------------------------------------------------------------------


def test_raw_copy_same_dtype():
    src = np.arange(10, dtype=np.float64)
    dst = np.zeros(10)
    raw_copyto(dst, src)
    assert np.array_equal(dst, src)


def test_raw_copy_moves_bytes_not_values():
    src = np.arange(8, dtype=np.float64)
    dst = np.zeros(64, dtype=np.uint8)
    raw_copyto(dst, src)
    assert np.array_equal(dst.view(np.float64), src)  # bit-identical, not cast


def test_raw_copy_reverse_direction():
    src = np.arange(64, dtype=np.uint8)
    dst = np.zeros(8, dtype=np.float64)
    raw_copyto(dst, src)
    assert np.array_equal(dst.view(np.uint8), src)


# ---------------------------------------------------------------------------
# ops registry
# ---------------------------------------------------------------------------


def test_op_registry():
    assert by_name("sum") is SUM
    assert by_name("max").name == "max"
    with pytest.raises(ConfigurationError):
        by_name("xor")


def test_op_identities():
    assert SUM.identity_for(np.float64) == 0
    assert by_name("min").identity_for(np.float64) == np.inf
    assert by_name("min").identity_for(np.int32) == np.iinfo(np.int32).max
    assert by_name("max").identity_for(np.float64) == -np.inf


@pytest.mark.parametrize(
    "name, ufunc",
    [
        ("sum", np.add),
        ("prod", np.multiply),
        ("min", np.minimum),
        ("max", np.maximum),
        ("land", np.logical_and),
        ("lor", np.logical_or),
        ("band", np.bitwise_and),
        ("bor", np.bitwise_or),
    ],
)
def test_op_forms_equal_the_numpy_call(name, ufunc):
    """``op(dst, src)`` and ``op.combine_into(dst, a, b)`` are the explicit
    NumPy ufunc call with ``out=``, also when ``dst is a``."""
    rng = np.random.default_rng(11)
    if name in ("sum", "prod", "min", "max"):
        a, b = rng.standard_normal(64), rng.standard_normal(64)
    else:
        a, b = rng.integers(-3, 4, 64), rng.integers(-3, 4, 64)
    op = by_name(name)

    dst = a.copy()
    op(dst, b)
    want = a.copy()
    ufunc(want, b, out=want)
    assert dst.tobytes() == want.tobytes()

    out = np.empty_like(a)
    op.combine_into(out, a, b)
    want = np.empty_like(a)
    ufunc(a, b, out=want)
    assert out.tobytes() == want.tobytes()

    alias = a.copy()
    op.combine_into(alias, alias, b)
    assert alias.tobytes() == want.tobytes()


def test_op_combine_into_aliasing():
    a = np.array([1.0, 2.0])
    b = np.array([10.0, 20.0])
    SUM.combine_into(a, a, b)  # dst aliases a
    assert np.array_equal(a, [11.0, 22.0])


def test_logical_ops():
    land = by_name("land")
    dst = np.array([1, 0, 2], dtype=np.int64)
    land(dst, np.array([1, 1, 0], dtype=np.int64))
    assert np.array_equal(dst, [1, 0, 0])
    lor = by_name("lor")
    out = np.zeros(3, dtype=np.int64)
    lor.combine_into(out, np.array([0, 1, 0]), np.array([0, 0, 2]))
    assert np.array_equal(out, [0, 1, 1])


def test_logical_ops_preserve_dtype_and_support_aliasing():
    # logical_and/or with out= must write 0/1 back in the destination's own
    # dtype (no bool temporaries) and tolerate dst aliasing an operand.
    land, lor = by_name("land"), by_name("lor")
    dst = np.array([0.5, 0.0, 3.0], dtype=np.float64)
    land(dst, np.array([1.0, 1.0, 0.0]))
    assert dst.dtype == np.float64
    assert np.array_equal(dst, [1.0, 0.0, 0.0])
    alias = np.array([0, 2, 0], dtype=np.uint8)
    lor.combine_into(alias, alias, np.array([0, 0, 5], dtype=np.uint8))
    assert alias.dtype == np.uint8
    assert np.array_equal(alias, [0, 1, 1])
    assert land.identity_for(np.int32) == 1
    assert lor.identity_for(np.float64) == 0


def test_bitwise_ops():
    band = by_name("band")
    dst = np.array([0b1100], dtype=np.int64)
    band(dst, np.array([0b1010], dtype=np.int64))
    assert dst[0] == 0b1000
    bor = by_name("bor")
    out = np.zeros(1, dtype=np.int64)
    bor.combine_into(out, np.array([0b01]), np.array([0b10]))
    assert out[0] == 0b11
