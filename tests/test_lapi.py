"""Unit tests for the LAPI-like RMA substrate."""

import numpy as np
import pytest

from repro.errors import ProtocolError, VerificationError
from repro.lapi import LapiCounter
from repro.machine import ClusterSpec, CostModel, Machine


@pytest.fixture
def machine():
    return Machine(ClusterSpec(nodes=2, tasks_per_node=4))


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def test_counter_increment_and_get(machine):
    counter = LapiCounter(machine.engine)
    counter.increment()
    counter.increment(3)
    assert counter.value == 4


def test_counter_waitcntr_consumes(machine):
    counter = machine.task(0).lapi.counter()

    def incrementer(t):
        yield t.engine.timeout(1e-6)
        counter.increment(2)

    def waiter(t):
        yield from t.lapi.waitcntr(counter, 2)
        return counter.value

    def program(t):
        if t.rank == 0:
            result = yield from waiter(t)
            return result
        yield from incrementer(t)

    result = machine.launch(program, ranks=[0, 1])
    assert result.results[0] == 0  # wait consumed the 2


def test_counter_wait_already_satisfied(machine):
    counter = machine.task(0).lapi.counter(initial=5)

    def program(t):
        yield from t.lapi.waitcntr(counter, 3)
        return counter.value

    result = machine.launch(program, ranks=[0])
    assert result.results[0] == 2


def test_counter_validation(machine):
    counter = LapiCounter(machine.engine)
    with pytest.raises(ProtocolError):
        counter.increment(0)
    # Over-consuming is the machine's default (strict) verifier's rule.
    with pytest.raises(VerificationError, match="counter-over-consume"):
        counter.consume(1)
    with pytest.raises(ProtocolError):
        counter.set(-1)
    with pytest.raises(ProtocolError):
        LapiCounter(machine.engine, initial=-2)


def test_counter_set_wakes_waiters(machine):
    counter = machine.task(0).lapi.counter()

    def setter(t):
        yield t.engine.timeout(1e-6)
        counter.set(10)

    def program(t):
        if t.rank == 0:
            yield from t.lapi.waitcntr(counter, 10)
            return True
        yield from setter(t)

    assert machine.launch(program, ranks=[0, 1]).results[0]


# ---------------------------------------------------------------------------
# Put
# ---------------------------------------------------------------------------


def test_put_moves_data_across_nodes(machine):
    src = np.arange(100, dtype=np.float64)
    dst = np.zeros_like(src)
    target_counter = machine.task(4).lapi.counter()

    def program(t):
        if t.rank == 0:
            yield from t.lapi.put(4, dst, src, target_counter=target_counter)
        else:
            yield from t.lapi.waitcntr(target_counter, 1)

    machine.launch(program, ranks=[0, 4])
    assert np.array_equal(dst, src)


def test_put_timing_is_latency_plus_bandwidth(machine):
    nbytes = 1_000_000
    src = np.ones(nbytes, np.uint8)
    dst = np.zeros_like(src)
    target_counter = machine.task(4).lapi.counter()

    def program(t):
        if t.rank == 0:
            yield from t.lapi.put(4, dst, src, target_counter=target_counter)
        else:
            yield from t.lapi.waitcntr(target_counter, 1)

    cost = machine.cost
    expected = (
        cost.rma_origin_overhead
        + cost.net_latency
        + nbytes / cost.net_bandwidth
        + cost.rma_target_overhead
        + cost.counter_update_cost
    )
    elapsed = machine.launch(program, ranks=[0, 4]).elapsed
    assert elapsed == pytest.approx(expected, rel=0.02)


def test_put_origin_counter_fires_at_injection(machine):
    src = np.ones(10_000, np.uint8)
    dst = np.zeros_like(src)
    origin_counter = machine.task(0).lapi.counter()

    def program(t):
        yield from t.lapi.put(4, dst, src, origin_counter=origin_counter)
        return origin_counter.value

    result = machine.launch(program, ranks=[0])
    assert result.results[0] == 1
    # Origin side returns in ~the injection overhead, not the full wire time.
    assert result.elapsed < machine.cost.wire_time(10_000)
    machine.engine.run()  # let the delivery drain
    assert np.array_equal(dst, src)


def test_put_completion_counter_includes_ack(machine):
    src = np.ones(1000, np.uint8)
    dst = np.zeros_like(src)
    completion = machine.task(0).lapi.counter()

    def program(t):
        if t.rank == 0:
            yield from t.lapi.put(4, dst, src, completion_counter=completion)
            yield from t.lapi.waitcntr(completion, 1)
            return t.engine.now
        # Target polls so delivery needs no interrupt.
        yield from t.lapi.waitcntr(t.lapi.counter(initial=1), 1)

    result = machine.launch(program, ranks=[0, 4])
    # Round trip: there and back.
    assert result.results[0] >= 2 * machine.cost.net_latency


def test_put_size_mismatch_rejected(machine):
    def program(t):
        yield from t.lapi.put(4, np.zeros(4), np.zeros(8))

    with pytest.raises(ProtocolError):
        machine.launch(program, ranks=[0])


def test_put_intra_node_is_cheap(machine):
    src = np.ones(1000, np.uint8)
    dst = np.zeros_like(src)
    counter = machine.task(1).lapi.counter()

    def program(t):
        if t.rank == 0:
            yield from t.lapi.put(1, dst, src, target_counter=counter)
        else:
            yield from t.lapi.waitcntr(counter, 1)

    elapsed = machine.launch(program, ranks=[0, 1]).elapsed
    assert elapsed < machine.cost.net_latency  # no wire hop
    assert np.array_equal(dst, src)


def test_put_snapshot_semantics(machine):
    # Origin may reuse its source buffer immediately after put returns.
    src = np.ones(100, np.uint8)
    dst = np.zeros_like(src)
    counter = machine.task(4).lapi.counter()

    def program(t):
        if t.rank == 0:
            yield from t.lapi.put(4, dst, src, target_counter=counter)
            src[:] = 99  # scribble after injection
        else:
            yield from t.lapi.waitcntr(counter, 1)

    machine.launch(program, ranks=[0, 4])
    assert np.all(dst == 1)  # the put carried the pre-scribble bytes


def test_zero_byte_put_acts_as_signal(machine):
    counter = machine.task(4).lapi.counter()
    empty = np.zeros(0, np.uint8)

    def program(t):
        if t.rank == 0:
            yield from t.lapi.put(4, empty, empty, target_counter=counter)
        else:
            yield from t.lapi.waitcntr(counter, 1)

    elapsed = machine.launch(program, ranks=[0, 4]).elapsed
    assert elapsed == pytest.approx(
        machine.cost.rma_origin_overhead
        + machine.cost.net_latency
        + machine.cost.rma_target_overhead
        + machine.cost.counter_update_cost,
        rel=0.05,
    )


# ---------------------------------------------------------------------------
# Interrupt management
# ---------------------------------------------------------------------------


def test_arrival_outside_lapi_call_pays_interrupt(machine):
    src = np.ones(100, np.uint8)
    dst = np.zeros_like(src)
    counter = machine.task(4).lapi.counter()

    def program(t):
        if t.rank == 0:
            yield from t.lapi.put(4, dst, src, target_counter=counter)
        else:
            # Target computes, never entering a LAPI call.
            yield from t.compute(1e-3)

    machine.launch(program, ranks=[0, 4])
    assert machine.task(4).stats.interrupts == 1


def test_arrival_during_waitcntr_needs_no_interrupt(machine):
    src = np.ones(100, np.uint8)
    dst = np.zeros_like(src)
    counter = machine.task(4).lapi.counter()

    def program(t):
        if t.rank == 0:
            yield from t.lapi.put(4, dst, src, target_counter=counter)
        else:
            yield from t.lapi.waitcntr(counter, 1)

    machine.launch(program, ranks=[0, 4])
    assert machine.task(4).stats.interrupts == 0


def test_interrupts_disabled_stalls_until_poll(machine):
    src = np.ones(100, np.uint8)
    dst = np.zeros_like(src)
    counter = machine.task(4).lapi.counter()
    stall_duration = 5e-3

    def program(t):
        if t.rank == 0:
            yield from t.lapi.put(4, dst, src, target_counter=counter)
        else:
            t.lapi.set_interrupts(False)
            yield from t.compute(stall_duration)  # data arrives meanwhile
            assert counter.value == 0  # delivery is stalled
            yield from t.lapi.waitcntr(counter, 1)  # polling completes it
            t.lapi.set_interrupts(True)
            return t.engine.now

    result = machine.launch(program, ranks=[0, 4])
    assert result.results[4] >= stall_duration
    assert machine.task(4).lapi.stats.stalled_deliveries == 1
    assert np.array_equal(dst, src)


# ---------------------------------------------------------------------------
# Get / rmw / active messages
# ---------------------------------------------------------------------------


def test_get_pulls_remote_data(machine):
    remote = np.arange(50, dtype=np.float64)
    local = np.zeros_like(remote)
    done = machine.task(0).lapi.counter()

    def program(t):
        if t.rank == 0:
            yield from t.lapi.get(4, local, remote, completion_counter=done)
            yield from t.lapi.waitcntr(done, 1)
        else:
            yield from t.lapi.waitcntr(t.lapi.counter(initial=1), 1)

    machine.launch(program, ranks=[0, 4])
    assert np.array_equal(local, remote)


def test_rmw_add_returns_old_value(machine):
    counter = machine.task(4).lapi.counter(initial=10)

    def program(t):
        if t.rank == 0:
            old = yield from t.lapi.rmw_add(4, counter, 5)
            return old
        yield from t.lapi.waitcntr(t.lapi.counter(initial=1), 1)

    result = machine.launch(program, ranks=[0, 4])
    assert result.results[0] == 10
    assert counter.value == 15


def test_amsend_runs_handler_at_target(machine):
    seen = []

    def handler(target_task, payload):
        seen.append((target_task.rank, payload))

    def program(t):
        if t.rank == 0:
            yield from t.lapi.amsend(4, handler, payload="hello", nbytes=64)
        else:
            yield from t.compute(1e-3)

    machine.launch(program, ranks=[0, 4])
    assert seen == [(4, "hello")]


def test_probe_releases_stalled_delivery(machine):
    src = np.ones(100, np.uint8)
    dst = np.zeros_like(src)
    counter = machine.task(4).lapi.counter()

    def program(t):
        if t.rank == 0:
            yield from t.lapi.put(4, dst, src, target_counter=counter)
        else:
            t.lapi.set_interrupts(False)
            yield from t.compute(1e-3)
            yield from t.lapi.probe()
            # After an explicit poll the delivery lands without interrupts.
            yield from t.lapi.waitcntr(counter, 1)

    machine.launch(program, ranks=[0, 4])
    assert machine.task(4).stats.interrupts == 0
    assert np.array_equal(dst, src)
