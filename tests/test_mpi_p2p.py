"""Unit tests for the MPI point-to-point engine (eager/rendezvous/matching)."""

import numpy as np
import pytest

from repro.errors import ProtocolError, TruncationError
from repro.machine import ClusterSpec, CostModel, EagerLimitTable, Machine
from repro.mpi import ANY_SOURCE, ANY_TAG
from repro.mpi.p2p import EagerPool


@pytest.fixture
def machine():
    return Machine(ClusterSpec(nodes=2, tasks_per_node=4))


def run_pair(machine, sender_rank, receiver_rank, sender, receiver):
    """Launch a two-party program and return the LaunchResult."""

    def program(t):
        if t.rank == sender_rank:
            result = yield from sender(t)
        else:
            result = yield from receiver(t)
        return result

    return machine.launch(program, ranks=[sender_rank, receiver_rank])


# ---------------------------------------------------------------------------
# basic delivery, both protocols, both domains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("receiver_rank", [1, 4], ids=["intra-node", "inter-node"])
@pytest.mark.parametrize("nbytes", [0, 64, 1024, 200_000], ids=["zero", "tiny", "eager", "rendezvous"])
def test_send_recv_delivers_bytes(machine, receiver_rank, nbytes):
    src = np.arange(nbytes, dtype=np.uint8)
    dst = np.zeros_like(src)

    def sender(t):
        yield from t.mpi.send(receiver_rank, src, tag=3)

    def receiver(t):
        status = yield from t.mpi.recv(0, tag=3, buffer=dst)
        return status

    result = run_pair(machine, 0, receiver_rank, sender, receiver)
    status = result.results[receiver_rank]
    assert np.array_equal(dst, src)
    assert status.source == 0
    assert status.tag == 3
    assert status.nbytes == nbytes


def test_protocol_selection_by_size(machine):
    limit = machine.task(0).mpi.eager_limit
    small = np.zeros(limit, np.uint8)
    large = np.zeros(limit + 1, np.uint8)
    dst_small = np.zeros_like(small)
    dst_large = np.zeros_like(large)

    def sender(t):
        yield from t.mpi.send(4, small, tag=1)
        yield from t.mpi.send(4, large, tag=2)

    def receiver(t):
        yield from t.mpi.recv(0, 1, dst_small)
        yield from t.mpi.recv(0, 2, dst_large)

    run_pair(machine, 0, 4, sender, receiver)
    stats = machine.task(0).mpi.stats
    assert stats.eager_messages == 1
    assert stats.rendezvous_messages == 1


def test_eager_limit_depends_on_task_count():
    small_job = Machine(ClusterSpec(nodes=1, tasks_per_node=16))
    large_job = Machine(ClusterSpec(nodes=16, tasks_per_node=16))
    assert small_job.task(0).mpi.eager_limit > large_job.task(0).mpi.eager_limit


# ---------------------------------------------------------------------------
# protocol timing properties
# ---------------------------------------------------------------------------


def test_rendezvous_pays_handshake_round_trip(machine):
    # Same payload forced through each protocol via the eager limit.
    nbytes = 4 * 1024
    cost_eager = CostModel.ibm_sp_colony().evolve(
        eager_limits=EagerLimitTable.fixed(nbytes)
    )
    cost_rndv = cost_eager.evolve(eager_limits=EagerLimitTable.fixed(0))
    src = np.ones(nbytes, np.uint8)

    def run_with(cost):
        machine = Machine(ClusterSpec(nodes=2, tasks_per_node=1), cost=cost)
        dst = np.zeros_like(src)

        def sender(t):
            yield from t.mpi.send(1, src, tag=0)

        def receiver(t):
            yield from t.mpi.recv(0, 0, dst)

        return run_pair(machine, 0, 1, sender, receiver).elapsed

    # Rendezvous adds at least one extra network round trip over eager.
    assert run_with(cost_rndv) > run_with(cost_eager) + cost_rndv.net_latency


def test_eager_sender_returns_before_delivery(machine):
    nbytes = 1024
    src = np.ones(nbytes, np.uint8)
    dst = np.zeros_like(src)
    sender_done = {}

    def sender(t):
        yield from t.mpi.send(4, src, tag=0)
        sender_done["time"] = t.engine.now

    def receiver(t):
        yield from t.compute(5e-3)  # late receiver
        yield from t.mpi.recv(0, 0, dst)

    run_pair(machine, 0, 4, sender, receiver)
    # Eager send completed long before the receiver showed up.
    assert sender_done["time"] < 1e-3
    assert np.array_equal(dst, src)


def test_rendezvous_sender_blocks_for_late_receiver(machine):
    nbytes = 500_000  # above every eager limit
    src = np.ones(nbytes, np.uint8)
    dst = np.zeros_like(src)
    sender_done = {}
    receiver_delay = 5e-3

    def sender(t):
        yield from t.mpi.send(4, src, tag=0)
        sender_done["time"] = t.engine.now

    def receiver(t):
        yield from t.compute(receiver_delay)
        yield from t.mpi.recv(0, 0, dst)

    run_pair(machine, 0, 4, sender, receiver)
    assert sender_done["time"] > receiver_delay  # held by the CTS
    assert np.array_equal(dst, src)


def test_unexpected_message_costs_more_than_expected(machine):
    nbytes = 256
    src = np.ones(nbytes, np.uint8)

    def elapsed_with_recv_delay(delay):
        machine = Machine(ClusterSpec(nodes=2, tasks_per_node=1))
        dst = np.zeros(nbytes, np.uint8)
        recv_span = {}

        def sender(t):
            yield from t.mpi.send(1, src, tag=0)

        def receiver(t):
            yield from t.compute(delay)
            start = t.engine.now
            yield from t.mpi.recv(0, 0, dst)
            recv_span["span"] = t.engine.now - start

        run_pair(machine, 0, 1, sender, receiver)
        return recv_span["span"], machine.task(1).mpi.stats.unexpected_arrivals

    late_span, late_unexpected = elapsed_with_recv_delay(5e-3)  # msg already there
    assert late_unexpected == 1
    # The drain is local, so the late receive is quick, but it still pays the
    # unexpected-queue overhead plus the copy-out.
    cost = machine.cost
    assert late_span >= cost.mpi_recv_overhead + cost.mpi_unexpected_overhead


# ---------------------------------------------------------------------------
# matching semantics
# ---------------------------------------------------------------------------


def test_tag_selectivity(machine):
    a = np.full(16, 1, np.uint8)
    b = np.full(16, 2, np.uint8)
    out_first = np.zeros(16, np.uint8)
    out_second = np.zeros(16, np.uint8)

    def sender(t):
        yield from t.mpi.send(4, a, tag=10)
        yield from t.mpi.send(4, b, tag=20)

    def receiver(t):
        # Receive tag 20 first even though tag 10 arrived first.
        yield from t.mpi.recv(0, 20, out_first)
        yield from t.mpi.recv(0, 10, out_second)

    run_pair(machine, 0, 4, sender, receiver)
    assert np.all(out_first == 2)
    assert np.all(out_second == 1)


def test_any_source_any_tag(machine):
    payload = np.full(8, 7, np.uint8)
    out = np.zeros(8, np.uint8)

    def sender(t):
        yield from t.mpi.send(4, payload, tag=42)

    def receiver(t):
        status = yield from t.mpi.recv(ANY_SOURCE, ANY_TAG, out)
        return status

    result = run_pair(machine, 0, 4, sender, receiver)
    assert result.results[4].source == 0
    assert result.results[4].tag == 42


def test_pairwise_ordering_same_tag(machine):
    first = np.full(8, 1, np.uint8)
    second = np.full(8, 2, np.uint8)
    out1 = np.zeros(8, np.uint8)
    out2 = np.zeros(8, np.uint8)

    def sender(t):
        yield from t.mpi.send(4, first, tag=0)
        yield from t.mpi.send(4, second, tag=0)

    def receiver(t):
        yield from t.mpi.recv(0, 0, out1)
        yield from t.mpi.recv(0, 0, out2)

    run_pair(machine, 0, 4, sender, receiver)
    assert np.all(out1 == 1)
    assert np.all(out2 == 2)


def test_pairwise_ordering_eager_then_rendezvous():
    """An RTS must not overtake an earlier eager payload between the same
    pair.  Here a third node's message slows the eager payload down at the
    receiver's NIC, while the RTS behind it is a control message only; the
    receive posted for the first message must still get the first one."""
    machine = Machine(ClusterSpec(nodes=3, tasks_per_node=4))
    small = np.full(8192, 1, np.uint8)  # eager
    large = np.full(200_000, 2, np.uint8)  # rendezvous
    noise = np.ones(32_768, np.uint8)
    out_small, out_large, out_noise = (np.zeros_like(b) for b in (small, large, noise))

    def program(t):
        if t.rank == 4:
            yield from t.mpi.send(0, small, tag=0)
            yield from t.mpi.send(0, large, tag=0)
        elif t.rank == 0:
            yield from t.mpi.recv(4, 0, out_small)
            yield from t.mpi.recv(4, 0, out_large)
        elif t.rank == 8:  # into rank 0's node at the same time
            yield from t.mpi.send(1, noise, tag=5)
        else:
            yield from t.mpi.recv(8, 5, out_noise)

    machine.launch(program, ranks=[0, 1, 4, 8])
    assert np.all(out_small == 1)
    assert np.all(out_large == 2)
    assert np.all(out_noise == 1)


def test_truncation_eager(machine):
    src = np.ones(128, np.uint8)
    dst = np.zeros(64, np.uint8)

    def sender(t):
        yield from t.mpi.send(4, src, tag=0)

    def receiver(t):
        yield from t.mpi.recv(0, 0, dst)

    with pytest.raises(TruncationError):
        run_pair(machine, 0, 4, sender, receiver)


def test_truncation_rendezvous(machine):
    src = np.ones(500_000, np.uint8)
    dst = np.zeros(100, np.uint8)

    def sender(t):
        yield from t.mpi.send(4, src, tag=0)

    def receiver(t):
        yield from t.mpi.recv(0, 0, dst)

    with pytest.raises(TruncationError):
        run_pair(machine, 0, 4, sender, receiver)


def test_recv_requires_buffer(machine):
    def program(t):
        yield from t.mpi.recv(0, 0, None)

    with pytest.raises(ProtocolError):
        machine.launch(program, ranks=[1])


def test_send_to_invalid_rank_rejected(machine):
    def program(t):
        yield from t.mpi.send(99, np.zeros(8, np.uint8))

    with pytest.raises(Exception):
        machine.launch(program, ranks=[0])


# ---------------------------------------------------------------------------
# nonblocking + sendrecv
# ---------------------------------------------------------------------------


def test_isend_irecv_join(machine):
    src = np.full(32, 5, np.uint8)
    dst = np.zeros(32, np.uint8)

    def program(t):
        if t.rank == 0:
            request = t.mpi.isend(4, src, tag=9)
            yield request
        else:
            request = t.mpi.irecv(0, 9, dst)
            status = yield request
            return status

    result = machine.launch(program, ranks=[0, 4])
    assert result.results[4].nbytes == 32
    assert np.all(dst == 5)


def test_sendrecv_exchange_no_deadlock(machine):
    # Classic pairwise exchange: both ranks send and receive simultaneously.
    def program(t):
        peer = 4 if t.rank == 0 else 0
        mine = np.full(1024, t.rank + 1, np.uint8)
        theirs = np.zeros(1024, np.uint8)
        yield from t.mpi.sendrecv(peer, mine, peer, theirs, send_tag=7)
        return int(theirs[0])

    result = machine.launch(program, ranks=[0, 4])
    assert result.results[0] == 5
    assert result.results[4] == 1


# ---------------------------------------------------------------------------
# eager pool flow control
# ---------------------------------------------------------------------------


def test_eager_pool_acquire_release():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=1))
    pool = EagerPool(machine.engine, capacity=100)
    first = pool.acquire(60)
    second = pool.acquire(60)  # must wait
    assert first.triggered
    assert not second.triggered
    pool.release(60)
    assert second.triggered
    assert pool.free == 40


def test_eager_pool_fifo_no_overtaking():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=1))
    pool = EagerPool(machine.engine, capacity=100)
    pool.acquire(100)
    big = pool.acquire(90)
    small = pool.acquire(5)  # could fit sooner, but FIFO holds it back
    pool.release(50)
    # 5 B would fit in the 50 free bytes, but FIFO holds it behind the 90.
    assert not big.triggered
    assert not small.triggered
    pool.release(50)
    assert big.triggered
    assert small.triggered  # fits in the 10 B left after the 90 is granted
    assert pool.free == 5


def test_eager_pool_rejects_oversized_and_over_release():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=1))
    pool = EagerPool(machine.engine, capacity=100)
    with pytest.raises(ProtocolError):
        pool.acquire(101)
    with pytest.raises(ProtocolError):
        pool.release(1)


def test_eager_pool_backpressure_blocks_sender():
    # A tiny pool forces the second eager send to wait for the first drain.
    cost = CostModel.ibm_sp_colony().evolve(eager_pool_bytes=1024)
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=1), cost=cost)
    src = np.ones(machine.task(0).mpi.eager_limit, np.uint8)
    dst = np.zeros_like(src)
    send_times = []

    def sender(t):
        for _ in range(3):
            yield from t.mpi.send(1, src, tag=0)
            send_times.append(t.engine.now)

    def receiver(t):
        yield from t.compute(1e-2)
        for _ in range(3):
            yield from t.mpi.recv(0, 0, dst)

    def program(t):
        if t.rank == 0:
            yield from sender(t)
        else:
            yield from receiver(t)

    machine.launch(program)
    # Later sends stall until the receiver drains pool space (>= 10 ms).
    assert send_times[0] < 1e-2
    assert send_times[-1] >= 1e-2
