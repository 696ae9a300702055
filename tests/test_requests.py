"""The request layer: nonblocking one-shots and persistent plans.

Covers the contract :mod:`repro.core.requests` promises:

* blocking facade == ``start(inline=True)`` + ``wait()`` (byte-identical —
  the regress gate holds the global version of this; here we check the local
  request semantics);
* nonblocking requests (``ibcast`` et al.) overlap across disjoint groups
  and complete with correct data;
* the extension operations join the same chain: a blocking extension call
  made while broadcasts are in flight runs after them;
* persistent plans pin their dispatch decision once (one dispatch per rank at
  init, none per start), replay correctly, and allow multiple in-flight
  starts;
* validation is a single choke point that raises at ``start()``/plan init,
  never mid-schedule;
* a deadlock inside ``request.wait()`` names the outstanding request;
* a persistent start made while the engine is idle is deferred to the run
  flush, yet its request behaves as the slow path's, and a start that
  reserves at once first reserves the deferred ones before it;
* property: any interleaving of ``start()``/``wait()`` across independent
  communicators produces bytes identical to the all-blocking run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SRM, CollectiveRequest, FixedPolicy, PersistentCollective, SRMConfig
from repro.errors import ConfigurationError, DeadlockError
from repro.machine import ClusterSpec, Machine
from repro.mpi.ops import SUM


def make_machine(nodes=2, procs=2):
    return Machine(ClusterSpec(nodes=nodes, tasks_per_node=procs))


# ---------------------------------------------------------------------------
# nonblocking one-shots
# ---------------------------------------------------------------------------


def test_ibcast_completes_with_correct_data_and_state():
    machine = make_machine()
    srm = SRM(machine)
    seen = {}

    def program(task):
        data = np.arange(32.0) if task.rank == 0 else np.zeros(32)
        request = srm.ibcast(task, data, root=0)
        assert isinstance(request, CollectiveRequest)
        assert not request.test()
        value = yield from request.wait()
        assert request.test() and request.completed
        seen[task.rank] = data.copy()

    machine.launch(program)
    for rank in range(4):
        assert np.array_equal(seen[rank], np.arange(32.0))


def test_wait_is_idempotent_and_test_polls():
    machine = make_machine()
    srm = SRM(machine)

    def program(task):
        src = np.full(4, float(task.rank + 1))
        dst = np.zeros(4)
        request = srm.iallreduce(task, src, dst, SUM)
        yield from request.wait()
        first = dst.copy()
        yield from request.wait()  # second wait returns immediately
        assert np.array_equal(dst, first)

    machine.launch(program)


def test_requests_overlap_across_disjoint_groups():
    """Independent communicators progress concurrently: both groups' results
    are correct, and neither blocks the other."""
    machine = make_machine()
    a = SRM(machine, group=[0, 1])
    b = SRM(machine, group=[2, 3])
    results = {}

    def program(task):
        if task.rank in a.members:
            data = np.arange(64.0) if task.rank == 0 else np.zeros(64)
            request = a.ibcast(task, data, root=0)
        else:
            src = np.full(8, float(task.rank))
            data = np.zeros(8)
            request = b.iallreduce(task, src, data, SUM)
        yield from request.wait()
        results[task.rank] = data.copy()

    machine.launch(program)
    assert np.array_equal(results[1], np.arange(64.0))
    assert np.array_equal(results[2], np.full(8, 5.0))


def test_same_context_requests_serialize_in_started_order():
    """Two nonblocking broadcasts on one communicator: started order is
    completion order at each rank (the MPI per-communicator guarantee)."""
    machine = make_machine()
    srm = SRM(machine)
    order = []

    def program(task):
        first = np.full(16, 1.0) if task.rank == 0 else np.zeros(16)
        second = np.full(16, 2.0) if task.rank == 0 else np.zeros(16)
        r1 = srm.ibcast(task, first, root=0)
        r2 = srm.ibcast(task, second, root=0)
        yield from r2.wait()  # waiting the later request completes both
        assert r1.completed
        yield from r1.wait()
        if task.rank == 3:
            order.append((first[0], second[0]))

    machine.launch(program)
    assert order == [(1.0, 2.0)]


# ---------------------------------------------------------------------------
# persistent plans
# ---------------------------------------------------------------------------


def test_persistent_plan_replays_and_pins_decision():
    machine = make_machine()
    srm = SRM(machine)
    rounds = 5
    seen = []

    def program(task):
        data = np.zeros(32)
        plan = srm.plan_broadcast(task, data, root=0)
        assert isinstance(plan, PersistentCollective)
        assert plan.decision is not None and plan.decision.op == "broadcast"
        for i in range(rounds):
            if task.rank == 0:
                data[:] = i + 1
            request = plan.start()
            yield from request.wait()
            if task.rank == 3:
                seen.append(data[0])
        assert plan.starts == rounds

    machine.launch(program)
    assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]
    # Each rank dispatched once, at plan init; the starts re-resolved nothing.
    summary = machine.obs.metrics.summary()
    assert summary["dispatch.broadcast.small"] == machine.spec.total_tasks


def test_two_starts_in_flight_on_one_plan():
    machine = make_machine()
    srm = SRM(machine)

    def program(task):
        data = np.zeros(16)
        if task.rank == 0:
            data[:] = 7.0
        plan = srm.plan_broadcast(task, data, root=0)
        r1 = plan.start()
        r2 = plan.start()
        assert r1.invocation.sequence != r2.invocation.sequence
        yield from r1.wait()
        yield from r2.wait()
        assert data[0] == 7.0

    machine.launch(program)


def test_persistent_allreduce_and_barrier_plans():
    machine = make_machine()
    srm = SRM(machine)

    def program(task):
        src = np.full(8, float(task.rank + 1))
        dst = np.zeros(8)
        summed = srm.plan_allreduce(task, src, dst, SUM)
        fence = srm.plan_barrier(task)
        for _ in range(3):
            yield from summed.start().wait()
            yield from fence.start().wait()
            assert np.array_equal(dst, np.full(8, 10.0))

    machine.launch(program)


def test_start_claims_windows_before_the_engine_runs():
    """start() reserves its invocation window synchronously: two starts
    hold distinct windows while the engine has processed nothing."""
    machine = make_machine()
    srm = SRM(machine)
    task = machine.task(0)
    data = np.zeros(1024, dtype=np.uint8)
    plan = srm.plan_broadcast(task, data, root=0)
    first, second = plan.start(), plan.start()
    assert second.invocation["bcast", 0] > first.invocation["bcast", 0]
    assert second.invocation.sequence == first.invocation.sequence + 1
    assert machine.engine.events_processed == 0
    assert not first.completed and not second.completed


# ---------------------------------------------------------------------------
# deferred starts
# ---------------------------------------------------------------------------


def _plans(op, srm, machine):
    """Every rank's persistent ``op`` plan over 64 doubles, and its buffers."""
    total = machine.spec.total_tasks
    sources = [np.full(64, float(r + 1)) for r in range(total)]
    outs = [np.zeros(64) for _ in range(total)]
    tasks = [machine.task(r) for r in range(total)]
    if op == "broadcast":
        sources[0][:] = np.arange(64.0)
        plans = [srm.plan_broadcast(task, sources[task.rank], root=0) for task in tasks]
    elif op == "reduce":
        plans = [
            srm.plan_reduce(task, sources[task.rank], outs[0] if task.rank == 0 else None, SUM, root=0)
            for task in tasks
        ]
    elif op == "allreduce":
        plans = [srm.plan_allreduce(task, sources[task.rank], outs[task.rank], SUM) for task in tasks]
    else:
        plans = [srm.plan_barrier(task) for task in tasks]
    return plans, sources + outs


@pytest.mark.parametrize("op", ["broadcast", "reduce", "allreduce", "barrier"])
def test_a_replayed_windows_requests_behave_as_the_slow_paths(op):
    """After a replayed window, every request is completed, tests done,
    describes and prints itself, and returns from a wait() in a program
    launched after the window exactly as on a slow-path twin."""
    sides = []
    for compiled in (True, False):
        machine = make_machine()
        srm = SRM(machine, config=SRMConfig(compiled_replay=compiled))
        plans, buffers = _plans(op, srm, machine)
        for _window in range(6):
            hits = machine.engine.trace.hit_count if machine.engine.trace else 0
            requests = [plan.start() for plan in plans]
            assert not any(request.test() for request in requests)
            machine.engine.run()
        values = {}

        def program(task, requests=requests, values=values):
            values[task.rank] = yield from requests[task.rank].wait()

        machine.launch(program)
        sides.append((machine, hits, requests, values, buffers))
    (on, hits, replayed, values_on, buffers_on), (_off, _, slow, values_off, buffers_off) = sides
    assert on.engine.trace.hit_count == hits + 1, "the last window did not replay"
    for got, want in zip(replayed, slow):
        assert (got.completed, got.test()) == (want.completed, want.test()) == (True, True)
        assert got.describe() == want.describe()
        assert repr(got) == repr(want)
    assert values_on == values_off
    for got, want in zip(buffers_on, buffers_off):
        assert got.tobytes() == want.tobytes()


def test_an_ibcast_between_deferred_starts_reserves_in_started_order():
    """A nonblocking broadcast started from outside the engine between two
    deferred persistent starts on its context reserves after the first and
    before the second: the ledger, every buffer and the request chain end
    as with compiled replay off."""
    sides = []
    for compiled in (True, False):
        machine = make_machine()
        srm = SRM(machine, config=SRMConfig(compiled_replay=compiled))
        total = machine.spec.total_tasks
        weights = [np.zeros(512) for _ in range(total)]
        extra = [np.zeros(512) for _ in range(total)]
        plans, buffers = _plans("allreduce", srm, machine)
        bcasts = [srm.plan_broadcast(machine.task(r), weights[r], root=0) for r in range(total)]
        for window in range(4):
            weights[0][:] = window + 1
            extra[0][:] = 100 + window
            requests = [plan.start() for plan in bcasts]
            requests += [srm.ibcast(machine.task(r), extra[r], root=0) for r in range(total)]
            requests += [plan.start() for plan in plans]
            machine.engine.run()
            assert all(request.completed for request in requests)
        chain = {rank: tail.describe() for rank, tail in srm.ctx._request_tail.items()}
        windows = [dict(request.invocation.bases) for request in requests]
        sides.append((dict(srm.ctx.ledger), chain, windows, weights + extra + buffers))
    (ledger_on, chain_on, windows_on, buffers_on), (ledger_off, chain_off, windows_off, buffers_off) = sides
    assert ledger_on == ledger_off
    assert chain_on == chain_off
    assert windows_on == windows_off
    for got, want in zip(buffers_on, buffers_off):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# extension operations join the chain
# ---------------------------------------------------------------------------

#: 16 KB of doubles: four pipelined chunks through the broadcast slots.
INFLIGHT_COUNT = 2048
BLOCK = 64


def _extension_call(op, srm, task, total, sources, outs):
    """One blocking extension call at ``task`` and its NumPy truth."""
    rank = task.rank
    stacked = np.stack([sources[r] for r in range(total)])
    if op == "scatter":
        send = stacked[:, :BLOCK].reshape(-1) if rank == 0 else None
        return srm.scatter(task, send, outs[rank], root=0), stacked[:, :BLOCK][rank]
    if op == "gather":
        recv = outs[rank] if rank == 0 else None
        truth = stacked[:, :BLOCK].reshape(-1) if rank == 0 else None
        return srm.gather(task, sources[rank][:BLOCK], recv, root=0), truth
    if op == "allgather":
        truth = stacked[:, :BLOCK].reshape(-1)
        return srm.allgather(task, sources[rank][:BLOCK], outs[rank]), truth
    if op == "alltoall":
        blocks = stacked[:, : BLOCK * total].reshape(total, total, BLOCK)
        return srm.alltoall(task, sources[rank][: BLOCK * total], outs[rank]), blocks[:, rank].reshape(-1)
    if op == "scan":
        return srm.scan(task, sources[rank], outs[rank], SUM), stacked[: rank + 1].sum(axis=0)
    if op == "reduce_scatter":
        total_sum = stacked[:, : BLOCK * total].sum(axis=0)
        truth = total_sum[rank * BLOCK : (rank + 1) * BLOCK]
        return srm.reduce_scatter(task, sources[rank][: BLOCK * total], outs[rank], SUM), truth
    assert op == "allreduce"
    return srm.allreduce(task, sources[rank], outs[rank], SUM), stacked.sum(axis=0)


def _extension_out(op, total):
    if op in ("scatter", "reduce_scatter"):
        return np.zeros(BLOCK)
    if op in ("gather", "allgather", "alltoall"):
        return np.zeros(BLOCK * total)
    return np.zeros(INFLIGHT_COUNT)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3)], ids=["2x2", "3x3"])
@pytest.mark.parametrize("inflight", ["ibcast", "two-ibcasts", "plan-start"])
@pytest.mark.parametrize(
    "op,policy",
    [
        pytest.param("scatter", None, id="scatter"),
        pytest.param("gather", None, id="gather"),
        pytest.param("allgather", None, id="allgather"),
        pytest.param("allgather", {"allgather": "ring"}, id="allgather-ring"),
        pytest.param("alltoall", None, id="alltoall"),
        pytest.param("scan", None, id="scan"),
        pytest.param("reduce_scatter", None, id="reduce_scatter"),
        pytest.param("allreduce", {"allreduce": "ring"}, id="allreduce-ring"),
    ],
)
def test_extension_ops_after_in_flight_requests(op, policy, inflight, shape):
    """A blocking extension call made while 16 KB broadcasts are still in
    flight runs after them on the rank's chain: every broadcast buffer and
    every result equals the NumPy truth."""
    nodes, procs = shape
    machine = make_machine(nodes, procs)
    srm = SRM(machine, policy=FixedPolicy(policy) if policy else None)
    total = nodes * procs
    rounds = 2 if inflight == "two-ibcasts" else 1
    payloads = [np.arange(INFLIGHT_COUNT) + 1000.0 * (k + 1) for k in range(rounds)]
    bcast = {
        r: [payload.copy() if r == 0 else np.zeros(INFLIGHT_COUNT) for payload in payloads]
        for r in range(total)
    }
    sources = {r: np.arange(INFLIGHT_COUNT) * 0.5 + 7.0 * r for r in range(total)}
    outs = {r: _extension_out(op, total) for r in range(total)}
    truths = {}

    def program(task):
        buffers = bcast[task.rank]
        if inflight == "plan-start":
            pending = [srm.plan_broadcast(task, buffers[0], root=0).start()]
        else:
            pending = [srm.ibcast(task, buffer, root=0) for buffer in buffers]
        call, truths[task.rank] = _extension_call(op, srm, task, total, sources, outs)
        yield from call
        for request in pending:
            yield from request.wait()

    machine.launch(program)
    for r in range(total):
        for k, payload in enumerate(payloads):
            assert np.array_equal(bcast[r][k], payload), f"rank {r}: broadcast {k} corrupted"
        if truths[r] is not None:
            assert np.array_equal(outs[r], truths[r]), f"rank {r}: {op} result wrong"


# ---------------------------------------------------------------------------
# validation choke point
# ---------------------------------------------------------------------------


def test_errors_raise_at_start_never_mid_schedule():
    machine = make_machine()
    srm = SRM(machine, group=[0, 1])
    task = machine.task(0)
    data = np.zeros(8)
    with pytest.raises(ConfigurationError):
        srm.ibcast(task, data, root=3)  # root outside the group
    with pytest.raises(ConfigurationError):
        srm.plan_broadcast(task, data, root=3)
    with pytest.raises(ConfigurationError):
        srm.ibarrier(machine.task(2))  # caller outside the group
    with pytest.raises(ValueError):
        srm.plan_allreduce(task, np.zeros(8), np.zeros(4), SUM)
    with pytest.raises(ValueError):
        srm.ireduce(task, data, None, SUM, root=0)  # root needs a dst
    # The engine never ran: nothing was scheduled before the raise.
    assert machine.engine.events_processed == 0


def test_blocking_facade_validates_through_the_same_choke_point():
    machine = make_machine()
    srm = SRM(machine, group=[0, 1])

    def program(task):
        with pytest.raises(ConfigurationError):
            yield from srm.broadcast(task, np.zeros(8), root=3)
        return
        yield

    machine.launch(program, ranks=[0])


# ---------------------------------------------------------------------------
# deadlock attribution
# ---------------------------------------------------------------------------


def test_deadlock_inside_wait_names_the_outstanding_request():
    """Only rank 1 enters the broadcast — the root never does — so its wait
    starves, and the error names the op, root, invocation sequence, and rank."""
    machine = make_machine()
    srm = SRM(machine)

    def program(task):
        data = np.zeros(8)
        request = srm.ibcast(task, data, root=0)
        yield from request.wait()

    with pytest.raises(DeadlockError) as excinfo:
        machine.launch(program, ranks=[1])
    message = str(excinfo.value)
    assert "in wait() on request broadcast(root=0)#0 at rank 1" in message


# ---------------------------------------------------------------------------
# property: interleaving-freedom across independent communicators
# ---------------------------------------------------------------------------


@given(
    defer=st.lists(st.booleans(), min_size=4, max_size=4),
    swap=st.booleans(),
    rounds=st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_any_interleaving_matches_blocking_bytes(defer, swap, rounds):
    """Across two disjoint communicators on one machine, any mix of
    deferred waits and per-group op order produces byte-identical results
    to the all-blocking program."""

    def run(blocking):
        machine = make_machine()
        groups = (SRM(machine, group=[0, 1]), SRM(machine, group=[2, 3]))
        buffers = {
            rank: (np.full(24, float(rank + 1)), np.zeros(24)) for rank in range(4)
        }

        def program(task):
            srm = groups[0] if task.rank < 2 else groups[1]
            root = srm.members[0]
            src, dst = buffers[task.rank]
            for round_index in range(rounds):
                ops = ["bcast", "allreduce"]
                if swap and task.rank >= 2:
                    ops.reverse()
                for op in ops:
                    if op == "bcast":
                        if blocking:
                            yield from srm.broadcast(task, dst, root=root)
                            continue
                        request = srm.ibcast(task, dst, root=root)
                    else:
                        if blocking:
                            yield from srm.allreduce(task, src, dst, SUM)
                            continue
                        request = srm.iallreduce(task, src, dst, SUM)
                    if not (blocking or defer[task.rank]):
                        yield from request.wait()
                if not blocking and defer[task.rank]:
                    yield from request.wait()  # chain completes predecessors

        machine.launch(program)
        return np.concatenate([buffers[rank][1] for rank in range(4)]).tobytes()

    assert run(blocking=False) == run(blocking=True)
