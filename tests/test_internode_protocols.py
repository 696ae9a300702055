"""Behavioural tests for the inter-node SRM protocols: flow control,
pipelining, counter discipline — the mechanisms of Figs. 4 and 5."""

import numpy as np
import pytest

from repro.bench import build
from repro.core import FixedPolicy, SRMConfig
from repro.core.internode.ring import RingAllreducePlan
from repro.machine import ClusterSpec

KB = 1024


def run_broadcast(machine, srm, nbytes, root=0, repeats=1):
    total = machine.spec.total_tasks
    payload = np.arange(nbytes, dtype=np.uint8)
    buffers = {r: (payload.copy() if r == root else np.zeros_like(payload)) for r in range(total)}

    def program(task):
        for _ in range(repeats):
            yield from srm.broadcast(task, buffers[task.rank], root=root)

    machine.launch(program)
    return buffers, payload


# ---------------------------------------------------------------------------
# small protocol flow control (Fig. 4 left)
# ---------------------------------------------------------------------------


def test_small_bcast_sends_free_acks():
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    run_broadcast(machine, srm, 1 * KB)
    machine.engine.run()  # drain the off-critical-path ack helpers
    plan = srm.ctx.bcast_plan(0)
    edge = plan.edges[1]
    # The used slot's free counter was consumed by... nobody yet: it must be
    # back at 1 (ready for the next use of that slot); the other stayed 1.
    assert sorted([edge.free[0].value, edge.free[1].value]) == [1, 1]
    # Arrival counters fully consumed.
    assert edge.arrival[0].value == 0 and edge.arrival[1].value == 0


def test_small_bcast_chunks_alternate_slots():
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    run_broadcast(machine, srm, 16 * KB)  # 4 chunks of 4 KB
    machine.engine.run()
    assert [srm.ctx.ledger["bcast", rank] for rank in srm.ctx.nodes[0].members] == [4, 4]
    plan = srm.ctx.bcast_plan(0)
    edge = plan.edges[1]
    # Two uses per slot, all acked back to initial credit.
    assert edge.free[0].value == 1 and edge.free[1].value == 1


def test_back_to_back_calls_reuse_credits():
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    for _ in range(5):
        buffers, payload = run_broadcast(machine, srm, 2 * KB)
        for buffer in buffers.values():
            assert np.array_equal(buffer, payload)
    machine.engine.run()
    edge = srm.ctx.bcast_plan(0).edges[1]
    assert edge.free[0].value == 1 and edge.free[1].value == 1


def test_pipelining_beats_unpipelined_config():
    """Chunked two-buffer pipelining (8-64 KB band) must beat a config that
    sends the same message as one unpipelined block."""

    def timed(config):
        machine, srm = build("srm", ClusterSpec(nodes=8, tasks_per_node=8), srm_config=config)
        run_broadcast(machine, srm, 32 * KB)  # warm
        start = machine.now
        run_broadcast(machine, srm, 32 * KB)
        return machine.now - start

    pipelined = timed(SRMConfig())  # 4 KB chunks
    unpipelined = timed(SRMConfig(pipeline_min=32 * KB))  # single chunk
    assert pipelined < unpipelined


def test_put_window_limits_inflight_chunks():
    """A window of 1 serializes the large-protocol stream; wider windows
    overlap chunk transfers and must be faster."""

    def timed(window):
        config = SRMConfig(put_window=window)
        machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=1), srm_config=config)
        run_broadcast(machine, srm, 1 << 20)
        start = machine.now
        run_broadcast(machine, srm, 1 << 20)
        return machine.now - start

    assert timed(4) < timed(1)


# ---------------------------------------------------------------------------
# large protocol (Fig. 4 right)
# ---------------------------------------------------------------------------


def test_large_bcast_no_shared_buffer_traffic_on_single_task_nodes():
    # With one task per node the large protocol must not touch shm buffers:
    # puts go user-buffer to user-buffer, with no shared-memory copy and no
    # flag store anywhere (no slot generation is ever handed out).
    machine, srm = build("srm", ClusterSpec(nodes=4, tasks_per_node=1))
    run_broadcast(machine, srm, 256 * KB)
    assert all(task.stats.copies == 0 for task in machine.tasks)
    assert machine.obs.metrics.summary()["shmem.flag_sets"] == 0
    for state in srm.ctx.nodes.values():
        assert state.bcast_buf.seats[0].values() == [0]
        assert state.bcast_buf.seats[1].values() == [0]


def test_large_bcast_stream_counters_monotonic_across_calls():
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    run_broadcast(machine, srm, 128 * KB)  # 2 chunks
    plan = srm.ctx.bcast_plan(0)
    assert srm.ctx.ledger["stream", 0, 1] == 2
    run_broadcast(machine, srm, 192 * KB)  # 3 chunks
    assert srm.ctx.ledger["stream", 0, 1] == 5
    assert plan.stream_arrival[1].value == 5  # never consumed, only watched


def test_interrupts_reenabled_after_failure_free_run():
    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    run_broadcast(machine, srm, 1 * KB)
    run_broadcast(machine, srm, 256 * KB)
    for task in machine.tasks:
        assert task.lapi.interrupts_enabled


# ---------------------------------------------------------------------------
# reduce staging discipline
# ---------------------------------------------------------------------------


def test_reduce_staging_slots_alternate_across_calls():
    from repro.mpi.ops import SUM

    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=1))
    plan = srm.ctx.reduce_plan(0)
    for call in range(3):
        sources = {r: np.full(8, float(call + r + 1)) for r in range(2)}
        destination = np.zeros(8)

        def program(task):
            dst = destination if task.rank == 0 else None
            yield from srm.reduce(task, sources[task.rank], dst, SUM, root=0)

        machine.launch(program)
        assert np.all(destination == 2 * call + 3)
    # Child rank 1 sent 3 chunks; parity bookkeeping advanced identically
    # on both sides of the edge.
    assert srm.ctx.ledger["sent", 0, 1] == 3
    assert srm.ctx.ledger["recv", 0, 1] == 3
    machine.engine.run()
    assert plan.free[1][0].value + plan.free[1][1].value == 2  # credits restored


def test_reduce_pipeline_overlaps_smp_and_network():
    """With chunking, total time must be well under (chunks x single-chunk
    time): the SMP stage of chunk c+1 overlaps the wire time of chunk c."""
    from repro.mpi.ops import SUM

    def timed(count):
        machine, srm = build("srm", ClusterSpec(nodes=4, tasks_per_node=8))
        sources = {r: np.ones(count) for r in range(32)}
        destination = np.zeros(count)

        def program(task):
            dst = destination if task.rank == 0 else None
            yield from srm.reduce(task, sources[task.rank], dst, SUM, root=0)

        machine.launch(program)
        start = machine.now
        machine.launch(program)
        return machine.now - start

    one_chunk = timed(512)          # 4 KB -> single chunk
    eight_chunks = timed(512 * 8)   # 32 KB -> eight 4 KB chunks
    assert eight_chunks < 8 * one_chunk * 0.9


# ---------------------------------------------------------------------------
# allreduce regimes
# ---------------------------------------------------------------------------


def test_allreduce_switches_regime_at_16k():
    from repro.mpi.ops import SUM

    machine, srm = build("srm", ClusterSpec(nodes=2, tasks_per_node=2))
    ledger = srm.ctx.ledger

    def run(count):
        sources = {r: np.full(count, 1.0) for r in range(4)}
        outs = {r: np.zeros(count) for r in range(4)}

        def program(task):
            yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

        machine.launch(program)
        return outs

    run(2048)  # 16 KB: exchange path -> the masters' call counts advance
    assert ledger["exchange", 0] == 1 and ledger["exchange", 2] == 1
    run(4096)  # 32 KB: pipelined path -> exchange state untouched
    assert ledger["exchange", 0] == 1


def test_allreduce_exchange_counters_consumed():
    from repro.mpi.ops import SUM

    machine, srm = build("srm", ClusterSpec(nodes=4, tasks_per_node=1))
    sources = {r: np.full(16, float(r)) for r in range(4)}
    outs = {r: np.zeros(16) for r in range(4)}

    def program(task):
        yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    machine.launch(program)
    machine.engine.run()
    plan = srm.ctx.allreduce_plan()
    for node, counters in plan.arrival.items():
        for counter in counters:
            assert counter.value == 0, f"unconsumed RD counter on node {node}"


# ---------------------------------------------------------------------------
# barrier counter discipline
# ---------------------------------------------------------------------------


def test_barrier_counters_return_to_zero():
    machine, srm = build("srm", ClusterSpec(nodes=8, tasks_per_node=2))

    def program(task):
        for _ in range(3):
            yield from srm.barrier(task)

    machine.launch(program)
    machine.engine.run()
    plan = srm.ctx.barrier_plan()
    for counters in plan.counters.values():
        assert all(counter.value == 0 for counter in counters)


# ---------------------------------------------------------------------------
# ring allreduce (alternative large-message algorithm)
# ---------------------------------------------------------------------------

RING = {"allreduce": "ring"}


def test_ring_allreduce_correct_and_repeatable():
    from repro.mpi.ops import SUM

    machine, srm = build(
        "srm", ClusterSpec(nodes=4, tasks_per_node=3), policy=FixedPolicy(RING)
    )
    total = 12
    rng = np.random.default_rng(5)
    for _call in range(3):
        count = int(rng.integers(3000, 60_000))
        sources = {r: rng.random(count) for r in range(total)}
        outs = {r: np.zeros(count) for r in range(total)}

        def program(task):
            yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

        machine.launch(program)
        expected = np.sum(np.stack(list(sources.values())), axis=0)
        for rank in range(total):
            assert np.allclose(outs[rank], expected)


def test_ring_allreduce_small_messages_still_use_exchange():
    from repro.mpi.ops import SUM

    machine, srm = build(
        "srm", ClusterSpec(nodes=2, tasks_per_node=2), policy=FixedPolicy(RING)
    )
    # One double cannot be split into a segment per node: the forced ring is
    # inapplicable, so dispatch falls back to the paper's exchange.
    sources = {r: np.full(1, 1.0) for r in range(4)}
    outs = {r: np.zeros(1) for r in range(4)}

    def program(task):
        yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    machine.launch(program)
    assert all(np.all(outs[r] == 4) for r in range(4))
    assert srm.ctx.dispatch("allreduce", 8).variant == "exchange"
    assert machine.obs.metrics.summary()["dispatch.fallbacks"] == 1
    # Ring plan never built for messages it cannot segment.
    assert (RingAllreducePlan,) not in srm.ctx._plans


def test_ring_allreduce_group():
    from repro.core import SRM
    from repro.machine import Machine
    from repro.mpi.ops import SUM

    machine = Machine(ClusterSpec(nodes=4, tasks_per_node=4))
    members = [0, 1, 5, 9, 13, 14]
    srm = SRM(machine, group=members, policy=FixedPolicy(RING))
    sources = {r: np.full(30_000, float(r + 1)) for r in members}
    outs = {r: np.zeros(30_000) for r in members}

    def program(task):
        yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    machine.launch(program, ranks=members)
    expected = sum(r + 1 for r in members)
    for rank in members:
        assert np.all(outs[rank] == expected)


def test_ring_allreduce_config_validation():
    import pytest as _pytest

    from repro.errors import ConfigurationError

    with _pytest.raises(ConfigurationError, match="allreduce"):
        FixedPolicy({"allreduce": "tree"})
