"""Tests for the Fig. 2 copy accounting and the analytical model."""

import pytest

from repro.analysis import (
    audit_reduce,
    crossover_node_size,
    message_passing_reduce_analytic,
    smp_reduce_analytic,
    srm_time,
)
from repro.bench import build, time_operation
from repro.machine import ClusterSpec, CostModel

COST = CostModel.ibm_sp_colony()


# ---------------------------------------------------------------------------
# data movement (Fig. 2)
# ---------------------------------------------------------------------------


def test_paper_figure2_case():
    # "For eight processes, there are four memory copies."
    counts = smp_reduce_analytic(8)
    assert counts.copies == 4
    assert counts.operator_executions == 7
    # "...seven data movement operations ... 7 or even 14 memory copies."
    mp = message_passing_reduce_analytic(8)
    assert mp.messages == 7
    assert mp.copies == 14
    assert message_passing_reduce_analytic(8, copies_per_message=1).copies == 7


def test_analytic_copies_are_leaf_count():
    for tasks in (2, 3, 4, 5, 8, 16, 17):
        counts = smp_reduce_analytic(tasks)
        assert counts.copies <= tasks - 1 or tasks == 1
        assert counts.operator_executions == max(0, tasks - 1)


def test_single_task_moves_nothing():
    assert smp_reduce_analytic(1).copies == 0
    assert message_passing_reduce_analytic(1).messages == 0


def test_audit_matches_analytic_for_srm():
    for tasks in (2, 4, 8, 16):
        assert audit_reduce(tasks, "srm").copies == smp_reduce_analytic(tasks).copies


def test_audit_mpi_moves_much_more():
    srm = audit_reduce(8, "srm")
    mpi = audit_reduce(8, "mpi")
    assert mpi.copies >= 2 * srm.copies
    assert mpi.messages == 7


def test_audit_rejects_unknown_stack():
    with pytest.raises(ValueError):
        audit_reduce(4, "openmpi")


# ---------------------------------------------------------------------------
# analytical model
# ---------------------------------------------------------------------------


def test_smp_stage_models_scale_sanely():
    # On one node the model is its SMP stages alone.
    def one_node(op, tasks, nbytes=1024):
        return srm_time(COST, ClusterSpec(nodes=1, tasks_per_node=tasks), op, nbytes)

    assert one_node("broadcast", 1) == 0.0
    assert one_node("broadcast", 16) > one_node("broadcast", 4)
    assert one_node("reduce", 16) > one_node("reduce", 4)
    assert one_node("barrier", 1, 0) == 0.0
    assert one_node("barrier", 16, 0) > one_node("barrier", 2, 0)


def test_model_grows_with_size_and_nodes():
    spec_small = ClusterSpec(nodes=4, tasks_per_node=16)
    spec_large = ClusterSpec(nodes=16, tasks_per_node=16)
    for op in ("broadcast", "reduce", "allreduce"):
        assert srm_time(COST, spec_small, op, 1 << 20) > srm_time(COST, spec_small, op, 1024)
        assert srm_time(COST, spec_large, op, 1024) > srm_time(COST, spec_small, op, 1024)
    assert srm_time(COST, spec_large, "barrier", 0) > srm_time(COST, spec_small, "barrier", 0)


@pytest.mark.parametrize("operation", ["broadcast", "reduce", "allreduce"])
@pytest.mark.parametrize("nbytes", [64, 65536])
def test_model_within_band_of_simulation(operation, nbytes):
    spec = ClusterSpec(nodes=4, tasks_per_node=16)
    machine, srm = build("srm", spec)
    simulated = time_operation(machine, srm, operation, nbytes, repeats=2, warmup=1).seconds
    predicted = srm_time(COST, spec, operation, nbytes)
    assert 0.4 <= predicted / simulated <= 2.0


@pytest.mark.parametrize("nodes", [3, 6])
@pytest.mark.parametrize("nbytes", [64, 4096, 16384])
def test_exchange_allreduce_model_counts_the_fold(nodes, nbytes):
    # On a non-power-of-two node count the excess masters fold in and get
    # the result back: one put and one combine, then one put, beyond the
    # floor(log2 k) pairwise rounds.
    spec = ClusterSpec(nodes=nodes, tasks_per_node=4)
    machine, srm = build("srm", spec)
    simulated = time_operation(machine, srm, "allreduce", nbytes, repeats=2, warmup=1).seconds
    assert 0.75 <= srm_time(COST, spec, "allreduce", nbytes) / simulated <= 1.33


def test_barrier_model_close_to_simulation():
    spec = ClusterSpec(nodes=16, tasks_per_node=16)
    machine, srm = build("srm", spec)
    simulated = time_operation(machine, srm, "barrier", repeats=3, warmup=1).seconds
    assert 0.5 <= srm_time(COST, spec, "barrier", 0) / simulated <= 1.5


def test_crossover_node_size_reasonable():
    # 16-way Colony-era nodes are well inside the shared-memory-wins regime.
    assert crossover_node_size(COST, 1024) == 20
    # Bigger messages push the crossover down (bus saturates sooner).
    for nbytes in (16 * 1024, 64 * 1024, 1 << 20):
        assert crossover_node_size(COST, nbytes) == 2


# ---------------------------------------------------------------------------
# baseline model + analytic ratios
# ---------------------------------------------------------------------------


def test_mpi_p2p_model_eager_vs_rendezvous():
    from repro.analysis import mpi_p2p_time

    limit = COST.eager_limit(256)
    eager = mpi_p2p_time(COST, limit, 256, intra_node=False)
    rendezvous = mpi_p2p_time(COST, limit + 1, 256, intra_node=False)
    # Crossing the limit costs a handshake, far more than one extra byte.
    assert rendezvous > eager + 20e-6


def test_mpi_p2p_model_intra_cheaper_than_inter():
    from repro.analysis import mpi_p2p_time

    assert mpi_p2p_time(COST, 1024, 64, True) < mpi_p2p_time(COST, 1024, 64, False)


def test_mpi_broadcast_model_tracks_simulation():
    from repro.analysis import mpi_broadcast_time
    from repro.bench import time_operation

    spec = ClusterSpec(nodes=4, tasks_per_node=16)
    machine, ibm = build("ibm", spec)
    for nbytes in (64, 16384):
        simulated = time_operation(machine, ibm, "broadcast", nbytes, repeats=2).seconds
        predicted = mpi_broadcast_time(COST, spec, nbytes)
        assert 0.4 <= predicted / simulated <= 2.0, (nbytes, predicted, simulated)


def test_mpi_barrier_model_tracks_simulation():
    from repro.analysis import mpi_barrier_time
    from repro.bench import time_operation

    spec = ClusterSpec(nodes=16, tasks_per_node=16)
    machine, ibm = build("ibm", spec)
    simulated = time_operation(machine, ibm, "barrier", repeats=3).seconds
    assert 0.5 <= mpi_barrier_time(COST, spec) / simulated <= 2.0


def test_predicted_ratio_always_srm_wins():
    from repro.analysis import predicted_broadcast_ratio

    for nodes in (2, 4, 8, 16):
        spec = ClusterSpec(nodes=nodes, tasks_per_node=16)
        for nbytes in (8, 1024, 65536, 1 << 20):
            ratio = predicted_broadcast_ratio(COST, spec, nbytes)
            assert 0 < ratio < 100, (nodes, nbytes, ratio)
