"""Analytical performance model of the SRM collectives.

The paper's §5 names this as future work: "development of an analytical
performance model of the SRM collectives to better understand, model, and
evaluate effectiveness of this technique under different assumptions and
parameter values such as the SMP node size, intra-SMP memory bandwidth, and
performance of inter-node communication."

The SRM side of that model is the dispatch registry's cost hooks
(:mod:`repro.core.dispatch`): one closed form per registered variant over the
same :class:`~repro.machine.costmodel.CostModel` parameters the simulator
uses, the one model that also selects variants and that ``calibrate``
scores.  :func:`srm_time` predicts one call of the variant the paper's
selection rule picks.  This
module adds the message-passing baselines' closed forms and answers the
paper's what-if questions with both — see :func:`crossover_node_size` (at
what node size does SRM's shared-memory advantage saturate?) and
:func:`predicted_broadcast_ratio`.  The validation benchmark
(``benchmarks/bench_model_validation.py``) records the model/simulation
ratio across a sweep and asserts it stays within a calibrated band.
"""

from __future__ import annotations

from repro.core.config import SRMConfig
from repro.core.dispatch import PaperPolicy, SelectionEnv, lookup_variant, resolve_variant
from repro.machine.costmodel import CostModel
from repro.machine.spec import ClusterSpec

__all__ = [
    "srm_time",
    "mpi_p2p_time",
    "mpi_broadcast_time",
    "mpi_barrier_time",
    "predicted_broadcast_ratio",
    "crossover_node_size",
]


def _inter_rounds(nodes: int) -> int:
    """Binomial rounds between node masters."""
    return (nodes - 1).bit_length()


def srm_time(
    cost: CostModel,
    spec: ClusterSpec,
    op: str,
    nbytes: int,
    config: SRMConfig | None = None,
) -> float:
    """Predicted latency of one SRM ``op`` of ``nbytes`` on ``spec``: the
    cost hook of the variant the paper's selection rule runs."""
    env = SelectionEnv(
        op=op, nbytes=nbytes, nodes=spec.nodes, ppn=max(spec.node_sizes),
        config=config or SRMConfig(), cost=cost,
    )
    entry, _overridden = resolve_variant(PaperPolicy(), env)
    return entry.cost(env)


# ---------------------------------------------------------------------------
# baseline (message-passing) counterparts — for analytic ratio predictions
# ---------------------------------------------------------------------------


def mpi_p2p_time(cost: CostModel, nbytes: int, total_tasks: int, intra_node: bool) -> float:
    """One blocking MPI send/receive, eager or rendezvous per the limit."""
    overheads = cost.mpi_send_overhead + cost.mpi_recv_overhead
    if intra_node:
        transport = 2 * cost.copy_time(nbytes)  # bounce-buffer double copy
        wakeup = cost.mpi_shm_wakeup
        hop = cost.flag_poll_interval
        handshake = 2 * (cost.rendezvous_control_cost + hop + cost.mpi_shm_wakeup)
    else:
        transport = cost.wire_time(nbytes)
        wakeup = cost.mpi_blocked_recv_wakeup
        hop = cost.net_latency
        handshake = 2 * (cost.rendezvous_control_cost + hop) + cost.mpi_blocked_recv_wakeup
    if nbytes <= cost.eager_limit(total_tasks):
        # Eager: receiver additionally drains the system buffer.
        return overheads + transport + cost.copy_time(nbytes) + wakeup
    return overheads + handshake + transport + wakeup


def mpi_broadcast_time(cost: CostModel, spec: ClusterSpec, nbytes: int) -> float:
    """Binomial broadcast over ranks: critical path = inter-node rounds over
    nodes + intra-node rounds within one node (the root-0 block-mapped
    tree's structure)."""
    total = spec.total_tasks
    inter_hops = _inter_rounds(spec.nodes)
    intra_hops = _inter_rounds(max(spec.node_sizes))
    return inter_hops * mpi_p2p_time(cost, nbytes, total, intra_node=False) + (
        intra_hops * mpi_p2p_time(cost, nbytes, total, intra_node=True)
    )


def mpi_barrier_time(cost: CostModel, spec: ClusterSpec) -> float:
    """Recursive-doubling barrier over all ranks (zero-byte exchanges)."""
    total = spec.total_tasks
    intra_rounds = _inter_rounds(max(spec.node_sizes))
    inter_rounds = _inter_rounds(spec.nodes)
    return intra_rounds * mpi_p2p_time(cost, 0, total, intra_node=True) + (
        inter_rounds * mpi_p2p_time(cost, 0, total, intra_node=False)
    )


# ---------------------------------------------------------------------------
# what-ifs
# ---------------------------------------------------------------------------


def predicted_broadcast_ratio(cost: CostModel, spec: ClusterSpec, nbytes: int) -> float:
    """Analytic T_SRM / T_MPI * 100 % — the paper's Figs. 9–11 metric,
    answerable without running the simulator."""
    srm = srm_time(cost, spec, "broadcast", nbytes)
    return 100.0 * srm / mpi_broadcast_time(cost, spec, nbytes)


def crossover_node_size(cost: CostModel, nbytes: int, max_size: int = 512) -> int:
    """Smallest node size at which the SMP fan-out (bus-bound) becomes
    slower than one network hop — the "how fat can nodes get" question of
    §5: the one-chunk broadcast on one node of that size against the same
    broadcast across two one-task nodes."""
    small = lookup_variant("broadcast", "small").cost
    config = SRMConfig()

    def one_chunk(nodes: int, ppn: int) -> float:
        return small(SelectionEnv(
            op="broadcast", nbytes=nbytes, nodes=nodes, ppn=ppn, config=config, cost=cost,
        ))

    hop = one_chunk(2, 1)
    for node_size in range(2, max_size + 1):
        if one_chunk(1, node_size) > hop:
            return node_size
    return max_size
