"""Analysis companions: data-movement audits (Fig. 2) and the analytical
performance model the paper's §5 proposes as future work."""

from repro.analysis.datamovement import (
    MovementCounts,
    audit_reduce,
    message_passing_reduce_analytic,
    smp_reduce_analytic,
)
from repro.analysis.model import (
    crossover_node_size,
    mpi_barrier_time,
    mpi_broadcast_time,
    mpi_p2p_time,
    predicted_broadcast_ratio,
    srm_time,
)

__all__ = [
    "MovementCounts",
    "smp_reduce_analytic",
    "message_passing_reduce_analytic",
    "audit_reduce",
    "srm_time",
    "mpi_p2p_time",
    "mpi_broadcast_time",
    "mpi_barrier_time",
    "predicted_broadcast_ratio",
    "crossover_node_size",
]
