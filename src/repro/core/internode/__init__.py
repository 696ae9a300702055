"""Inter-node (RMA) halves of the SRM collectives (paper §2.3–2.4)."""

from repro.core.internode.barrier import srm_barrier
from repro.core.internode.broadcast import srm_broadcast
from repro.core.internode.reduce import srm_reduce

__all__ = ["srm_broadcast", "srm_reduce", "srm_barrier"]
