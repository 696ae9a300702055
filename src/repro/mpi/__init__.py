"""MPI substrate: point-to-point protocols, reduction ops, and the
baseline (message-passing) collective implementations the paper compares
SRM against."""

from repro.mpi.matching import ANY_SOURCE, ANY_TAG, Status
from repro.mpi.ops import BAND, BOR, LAND, LOR, MAX, MIN, PROD, SUM, ReduceOp, by_name
from repro.mpi.p2p import EagerPool, MpiEndpoint

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Status",
    "MpiEndpoint",
    "EagerPool",
    "ReduceOp",
    "SUM",
    "PROD",
    "MIN",
    "MAX",
    "LAND",
    "LOR",
    "BAND",
    "BOR",
    "by_name",
]
