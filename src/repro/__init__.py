"""Reproduction of *Fast Collective Operations Using Shared and Remote
Memory Access Protocols on Clusters* (Tipparaju, Nieplocha, Panda —
IPPS 2003).

The package simulates an SMP cluster (discrete-event, with real data
movement) and implements the paper's SRM collectives plus the two MPI
baselines on top of it.
"""

from repro._version import __version__
from repro.machine import ClusterSpec, CostModel, Machine

__all__ = ["__version__", "ClusterSpec", "CostModel", "Machine"]
