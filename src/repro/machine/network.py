"""The raw inter-node byte-moving primitive shared by LAPI and MPI.

One network message from node A to node B costs, in the fluid model:

* one one-way latency (:attr:`CostModel.net_latency`) — wire, adapters, and
  dispatch; then
* the payload streaming **concurrently** through three shared resources:
  A's NIC-out link, B's NIC-in link, and B's memory bus (the receiving DMA
  writes into node memory, contending with the SMP copies running there —
  the overlap the SRM pipelines exploit, paper §2.4).

An uncontended message therefore costs ``L + n/B`` (LogGP shape); contention
at either NIC or the destination bus stretches the bandwidth term.
Zero-byte control messages cost one latency.
"""

from __future__ import annotations

import typing

from repro.errors import ProtocolError
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Node

__all__ = ["network_transfer"]


def network_transfer(src_node: "Node", dst_node: "Node", nbytes: int) -> ProcessGenerator:
    """Move ``nbytes`` from ``src_node`` to ``dst_node`` (``yield from``).

    Only models time; the caller moves the actual bytes on completion.
    """
    if src_node is dst_node:
        raise ProtocolError(
            f"network_transfer within node {src_node.index}; use shared memory"
        )
    engine = src_node.engine
    cost = src_node.cost
    yield engine.timeout(cost.net_latency)
    if nbytes > 0:
        yield engine.all_of(
            [
                src_node.nic_out.transfer(nbytes),
                dst_node.nic_in.transfer(nbytes),
                dst_node.bus.transfer(nbytes),
            ]
        )
