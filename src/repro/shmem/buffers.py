"""Double-buffer structures for pipelined shared-memory protocols.

The SRM broadcast (paper §2.2, Fig. 3) uses **one pair of shared buffers per
node** (A and B) and **two banks of per-process READY flags** — one bank per
buffer.  The root fills a buffer, sets the READY flags of every other task;
each task copies the data out and clears *its own* flag; the root may refill
a buffer only once every flag for that buffer is clear again.  Consecutive
operations (and pipeline chunks) alternate between the two buffers so the
root's fill of one buffer overlaps the readers' drains of the other.

:class:`DoubleBuffer` packages exactly that: two data regions carved from a
:class:`~repro.shmem.segment.SharedSegment` plus two
:class:`~repro.shmem.flags.FlagArray` banks.  It keeps no cursor: protocols
pick a buffer by the parity of a chunk sequence they reserved, which keeps
alternating across consecutive calls too (the paper alternates buffers
between *consecutive broadcast operations*, "to improve concurrency").
"""

from __future__ import annotations

import typing

import numpy as np

from repro.errors import ProtocolError
from repro.shmem.flags import FlagArray
from repro.shmem.segment import SharedSegment

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Node

__all__ = ["DoubleBuffer"]


class DoubleBuffer:
    """Two shared data buffers + per-task READY flag banks on one node."""

    def __init__(
        self,
        node: "Node",
        buffer_bytes: int,
        flags_per_buffer: int,
        name: str = "dbuf",
    ) -> None:
        if buffer_bytes < 1:
            raise ProtocolError(f"buffer size must be >= 1 B, got {buffer_bytes}")
        self.node = node
        self.buffer_bytes = buffer_bytes
        self.name = name
        segment = SharedSegment(node, 2 * buffer_bytes + 256, name=f"{name}-seg")
        self.buffers: tuple[np.ndarray, np.ndarray] = (
            segment.allocate(buffer_bytes),
            segment.allocate(buffer_bytes),
        )
        self.ready: tuple[FlagArray, FlagArray] = (
            FlagArray(node, flags_per_buffer, name=f"{name}-readyA", kind="ready"),
            FlagArray(node, flags_per_buffer, name=f"{name}-readyB", kind="ready"),
        )
        self.engine = node.machine.engine

    def data(self, slot: int, nbytes: int) -> np.ndarray:
        """A view of the first ``nbytes`` of buffer ``slot``."""
        if slot not in (0, 1):
            raise ProtocolError(f"slot must be 0 or 1, got {slot}")
        if nbytes > self.buffer_bytes:
            raise ProtocolError(
                f"{nbytes} B does not fit the {self.buffer_bytes} B shared buffer"
            )
        return self.buffers[slot][:nbytes]

    def flags(self, slot: int) -> FlagArray:
        """The READY flag bank guarding buffer ``slot``."""
        if slot not in (0, 1):
            raise ProtocolError(f"slot must be 0 or 1, got {slot}")
        return self.ready[slot]

    # -- verification checkpoints -------------------------------------------
    #
    # Protocol code announces its intent just before touching a buffer; the
    # attached verifier (if any) checks the READY bank agrees.  Both calls
    # are single-attribute-test no-ops when verification is off.

    def check_fill(self, slot: int, writer_index: int | None = None) -> None:
        """About to (over)write buffer ``slot``: every reader's READY flag
        must be clear, else an in-use pipeline buffer is being clobbered."""
        verifier = self.engine.verifier
        if verifier is not None:
            verifier.on_buffer_fill(self, slot, writer_index)

    def check_drain(self, slot: int, reader_index: int) -> None:
        """About to read buffer ``slot`` as reader ``reader_index``: that
        reader's READY flag must be set, else this is a read-before-ready."""
        verifier = self.engine.verifier
        if verifier is not None:
            verifier.on_buffer_drain(self, slot, reader_index)

    def __repr__(self) -> str:
        return (
            f"<DoubleBuffer {self.name!r} node={self.node.index} 2x{self.buffer_bytes} B>"
        )
