"""The slot handoff: the one rule of every shared slot reused across calls.

The Fig. 3 broadcast buffers, each task's reduce slot, the scan's slots and
the A2 tree relay all follow §2.2's rule: a writer refills a buffer only
once its readers are done with it.  Write ``s`` goes to generation
``s % generations``, which has one flag per reader *seat*.  The writer
publishes it by storing the odd stamp ``2 * (s // generations) + 1`` in its
readers' seats; a reader waits for that stamp and releases it with the next
even value; a writer acquires a generation once every seat is even, that
is, once every reader of its last write, whichever ranks they were, let go.
Stamps only grow, so a reader whose role moved between calls never takes an
older write for its own.  A remote put cannot poll the seats: its sender
holds a credit (Fig. 4's buffer-free counter) instead, good only while its
edge made the last write, so :meth:`DoubleBuffer.reserve` records each
generation's last writer, which every member derives alike.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.errors import ProtocolError
from repro.shmem.flags import FlagArray
from repro.shmem.segment import SharedSegment

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Node, Task
    from repro.sim.process import ProcessGenerator

__all__ = ["DoubleBuffer", "FILL"]

#: The last-writer record of a local fill (a task copying into the slot).
FILL = "fill"


def _free(value: int) -> bool:
    return value % 2 == 0


class DoubleBuffer:
    """A shared slot of ``generations`` buffers, handed by one writer at a
    time to the readers on its ``seats`` (see the module docstring)."""

    def __init__(
        self, node: "Node", buffer_bytes: int, seats: int, name: str = "dbuf", generations: int = 2
    ) -> None:
        if buffer_bytes < 1:
            raise ProtocolError(f"buffer size must be >= 1 B, got {buffer_bytes}")
        self.node = node
        self.engine = node.engine
        self.buffer_bytes = buffer_bytes
        self.name = name
        self.generations = generations
        segment = SharedSegment(node, generations * (buffer_bytes + 64), name=f"{name}-seg")
        self.buffers = tuple(segment.allocate(buffer_bytes) for _ in range(generations))
        self.seats = tuple(
            FlagArray(node, seats, name=f"{name}-gen{g}", kind="sequence")
            for g in range(generations)
        )

    def data(self, sequence: int, nbytes: int) -> np.ndarray:
        """The first ``nbytes`` of the generation write ``sequence`` uses."""
        if nbytes > self.buffer_bytes:
            raise ProtocolError(f"{nbytes} B does not fit the {self.buffer_bytes} B buffer")
        return self.buffers[sequence % self.generations][:nbytes]

    def _stamp(self, sequence: int) -> tuple[FlagArray, int]:
        """The seats of ``sequence``'s generation and its published stamp."""
        return self.seats[sequence % self.generations], 2 * (sequence // self.generations) + 1

    def acquire(self, task: "Task", sequence: int, skip: int | None = None) -> "ProcessGenerator":
        """Wait until every reader of the last write to ``sequence``'s
        generation released it, then check.  A bank of seats is polled every
        time, as Fig. 3's root does; a single seat once it was handed out."""
        seats, _ = self._stamp(sequence)
        if len(seats) > 1:
            yield from seats.wait_all(task, _free, skip=skip)
        elif seats[0].value:
            yield from seats[0].wait_for(task, _free)
        self.check_fill(sequence, skip)

    def publish(
        self, task: "Task", sequence: int, skip: int | None = None, seats: typing.Any = None
    ) -> "ProcessGenerator":
        """Hand write ``sequence`` to ``seats`` (default: all but ``skip``)."""
        bank, stamp = self._stamp(sequence)
        yield from bank.set_all(task, stamp, skip, seats)

    def read(self, task: "Task", sequence: int, seat: int = 0) -> "ProcessGenerator":
        """Wait until write ``sequence`` is handed to ``seat``, then check."""
        bank, stamp = self._stamp(sequence)
        yield from bank[seat].wait_for(task, lambda value: value >= stamp)
        self.check_drain(sequence, seat)

    def release(self, task: "Task", sequence: int, seat: int = 0) -> "ProcessGenerator":
        """Hand ``sequence``'s generation back from ``seat``."""
        bank, stamp = self._stamp(sequence)
        yield from bank[seat].set(task, stamp + 1)

    def reserve(
        self, ledger: typing.Any, key: tuple, count: int, writer: typing.Hashable
    ) -> tuple[int, tuple]:
        """Claim ``count`` sequences of ``key`` for ``writer``; returns the
        first and each generation's last writer before (``None``: never
        written), kept in ``ledger`` as a tuple, which replay compares exactly."""
        base = ledger.reserve(key, count)
        previous = ledger.get(("writer", *key), (None,) * self.generations)
        ledger[("writer", *key)] = tuple(
            writer if (generation - base) % self.generations < count else last
            for generation, last in enumerate(previous)
        )
        return base, previous

    def check_fill(self, sequence: int, skip: int | None = None) -> None:
        """Report ``buffer-overwrite-in-use`` if a seat still holds the last
        write to ``sequence``'s generation."""
        verifier = self.engine.verifier
        seats, _ = self._stamp(sequence)
        held = [i for i, flag in enumerate(seats.flags) if flag.value % 2 and i != skip]
        if verifier is not None and held:
            verifier.record(
                "buffer-overwrite-in-use", self, f"write {sequence} while seats {held} hold the last"
            )

    def check_drain(self, sequence: int, seat: int) -> None:
        """Report ``read-before-ready`` unless ``seat`` holds write ``sequence``."""
        verifier = self.engine.verifier
        bank, stamp = self._stamp(sequence)
        if verifier is not None and bank[seat].value != stamp:
            verifier.record(
                "read-before-ready", self, f"seat {seat} read write {sequence} before its handoff"
            )

    def __repr__(self) -> str:
        return f"<DoubleBuffer {self.name!r} {self.generations}x{self.buffer_bytes} B>"
