"""Mutation smoke: prove the detectors detect.

A verification harness that never fires is indistinguishable from one that
works.  Each mutation here re-introduces a classic synchronization bug into
the *live* protocol code (by patching a substrate class method for the
duration of a ``with`` block) and the smoke runner then asserts the harness
reports it:

* ``skip-ready-wait`` — a reader copies a slot out **without** waiting for
  the write to be handed to its seat (dropping the ``while !flag`` spin of
  Fig. 3).  Detected by the ``read-before-ready`` slot check.
* ``skip-ready-set`` — the writer forgets to hand the write to one reader's
  seat (an off-by-one in the "set the flags of all other processes" loop
  of §2.2).  That reader spins forever: detected as a deadlock, with the
  blocked process named in the :class:`~repro.errors.DeadlockError`.
* ``skip-writer-wait`` — a writer (over)writes a slot generation without
  waiting for the readers of its last write to release it.  On a pipelined
  reduce a leaf then refills its slot while its parent still combines it:
  detected by the ``buffer-overwrite-in-use`` slot check.
* ``alias-invocation-slot`` — the request layer's two overlap defenses are
  both dropped at once: the sequence ledger stops advancing SMP-broadcast
  cursors (every ``start()`` hands out the *same* slot window) and the
  per-rank started-order chain gate is skipped.  With two invocations of
  one plan in flight the aliased slot is refilled while readers still hold
  it.  Detected on an overlap cell by the slot checks (overwrite-in-use /
  read-before-ready) or a deadlock; a blocking program trips
  read-before-ready too, since every write's handoff stamp names its
  sequence.
* ``stale-compiled-schedule`` — ``PersistentCollective.invalidate`` becomes
  a no-op, so ``rebind()`` leaves the compiled-schedule replay cache
  (:mod:`repro.core.replay`) holding traces whose op tapes view the old
  buffers.  Post-rebind windows then hit the stale trace and move data into
  arrays nobody reads.  Detected on the ``replay-rebind`` verify cell by
  ``result-mismatch`` (the rebound buffers never receive the payload).

Patches target the **class methods** (``DoubleBuffer.read``,
``DoubleBuffer.publish``, ``DoubleBuffer.acquire``,
``SequenceLedger.reserve``) rather than module globals, so every call site
— including ``from ... import``-ed aliases — sees the mutant.  The three
slot mutants break every slot handoff (broadcast, reduce, scan and tree
slots) and leave barrier check-in flags honest.
"""

from __future__ import annotations

import contextlib
import typing

from repro.errors import VerificationError
from repro.shmem.buffers import DoubleBuffer

__all__ = ["MUTATIONS", "apply_mutation"]


@contextlib.contextmanager
def _patched(cls: type, name: str, mutant: typing.Callable) -> typing.Iterator[None]:
    original = getattr(cls, name)
    setattr(cls, name, mutant)
    try:
        yield
    finally:
        setattr(cls, name, original)


def _skip_ready_wait() -> typing.ContextManager[None]:
    def mutated(self: DoubleBuffer, task: typing.Any, sequence: int, seat: int = 0) -> typing.Any:
        # The bug: proceed straight to the copy, never spin.
        self.check_drain(sequence, seat)
        return
        yield  # pragma: no cover - keeps this a generator function

    return _patched(DoubleBuffer, "read", mutated)


def _skip_ready_set() -> typing.ContextManager[None]:
    original = DoubleBuffer.publish

    def mutated(
        self: DoubleBuffer,
        task: typing.Any,
        sequence: int,
        skip: int | None = None,
        seats: typing.Iterable[int] | None = None,
    ) -> typing.Any:
        if seats is None:
            seats = [index for index in range(len(self.seats[0])) if index != skip]
        # The bug: the last reader's seat is never handed the write.
        yield from original(self, task, sequence, seats=list(seats)[:-1])

    return _patched(DoubleBuffer, "publish", mutated)


def _skip_writer_wait() -> typing.ContextManager[None]:
    def mutated(
        self: DoubleBuffer, task: typing.Any, sequence: int, skip: int | None = None
    ) -> typing.Any:
        # The bug: overwrite the generation without waiting for the readers
        # of its last write.
        self.check_fill(sequence, skip)
        return
        yield  # pragma: no cover - keeps this a generator function

    return _patched(DoubleBuffer, "acquire", mutated)


@contextlib.contextmanager
def _alias_invocation_slot() -> typing.Iterator[None]:
    from repro.core.context import SequenceLedger
    from repro.core.requests import CollectiveRequest

    original_reserve = SequenceLedger.reserve
    original_gate = CollectiveRequest._gate_on_predecessor

    def mutated_reserve(self: SequenceLedger, key: tuple, count: int) -> int:
        if key[0] != "bcast":
            return original_reserve(self, key, count)
        # The bug: hand out the current SMP-broadcast window without
        # claiming it — every start() of the same rank aliases the same
        # buffer slots.
        return self[key]

    def mutated_gate(self: CollectiveRequest) -> typing.Any:
        # The bug: drop the per-rank started-order chain, letting the
        # aliased invocations actually run concurrently.
        self._predecessor = None
        return
        yield  # pragma: no cover - keeps this a generator function

    SequenceLedger.reserve = mutated_reserve  # type: ignore[method-assign]
    CollectiveRequest._gate_on_predecessor = mutated_gate  # type: ignore[method-assign]
    try:
        yield
    finally:
        SequenceLedger.reserve = original_reserve  # type: ignore[method-assign]
        CollectiveRequest._gate_on_predecessor = original_gate  # type: ignore[method-assign]


@contextlib.contextmanager
def _stale_compiled_schedule() -> typing.Iterator[None]:
    from repro.core.requests import PersistentCollective

    original = PersistentCollective.invalidate

    def mutated(self: PersistentCollective) -> None:
        # The bug: rebind() forgets to invalidate — the replay cache keeps
        # traces whose op tapes still hold views of the *old* buffers, so a
        # post-rebind cache hit replays data movement into arrays nobody
        # reads and the freshly bound buffers never change.
        return None

    PersistentCollective.invalidate = mutated  # type: ignore[method-assign]
    try:
        yield
    finally:
        PersistentCollective.invalidate = original  # type: ignore[method-assign]


#: name -> (expected detection, context-manager factory)
MUTATIONS: dict[str, tuple[str, typing.Callable[[], typing.ContextManager[None]]]] = {
    "skip-ready-wait": (
        "reader drains the shared buffer without waiting for READY "
        "(expect read-before-ready violations)",
        _skip_ready_wait,
    ),
    "skip-ready-set": (
        "owner forgets one reader's READY flag "
        "(expect a deadlock naming the starved rank)",
        _skip_ready_set,
    ),
    "skip-writer-wait": (
        "a writer refills a slot generation before its readers released it "
        "(expect buffer-overwrite-in-use on a pipelined reduce)",
        _skip_writer_wait,
    ),
    "alias-invocation-slot": (
        "overlapping starts share one slot window with no ordering chain "
        "(expect buffer overwrite/read violations or a deadlock)",
        _alias_invocation_slot,
    ),
    "stale-compiled-schedule": (
        "rebind() stops invalidating the compiled-schedule cache "
        "(expect result-mismatch on the replay-rebind cell)",
        _stale_compiled_schedule,
    ),
}


def apply_mutation(name: str) -> typing.ContextManager[None]:
    """Context manager installing mutation ``name`` for the block's duration."""
    try:
        return MUTATIONS[name][1]()
    except KeyError:
        raise VerificationError(
            f"unknown mutation {name!r} (known: {sorted(MUTATIONS)})"
        ) from None
