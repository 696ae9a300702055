"""Mutation smoke: prove the detectors detect.

A verification harness that never fires is indistinguishable from one that
works.  Each mutation here re-introduces a classic synchronization bug into
the *live* protocol code (by patching a substrate class method for the
duration of a ``with`` block) and the smoke runner then asserts the harness
reports it:

* ``skip-ready-wait`` — a reader copies a pipeline buffer out **without**
  waiting for its READY flag (dropping the ``while !flag`` spin of Fig. 3).
  Detected by the ``read-before-ready`` buffer invariant (and usually a
  trailing ``flag-redundant-clear``).
* ``skip-ready-set`` — the buffer owner forgets to set one reader's READY
  flag (an off-by-one in the "set the flags of all other processes" loop of
  §2.2).  That reader spins forever: detected as a deadlock, with the
  blocked process named in the :class:`~repro.errors.DeadlockError`.
* ``alias-invocation-slot`` — the request layer's two overlap defenses are
  both dropped at once: the sequence ledger stops advancing SMP-broadcast
  cursors (every ``start()`` hands out the *same* slot window) and the
  per-rank started-order chain gate is skipped.  Harmless for blocking
  programs; with two invocations of one plan in flight the aliased slot is
  refilled while readers still hold it.  Detected on an overlap cell by the
  buffer invariants (overwrite-in-use / read-before-ready) or a deadlock.
* ``stale-compiled-schedule`` — ``PersistentCollective.invalidate`` becomes
  a no-op, so ``rebind()`` leaves the compiled-schedule replay cache
  (:mod:`repro.core.replay`) holding traces whose op tapes view the old
  buffers.  Post-rebind windows then hit the stale trace and move data into
  arrays nobody reads.  Detected on the ``replay-rebind`` verify cell by
  ``result-mismatch`` (the rebound buffers never receive the payload).

Patches target the **class methods** (``SharedFlag.wait_value``,
``FlagArray.set_all``, ``SequenceLedger.reserve``) rather than module
globals, so every call site — including ``from ... import``-ed aliases —
sees the mutant.  Both flag mutants fire only on ``kind == "ready"`` flags,
leaving barrier check-in and sequence flags honest.
"""

from __future__ import annotations

import contextlib
import typing

from repro.errors import VerificationError
from repro.obs.taxonomy import FLAG_SET
from repro.shmem.flags import FlagArray, SharedFlag

__all__ = ["MUTATIONS", "apply_mutation"]


@contextlib.contextmanager
def _skip_ready_wait() -> typing.Iterator[None]:
    original = SharedFlag.wait_value

    def mutated(self: SharedFlag, task: typing.Any, value: int) -> typing.Any:
        if self.kind == "ready" and value == 1:
            # The bug: proceed straight to the copy, never spin.
            return self._value
            yield  # pragma: no cover - keeps this a generator function
        result = yield from original(self, task, value)
        return result

    SharedFlag.wait_value = mutated  # type: ignore[method-assign]
    try:
        yield
    finally:
        SharedFlag.wait_value = original  # type: ignore[method-assign]


@contextlib.contextmanager
def _skip_ready_set() -> typing.Iterator[None]:
    original = FlagArray.set_all

    def mutated(
        self: FlagArray, task: typing.Any, value: int, skip: int | None = None
    ) -> typing.Any:
        indices = [i for i in range(len(self.flags)) if i != skip]
        if self.kind == "ready" and value == 1 and indices:
            # The bug: the last reader's READY flag is never set.
            indices = indices[:-1]
        with task.phase(FLAG_SET):
            yield task.engine.timeout(self.cost.flag_set_cost * max(len(indices), 1))
        self.node.machine.obs.flag_sets.inc(len(indices))
        for index in indices:
            self.flags[index].store(value, writer_rank=task.rank)

    FlagArray.set_all = mutated  # type: ignore[method-assign]
    try:
        yield
    finally:
        FlagArray.set_all = original  # type: ignore[method-assign]


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
