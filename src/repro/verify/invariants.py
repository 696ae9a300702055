"""Runtime protocol invariant checkers for the SRM synchronization layers.

Every :class:`~repro.machine.Machine` attaches a strict :class:`Verifier`
to its engine at construction, so a broken invariant raises at its first
violating write; the verification harness swaps in a collecting one
(``engine.verifier = Verifier()``).  The verifier receives callbacks from
the shared-memory and LAPI substrates at every synchronization-relevant
state change.  The hook sites are pre-wired in :mod:`repro.shmem.flags`,
:mod:`repro.shmem.buffers` and :mod:`repro.lapi.counters`; checks observe
and never schedule, so simulated results are the same with or without one.

The invariants encode the paper's hand-reasoned safety arguments:

==============================  ============================================
rule                            paper argument it mechanizes
==============================  ============================================
``flag-double-set``             barrier check-in flags are 0/1 handshakes
``flag-redundant-clear``        with one writer per phase (§2.2): setting a
                                set flag or clearing a clear one means a
                                task checked in twice or was released twice.
``flag-nonbinary``              a check-in flag only ever holds 0 or 1.
``sequence-decrease``           cumulative counts and slot-handoff stamps are
                                monotone non-decreasing (a handoff seat never
                                rewinds to an older write).
``counter-decrease``            LAPI counters only move backwards through
                                explicit ``Setcntr``/``Waitcntr`` consume;
                                an increment may never lower the value.
``counter-reset-under-waiters``  resetting a counter below threshold while
                                processes wait on it can strand them (the
                                Fig. 4 flow control never does this).
``counter-over-consume``        ``Waitcntr`` consuming more than the counter
                                holds would drive it negative.
``buffer-overwrite-in-use``     a writer may (over)write a shared slot's
                                generation only once every reader of its last
                                write released it (§2.2: "check/wait on all
                                the flags ... make sure the buffer is free for
                                reuse") — checked by every slot handoff
                                (broadcast, reduce, scan and tree slots).
``read-before-ready``           a reader may read a slot only once the write
                                it expects was handed to its seat.
==============================  ============================================

Violations are recorded (and optionally raised, ``strict=True``) with the
simulated timestamp, the subject's name, and a human-readable description.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import VerificationError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.lapi.counters import LapiCounter
    from repro.shmem.flags import SharedFlag

__all__ = ["Violation", "Verifier"]



@dataclasses.dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    rule: str
    subject: str
    time: float
    detail: str

    def as_dict(self) -> dict[str, typing.Any]:
        """JSON-ready representation (used by the verify report)."""
        return {
            "rule": self.rule,
            "subject": self.subject,
            "time": self.time,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject} @t={self.time:.6g}: {self.detail}"


class Verifier:
    """Collects (or raises on) protocol invariant violations.

    Parameters
    ----------
    strict:
        When true, the first violation raises :class:`VerificationError`
        at the exact simulated moment it occurs — useful in unit tests to
        get a traceback through the offending protocol code.
    max_violations:
        Recording cap; once reached further violations are counted in
        :attr:`dropped` but not stored (a badly mutated protocol can
        otherwise produce one violation per chunk per rank).
    counter:
        Optional metrics counter (``.inc()``-able, e.g. from
        :class:`repro.obs.metrics.MetricsRegistry`) bumped per violation.
    """

    def __init__(
        self,
        strict: bool = False,
        max_violations: int = 1000,
        counter: typing.Any = None,
    ) -> None:
        self.strict = strict
        self.max_violations = int(max_violations)
        self.counter = counter
        self.violations: list[Violation] = []
        self.dropped = 0

    # -- bookkeeping ---------------------------------------------------------

    def reset(self) -> None:
        """Clear recorded violations (the attached counter is not rewound)."""
        self.violations = []
        self.dropped = 0

    @property
    def clean(self) -> bool:
        """True when no violation has been observed."""
        return not self.violations and not self.dropped

    def record(self, rule: str, subject: typing.Any, detail: str) -> None:
        """Record one violation of ``rule`` by ``subject`` (anything with an
        ``engine``; its ``name`` labels the report).  The checks that live
        with their structure — the slot handoff's fill and drain checks in
        :mod:`repro.shmem.buffers` — report through here."""
        violation = Violation(
            rule=rule,
            subject=getattr(subject, "name", None) or repr(subject),
            time=float(subject.engine.now),
            detail=detail,
        )
        if self.counter is not None:
            self.counter.inc()
        if len(self.violations) >= self.max_violations:
            self.dropped += 1
        else:
            self.violations.append(violation)
        if self.strict:
            raise VerificationError(str(violation))

    # -- shared-memory flag hooks ---------------------------------------------

    def on_flag_store(
        self,
        flag: "SharedFlag",
        old: int,
        new: int,
        writer_rank: int | None,
    ) -> None:
        """Called by :meth:`SharedFlag.store` before the value changes."""
        kind = flag.kind
        if kind is None or (kind == "sequence" and new >= old):
            return
        writer = f"rank {writer_rank}" if writer_rank is not None else "an untimed store"
        if kind == "checkin":
            if new not in (0, 1):
                self.record(
                    "flag-nonbinary",
                    flag,
                    f"{writer} stored {new} into a check-in handshake flag",
                )
            elif old == 1 and new == 1:
                self.record(
                    "flag-double-set",
                    flag,
                    f"{writer} set a check-in flag that was already set — "
                    f"the task checked in twice",
                )
            elif old == 0 and new == 0:
                self.record(
                    "flag-redundant-clear",
                    flag,
                    f"{writer} cleared a check-in flag that was already clear — "
                    f"a release for a task that never checked in",
                )
        elif kind == "sequence":
            if new < old:
                self.record(
                    "sequence-decrease",
                    flag,
                    f"{writer} rewound a cumulative sequence flag {old} -> {new}",
                )

    # -- LAPI counter hooks ----------------------------------------------------

    def on_counter_increment(self, counter: "LapiCounter", old: int, new: int) -> None:
        """Called by :meth:`LapiCounter.increment` before the update."""
        if new <= old:
            self.record(
                "counter-decrease",
                counter,
                f"increment moved the counter {old} -> {new}",
            )

    def on_counter_set(
        self, counter: "LapiCounter", old: int, new: int, waiters: int
    ) -> None:
        """Called by :meth:`LapiCounter.set` before the overwrite."""
        if new < old and waiters > 0:
            self.record(
                "counter-reset-under-waiters",
                counter,
                f"Setcntr lowered the value {old} -> {new} while {waiters} "
                f"waiter(s) were blocked on it",
            )

    def on_counter_consume(self, counter: "LapiCounter", value: int, amount: int) -> None:
        """Called by :meth:`LapiCounter.consume` before the subtraction."""
        if amount > value:
            self.record(
                "counter-over-consume",
                counter,
                f"Waitcntr consumed {amount} from a counter holding {value}",
            )

    def __repr__(self) -> str:
        return (
            f"<Verifier violations={len(self.violations)} dropped={self.dropped} "
            f"strict={self.strict}>"
        )
