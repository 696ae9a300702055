"""LAPI-style completion counters.

LAPI communicates progress through integer counters (paper §2.3): the
dispatcher increments a counter when a communication phase completes, and a
process can probe (``LAPI_Getcntr``), block (``LAPI_Waitcntr``), or reset
(``LAPI_Setcntr``).  ``LAPI_Waitcntr(cntr, val)`` blocks until the counter
reaches ``val`` and then *consumes* that amount — both semantics are
reproduced here because SRM's two-buffer flow control (Fig. 4, left) depends
on them.
"""

from __future__ import annotations

import typing

from repro.errors import ProtocolError
from repro.sim.engine import Engine
from repro.sim.events import Event

__all__ = ["LapiCounter"]


class LapiCounter:
    """A monotonically incremented counter with threshold waiters."""

    def __init__(self, engine: Engine, initial: int = 0, name: str | None = None) -> None:
        if initial < 0:
            raise ProtocolError(f"counter cannot start negative: {initial}")
        self.engine = engine
        self.name = name
        self._value = int(initial)
        self._waiters: list[tuple[int, Event]] = []

    @property
    def value(self) -> int:
        """Current counter value (``LAPI_Getcntr``)."""
        return self._value

    def increment(self, amount: int = 1) -> None:
        """Dispatcher-side increment; wakes waiters whose threshold is met."""
        if amount < 1:
            raise ProtocolError(f"increment must be >= 1, got {amount}")
        verifier = self.engine.verifier
        if verifier is not None:
            verifier.on_counter_increment(self, self._value, self._value + amount)
        self._value += amount
        self._wake()

    def set(self, value: int) -> None:
        """``LAPI_Setcntr``: overwrite the value (used between operations)."""
        if value < 0:
            raise ProtocolError(f"counter cannot be set negative: {value}")
        verifier = self.engine.verifier
        if verifier is not None:
            verifier.on_counter_set(self, self._value, int(value), len(self._waiters))
        self._value = int(value)
        self._wake()

    def _wake(self) -> None:
        if not self._waiters:
            return
        still_waiting: list[tuple[int, Event]] = []
        for threshold, event in self._waiters:
            if self._value >= threshold:
                event.succeed(self._value)
            else:
                still_waiting.append((threshold, event))
        self._waiters = still_waiting

    def event_at(self, threshold: int) -> Event | None:
        """Event firing when the counter first reaches ``threshold``, or
        ``None`` if it already has.  Does not consume the counter."""
        if self._value >= threshold:
            return None
        event = Event(self.engine, name=f"cntr:{self.name}>={threshold}")
        self._waiters.append((threshold, event))
        return event

    def consume(self, amount: int) -> None:
        """Subtract ``amount`` after a satisfied wait (``LAPI_Waitcntr``).

        Consuming more than the counter holds is the verifier's
        ``counter-over-consume``; the machine's default verifier raises it.
        """
        verifier = self.engine.verifier
        if verifier is not None:
            verifier.on_counter_consume(self, self._value, amount)
        self._value -= amount

    def __repr__(self) -> str:
        return f"<LapiCounter {self.name!r}={self._value} waiters={len(self._waiters)}>"
