"""Contention resources for the simulation kernel.

Two resource families model the hardware domains of an SMP cluster:

* :class:`FifoResource` — a counted-slot resource with FIFO granting.  Used
  for things that serialize whole-operation access (a NIC send DMA engine, a
  lock).
* :class:`SharedBandwidth` — a fluid-flow *processor-sharing* link.  Active
  transfers share the link rate equally (optionally capped per transfer, e.g.
  a single CPU cannot stream faster than its own copy bandwidth even on an
  idle memory bus).  This is the standard fluid approximation for memory-bus
  and switch-port contention and is what makes simultaneous-reader SMP
  broadcast contention (paper §2.2) come out right.  The link cancels a
  superseded wake-up in place, and :meth:`SharedBandwidth.transfer_after`
  joins it from a start-up timeout's callback, so a copy costs its waiter
  one process resume.

:class:`Gate` is a resettable broadcast condition used for interrupt-mode
modelling ("wait until the target enters a LAPI call").
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import typing

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event, Timeout

__all__ = ["FifoResource", "SharedBandwidth", "Gate"]


class FifoResource:
    """A resource with ``capacity`` slots granted in request order."""

    def __init__(self, engine: Engine, capacity: int = 1, name: str | None = None) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: list[Event] = []
        monitor = engine.monitor
        self._timeline = monitor.register(name, "fifo") if monitor is not None else None

    def _record(self) -> None:
        timeline = self._timeline
        if timeline is not None:
            timeline.record(
                self.engine.now,
                self._in_use,
                len(self._waiting),
                self._in_use >= self.capacity,
            )

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        grant = Event(self.engine, name=f"grant:{self.name}")
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed()
        else:
            self._waiting.append(grant)
        self._record()
        return grant

    def release(self) -> None:
        """Release a previously granted slot, waking the next waiter."""
        if self._in_use == 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiting:
            self._waiting.pop(0).succeed()
        else:
            self._in_use -= 1
        self._record()

    def use(self, duration: float) -> typing.Generator[Event, typing.Any, None]:
        """Hold one slot for ``duration`` simulated seconds (``yield from``)."""
        yield self.request()
        try:
            yield self.engine.timeout(duration)
        finally:
            self.release()


class _Transfer:
    __slots__ = ("size", "remaining", "cap", "event", "arrival", "rate")

    def __init__(self, nbytes: float, cap: float, event: Event) -> None:
        self.size = float(nbytes)
        self.remaining = float(nbytes)
        self.cap = cap
        self.event = event
        #: Join order on the link, taken when the transfer joins (after any
        #: start-up): completions at one instant fire in this order.
        self.arrival = 0
        #: Water-filling share, recomputed at each membership change.
        self.rate = 0.0


_cap = operator.attrgetter("cap")
_arrival = operator.attrgetter("arrival")


class SharedBandwidth:
    """Fluid-flow processor-sharing link of ``rate`` bytes/second.

    All active transfers progress simultaneously; each receives a
    water-filling share of the link rate, never exceeding its own per-transfer
    cap.  Membership changes (a transfer joining or completing) re-divide the
    rate instantly.

    The active transfers are kept in water-filling order (cap, then arrival)
    as they join and leave, and their shares are computed once per
    membership change; the next settle reuses them.  One wake-up is armed
    for the earliest completion.  A membership change cancels the armed
    wake-up instead of leaving it to find itself stale: its queue entry
    stays, with its sequence number, but runs nothing when popped.
    """

    #: Residual-byte tolerance when deciding a transfer has completed.
    EPSILON = 1e-6

    def __init__(self, engine: Engine, rate: float, name: str | None = None) -> None:
        if not (rate > 0) or math.isinf(rate):
            raise SimulationError(f"link rate must be finite and positive, got {rate}")
        self.engine = engine
        self.rate = float(rate)
        self.name = name
        self._done_name = f"xfer:{name}"
        #: Active transfers in water-filling order: cap first, then arrival.
        self._active: list[_Transfer] = []
        self._arrivals = itertools.count()
        self._last_settled = engine.now
        #: The armed wake-up for the earliest completion, if any.
        self._wakeup: Event | None = None
        #: Total bytes ever completed through this link (for audits/tests).
        self.bytes_transferred = 0.0
        monitor = engine.monitor
        self._timeline = (
            monitor.register(name, "bandwidth") if monitor is not None else None
        )

    @property
    def active_transfers(self) -> int:
        """Number of transfers currently sharing the link."""
        return len(self._active)

    def transfer(self, nbytes: float, max_rate: float | None = None) -> Event:
        """Start moving ``nbytes`` through the link; returns a completion event.

        ``max_rate`` caps this transfer's share (e.g. one CPU's copy speed).
        """
        transfer = self._new_transfer(nbytes, max_rate)
        self._start(transfer)
        return transfer.event

    def transfer_after(self, startup: float, nbytes: float, max_rate: float | None = None) -> Event:
        """:meth:`transfer`, joining the link ``startup`` seconds from now.

        One call for a start-up cost followed by a transfer (a copy's
        software start-up, say): the transfer joins from the start-up
        timeout's callback, so a process waiting on the returned completion
        event resumes once.  A zero-byte transfer completes at the end of
        its start-up.
        """
        transfer = self._new_transfer(nbytes, max_rate)
        Timeout(self.engine, startup, transfer).add_callback(self._on_startup)
        return transfer.event

    # -- fluid-flow internals ---------------------------------------------

    def _new_transfer(self, nbytes: float, max_rate: float | None) -> _Transfer:
        if not nbytes >= 0:
            raise SimulationError(f"cannot transfer {nbytes} bytes")
        cap = float("inf") if max_rate is None else float(max_rate)
        if not cap > 0:
            raise SimulationError(f"max_rate must be positive, got {max_rate}")
        return _Transfer(nbytes, cap, Event(self.engine, name=self._done_name))

    def _on_startup(self, startup: Event) -> None:
        self._start(startup._value)

    def _start(self, transfer: _Transfer) -> None:
        if transfer.size == 0:
            transfer.event.succeed()
            return
        self._settle()
        transfer.arrival = next(self._arrivals)
        bisect.insort(self._active, transfer, key=_cap)
        self._reschedule()

    def _settle(self) -> None:
        """Advance every active transfer's progress to the current time."""
        now = self.engine._now
        elapsed = now - self._last_settled
        self._last_settled = now
        if elapsed <= 0 or not self._active:
            return
        for transfer in self._active:
            transfer.remaining -= transfer.rate * elapsed

    def _complete_finished(self) -> None:
        epsilon = self.EPSILON
        finished = [transfer for transfer in self._active if transfer.remaining <= epsilon]
        if not finished:
            return
        self._active = [transfer for transfer in self._active if not transfer.remaining <= epsilon]
        finished.sort(key=_arrival)
        for transfer in finished:
            self.bytes_transferred += transfer.size
            transfer.event.succeed()

    def _reschedule(self) -> None:
        """Share the rate out again and arm the wake-up for the earliest
        completion, cancelling the one armed before."""
        wakeup = self._wakeup
        if wakeup is not None:
            # Superseded: drop its one callback so the queued entry fires
            # as a bare event.
            wakeup._cb0 = None
            self._wakeup = None
        engine = self.engine
        now = engine._now
        active = self._active
        timeline = self._timeline
        if not active:
            if timeline is not None:
                timeline.record(now, 0, 0, False)
            return
        # Water-filling in increasing cap order: once the tightest caps are
        # paid out, the rest share the remainder equally.
        budget = self.rate
        count = len(active)
        for transfer in active:
            share = budget / count
            cap = transfer.cap
            allocation = share if share < cap else cap  # min(cap, share)
            transfer.rate = allocation
            budget -= allocation
            count -= 1
        if timeline is not None:
            # Saturated: the water-filling pass spent the whole link rate,
            # so at least one transfer's share is squeezed below its cap.
            saturated = sum([transfer.rate for transfer in active]) >= self.rate * (1.0 - 1e-9)
            timeline.record(now, len(active), 0, saturated)
        when = now + min([transfer.remaining / transfer.rate for transfer in active])
        if when < now:
            # A transfer settled by a join at its own completion instant may
            # hold a residue just below zero; tolerate rounding noise, but
            # anything more is a real causality bug.
            if now - when > 1e-12 * max(1.0, abs(now)):
                raise SimulationError(
                    f"link {self.name!r} wake-up at {when!r} is in the past (now={now!r})"
                )
            when = now
        wakeup = Timeout(engine, when - now)
        wakeup.add_callback(self._wake)
        self._wakeup = wakeup

    def _wake(self, _event: Event) -> None:
        self._wakeup = None
        self._settle()
        self._complete_finished()
        self._reschedule()

    def __repr__(self) -> str:
        return f"<SharedBandwidth {self.name!r} rate={self.rate:.4g} active={len(self._active)}>"


class Gate:
    """A resettable broadcast condition.

    ``wait()`` completes immediately while the gate is open, otherwise when
    it next opens.  Closing the gate only affects future waiters.
    """

    def __init__(self, engine: Engine, open: bool = False, name: str | None = None) -> None:
        self.engine = engine
        self.name = name
        self._open = bool(open)
        self._waiting: list[Event] = []
        monitor = engine.monitor
        self._timeline = monitor.register(name, "gate") if monitor is not None else None

    def _record(self) -> None:
        timeline = self._timeline
        if timeline is not None:
            timeline.record(
                self.engine.now, 1 if self._open else 0, len(self._waiting), False
            )

    def wait(self) -> Event:
        """Event that fires when the gate is (or becomes) open."""
        passed = Event(self.engine, name=f"gate:{self.name}")
        if self._open:
            passed.succeed()
        else:
            self._waiting.append(passed)
            self._record()
        return passed

    def open(self) -> None:
        """Open the gate, releasing every current waiter."""
        self._open = True
        waiting, self._waiting = self._waiting, []
        for event in waiting:
            event.succeed()
        self._record()

    def close(self) -> None:
        """Close the gate for future waiters."""
        self._open = False
        self._record()
