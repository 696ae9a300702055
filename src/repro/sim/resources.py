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
  broadcast contention (paper §2.2) come out right.

:class:`Gate` is a resettable broadcast condition used for interrupt-mode
modelling ("wait until the target enters a LAPI call").
"""

from __future__ import annotations

import itertools
import math
import typing

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event

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
    __slots__ = ("size", "remaining", "cap", "event")

    def __init__(self, nbytes: float, cap: float, event: Event) -> None:
        self.size = float(nbytes)
        self.remaining = float(nbytes)
        self.cap = cap
        self.event = event


class SharedBandwidth:
    """Fluid-flow processor-sharing link of ``rate`` bytes/second.

    All active transfers progress simultaneously; each receives a
    water-filling share of the link rate, never exceeding its own per-transfer
    cap.  Membership changes (a transfer joining or completing) re-divide the
    rate instantly.
    """

    #: Residual-byte tolerance when deciding a transfer has completed.
    EPSILON = 1e-6

    def __init__(self, engine: Engine, rate: float, name: str | None = None) -> None:
        if not (rate > 0) or math.isinf(rate):
            raise SimulationError(f"link rate must be finite and positive, got {rate}")
        self.engine = engine
        self.rate = float(rate)
        self.name = name
        self._active: dict[int, _Transfer] = {}
        self._ids = itertools.count()
        self._last_settled = engine.now
        self._wake_version = 0
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
        if nbytes < 0:
            raise SimulationError(f"cannot transfer {nbytes} bytes")
        done = Event(self.engine, name=f"xfer:{self.name}")
        if nbytes == 0:
            done.succeed()
            return done
        cap = float("inf") if max_rate is None else float(max_rate)
        if cap <= 0:
            raise SimulationError(f"max_rate must be positive, got {max_rate}")
        self._settle()
        self._active[next(self._ids)] = _Transfer(nbytes, cap, done)
        self._reschedule()
        return done

    # -- fluid-flow internals ---------------------------------------------

    def _allocations(self) -> dict[int, float]:
        """Water-filling rate allocation over the active transfers."""
        allocations: dict[int, float] = {}
        budget = self.rate
        # Process in increasing cap order: once the tightest caps are paid
        # out, the rest share the remainder equally.
        pending = sorted(self._active.items(), key=lambda item: item[1].cap)
        count = len(pending)
        for transfer_id, transfer in pending:
            share = budget / count
            allocation = min(transfer.cap, share)
            allocations[transfer_id] = allocation
            budget -= allocation
            count -= 1
        return allocations

    def _settle(self) -> None:
        """Advance every active transfer's progress to the current time."""
        now = self.engine.now
        elapsed = now - self._last_settled
        self._last_settled = now
        if elapsed <= 0 or not self._active:
            return
        allocations = self._allocations()
        for transfer_id, transfer in self._active.items():
            transfer.remaining -= allocations[transfer_id] * elapsed

    def _complete_finished(self) -> None:
        finished = [
            transfer_id
            for transfer_id, transfer in self._active.items()
            if transfer.remaining <= self.EPSILON
        ]
        for transfer_id in finished:
            transfer = self._active.pop(transfer_id)
            self.bytes_transferred += transfer.size
            transfer.event.succeed()

    def _reschedule(self) -> None:
        """(Re)arm the wake-up for the earliest upcoming completion."""
        self._wake_version += 1
        timeline = self._timeline
        if not self._active:
            if timeline is not None:
                timeline.record(self.engine.now, 0, 0, False)
            return
        allocations = self._allocations()
        if timeline is not None:
            # Saturated: the water-filling pass spent the whole link rate,
            # so at least one transfer's share is squeezed below its cap.
            saturated = sum(allocations.values()) >= self.rate * (1.0 - 1e-9)
            timeline.record(self.engine.now, len(self._active), 0, saturated)
        next_completion = min(
            transfer.remaining / allocations[transfer_id]
            for transfer_id, transfer in self._active.items()
        )
        version = self._wake_version
        self.engine.call_at(self.engine.now + next_completion, lambda: self._wake(version))

    def _wake(self, version: int) -> None:
        if version != self._wake_version:
            return  # membership changed since this wake-up was armed
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
