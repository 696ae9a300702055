"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence in simulated time.  Processes
(:mod:`repro.sim.process`) block on events by yielding them; the engine
resumes the process when the event *fires*.

Lifecycle::

    pending  --succeed()/fail()-->  triggered  --engine pops it-->  processed

Between *triggered* and *processed* the event sits in the engine's queue at
the current simulation time; callbacks run when it is popped.  This two-step
dance keeps causality strict: everything scheduled at time ``t`` runs in
FIFO order of scheduling, never re-entrantly inside ``succeed()``.
"""

from __future__ import annotations

import heapq
import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

__all__ = ["PENDING", "Event", "Timeout", "Chain", "AllOf", "AnyOf"]


#: Sentinel stored as an event's value while the event has not triggered.
PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    engine:
        The owning simulation engine.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("engine", "name", "_value", "_ok", "_defused", "_processed", "_cb0", "_cbs")

    def __init__(self, engine: "Engine", name: str | None = None) -> None:
        self.engine = engine
        self.name = name
        self._value: typing.Any = PENDING
        self._ok: bool | None = None
        self._defused = False
        self._processed = False
        # Callback storage is lazy: the overwhelmingly common cases are zero
        # callbacks (bare Timeouts, fire-and-forget completions) and exactly
        # one (a process resumption), so the first callback lives in a plain
        # slot and only the second-and-later ones allocate a list.
        self._cb0: typing.Callable[["Event"], None] | None = None
        self._cbs: list[typing.Callable[["Event"], None]] | None = None

    # -- state queries ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the engine has popped the event and run its callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> typing.Any:
        """The success value or failure exception carried by the event."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    @property
    def callbacks(self) -> list[typing.Callable[["Event"], None]] | None:
        """A snapshot of the pending callbacks (``None`` once processed).

        Introspection only — attach callbacks through :meth:`add_callback`,
        which keeps the zero/one-callback fast-lane storage intact.
        """
        if self._processed:
            return None
        snapshot: list[typing.Callable[["Event"], None]] = []
        if self._cb0 is not None:
            snapshot.append(self._cb0)
        if self._cbs is not None:
            snapshot.extend(self._cbs)
        return snapshot

    # -- triggering ------------------------------------------------------

    def succeed(self, value: typing.Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule {self!r} after delay {delay!r}")
        self._ok = True
        self._value = value
        # Engine._schedule, inlined: every wake-up in the simulator passes here.
        engine = self.engine
        heapq.heappush(engine._queue, (engine._now + delay, next(engine._sequence), self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed, carrying ``exception``.

        When a failed event is processed while nothing has *defused* it (no
        process is waiting on it), the exception propagates out of
        :meth:`Engine.run` — silent failures are bugs.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.engine._schedule(self, delay)
        return self

    def defuse(self) -> None:
        """Mark a (potentially failing) event as observed by a handler."""
        self._defused = True

    # -- engine interface ------------------------------------------------

    def _fire(self) -> None:
        """Run callbacks.  Called exactly once by the engine."""
        assert not self._processed
        cb0 = self._cb0
        cbs = self._cbs
        self._cb0 = None
        self._cbs = None
        self._processed = True
        if cb0 is not None:
            cb0(self)
            if cbs is not None:
                for callback in cbs:
                    callback(self)
        if self._ok is False and not self._defused:
            raise self._value

    def _abandon(self) -> None:
        """Drop the callbacks: nothing will ever process this event.

        Called when its engine is released (:meth:`Engine._release`); a
        callback is what ties a waiting process or condition to the event.
        """
        self._cb0 = None
        self._cbs = None

    def add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        """Attach ``callback`` to run when the event is processed.

        It is legal to attach to a *triggered* (queued) event; attaching to a
        *processed* event is a protocol violation because the callback would
        never run.
        """
        if self._processed:
            raise SimulationError(f"cannot add a callback to processed {self!r}")
        if self._cb0 is None:
            self._cb0 = callback
        elif self._cbs is None:
            self._cbs = [callback]
        else:
            self._cbs.append(callback)

    def __repr__(self) -> str:
        state = "processed" if self._processed else ("triggered" if self.triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.engine.now:.6g}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(
        self,
        engine: "Engine",
        delay: float,
        value: typing.Any = None,
        name: str | None = None,
    ) -> None:
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        # Event.__init__ and Engine._schedule, inlined: timeouts are the most
        # frequently created events.
        self.engine = engine
        self.name = name
        self._value = value
        self._ok = True
        self._defused = False
        self._processed = False
        self._cb0 = None
        self._cbs = None
        self.delay = delay
        heapq.heappush(engine._queue, (engine._now + delay, next(engine._sequence), self))


class Chain(Event):
    """Fires ``delay()`` seconds after ``source`` fires, with its value.

    The chained wait: ``delay`` is computed, and the chain scheduled, from
    ``source``'s callback — the instant and queue position at which a process
    resumed by ``source`` would have created the equivalent :class:`Timeout`.
    A process that yields the chain resumes once instead of twice, and every
    event keeps its time and sequence number.  A failed ``source`` fails the
    chain at once.  While ``source`` is pending the chain reports as
    ``source``, so a deadlock report names what the process really awaits.
    """

    __slots__ = ("source", "_delay")

    def __init__(self, source: Event, delay: typing.Callable[[], float]) -> None:
        super().__init__(source.engine, name=source.name)
        self.source = source
        self._delay = delay
        source.add_callback(self._follow)

    def _follow(self, source: Event) -> None:
        if source._ok:
            self.succeed(source._value, delay=self._delay())
        else:
            source._defused = True
            self.fail(typing.cast(BaseException, source._value))

    def _abandon(self) -> None:
        super()._abandon()
        self.source._abandon()

    def __repr__(self) -> str:
        if not self.source._processed:
            return repr(self.source)
        return super().__repr__()


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: typing.Iterable[Event]) -> None:
        super().__init__(engine)
        self.events: tuple[Event, ...] = tuple(events)
        for event in self.events:
            if event.engine is not engine:
                raise SimulationError("condition mixes events from different engines")
        self._remaining = 0
        pending: list[Event] = []
        for event in self.events:
            if event.processed:
                continue  # outcome already known; handled in _check_initial
            self._remaining += 1
            pending.append(event)
        for event in pending:
            event.add_callback(self._observe)
        self._check_initial()

    def _check_initial(self) -> None:
        raise NotImplementedError

    def _abandon(self) -> None:
        super()._abandon()
        for event in self.events:
            event._abandon()

    def _observe(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when every child event has succeeded.

    The success value is the list of child values in construction order.
    Fails fast (and defuses the remaining children's failures) if any child
    fails.
    """

    __slots__ = ()

    def _check_initial(self) -> None:
        for event in self.events:
            if event.processed and not event.ok and not self.triggered:
                self.fail(typing.cast(BaseException, event.value))
                return
        if self._remaining == 0 and not self.triggered:
            self.succeed([event.value for event in self.events])

    def _observe(self, event: Event) -> None:
        if self.triggered:
            event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(typing.cast(BaseException, event.value))
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child.value for child in self.events])


class AnyOf(_Condition):
    """Succeeds when the first child event succeeds.

    The success value is ``(index, value)`` of the first child to fire.
    Fails if the first child to fire failed.
    """

    __slots__ = ("_index",)

    def __init__(self, engine: "Engine", events: typing.Iterable[Event]) -> None:
        super().__init__(engine, events)
        # Event -> construction index, resolved in O(1) by _observe instead
        # of an O(n) list scan per firing child.  setdefault keeps the first
        # position of a duplicated child, matching list.index semantics.
        index_of: dict[Event, int] = {}
        for position, event in enumerate(self.events):
            index_of.setdefault(event, position)
        self._index = index_of

    def _check_initial(self) -> None:
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")
        for index, event in enumerate(self.events):
            if event.processed and not self.triggered:
                if event.ok:
                    self.succeed((index, event.value))
                else:
                    self.fail(typing.cast(BaseException, event.value))

    def _observe(self, event: Event) -> None:
        if self.triggered:
            event.defuse()
            return
        index = self._index[event]
        if event.ok:
            self.succeed((index, event.value))
        else:
            event.defuse()
            self.fail(typing.cast(BaseException, event.value))
