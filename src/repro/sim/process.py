"""Generator-based simulated processes.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  Yielding an event suspends the process until the event fires; the
event's value is sent back into the generator (or its exception thrown in).
A process is itself an event that fires when the generator returns, carrying
the generator's return value — so processes can wait on each other with a
plain ``yield child_process`` (a *join*).

Sub-operations compose with ``yield from``: a collective algorithm is a
generator that delegates to substrate generators (shared-memory copies, RMA
puts) which in turn yield engine primitives.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

__all__ = ["Process", "ProcessGenerator"]

#: Type alias for the generators accepted by :meth:`Engine.process`.
ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]


class Process(Event):
    """A running simulated process; fires when its generator returns."""

    __slots__ = ("_generator", "_waiting_on", "waiting_request", "serial", "__weakref__")

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str | None = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(engine, name=name or getattr(generator, "__name__", None))
        self._generator = generator
        self._waiting_on: Event | None = None
        #: The collective request this process is inside ``wait()`` on, if
        #: any — set by the request layer so deadlock reports can say *which*
        #: outstanding collective a blocked program was waiting to finish.
        self.waiting_request: typing.Any = None
        #: Creation-order number on this engine (1, 2, ...): a stable
        #: identity, where ``id()`` may be reused once a process is freed.
        self.serial = next(engine._process_serials)
        # Weak registration so deadlock reports can name blocked processes.
        engine._register_process(self)
        # Kick the generator off at the current simulation time, but through
        # the event queue so that creation order defines execution order.
        bootstrap = Event(engine, name="process-start")
        bootstrap.succeed()
        bootstrap.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not returned or raised."""
        return not self.triggered

    @property
    def waiting_on(self) -> Event | None:
        """The event this process is currently blocked on, if any."""
        return self._waiting_on

    def _abandon(self) -> None:
        """Close the generator where it is suspended: the engine was
        released, so it will never resume.  Its ``finally`` blocks and
        ``with`` exits run now, as they would when the generator is freed;
        the events it waited on drop their callbacks, and it drops its own.
        """
        super()._abandon()
        target, self._waiting_on = self._waiting_on, None
        if target is not None:
            target._abandon()
        self._generator.close()

    def _resume(self, event: Event) -> None:
        """Advance the generator by one step with ``event``'s outcome."""
        self._waiting_on = None
        engine = self.engine
        engine._active_process = self
        # ``event`` has fired, so its slots are set: read them directly
        # rather than through the checking properties.
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(typing.cast(BaseException, event._value))
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        finally:
            engine._active_process = None

        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {target!r}, which is not an Event; "
                "use `yield from` for sub-operations"
            )
            # Surface at the process level so joiners see it.
            self.fail(error)
            return
        if target._processed:
            # Joining something already finished (e.g. an isend that completed
            # before the matching recv returned): mirror its outcome through a
            # fresh zero-delay event so the generator resumes next tick.
            mirror = Event(engine, name=f"join:{target.name}")
            if target._ok:
                mirror.succeed(target._value)
            else:
                mirror.fail(typing.cast(BaseException, target._value))
            target = mirror
        self._waiting_on = target
        target.add_callback(self._resume)
