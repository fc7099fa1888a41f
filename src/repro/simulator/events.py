"""Core event primitives of the discrete-event simulator.

The simulator follows the classic coroutine-process model (as popularised by
SimPy): simulated activities are Python generators that ``yield`` events; the
:class:`~repro.simulator.engine.Environment` resumes them when those events
trigger.  This module defines the event types; the engine itself lives in
:mod:`repro.simulator.engine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from ..exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment

# Scheduling priorities: lower runs first at equal timestamps.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers it and schedules its callbacks for execution at the current
    simulation time.  Processes wait on events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or the failure exception)."""
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self.env._schedule(self, priority=PRIORITY_NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see the exception raised."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env._schedule(self, priority=PRIORITY_NORMAL)
        return self

    # -- internal --------------------------------------------------------
    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately via a zero-delay bridge event.
            bridge = Event(self.env)
            bridge.callbacks.append(callback)
            bridge._ok = self._ok
            bridge._value = self._value
            bridge._triggered = True
            self.env._schedule(bridge, priority=PRIORITY_NORMAL)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        self._triggered = True
        env._schedule(self, priority=PRIORITY_NORMAL, delay=delay)


class Process(Event):
    """A running coroutine-process.  Itself an event: triggers on termination."""

    __slots__ = ("generator", "_target", "name")

    def __init__(self, env: "Environment", generator, name: Optional[str] = None) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator (did you call the function?)")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Kick off the process at the current time.
        start = Event(env)
        start._ok = True
        start._triggered = True
        start.callbacks.append(self._resume)
        env._schedule(start, priority=PRIORITY_URGENT)

    # -- internal --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._triggered:
            return
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, which is not an Event"
            )
        self._target = target
        target._add_callback(self._resume)


class AllOf(Event):
    """Triggers once every child event has triggered successfully."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._pending = len(self.events)
        if self._pending == 0:
            self.succeed([])
            return
        for event in self.events:
            event._add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self.events])
