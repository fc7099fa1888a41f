"""The discrete-event simulation engine.

:class:`Environment` owns the event calendar (a binary heap keyed by
``(time, priority, sequence)``) and advances simulated time by popping the
next scheduled event and running its callbacks.  Simulated activities are
coroutine processes created with :meth:`Environment.process`.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Iterable, List, Optional, Tuple

from ..exceptions import SimulationError
from .events import AllOf, Event, Process, Timeout, PRIORITY_NORMAL


class Environment:
    """A simulation environment with its own clock and event calendar."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._sequence = 0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a coroutine process and return its process-event."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, priority: int = PRIORITY_NORMAL, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._sequence, event))

    # -- execution -----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the calendar is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("step() called on an empty event calendar")
        when, _priority, _seq, event = heapq.heappop(self._queue)
        if when < self._now - 1e-12:
            raise SimulationError("event calendar went backwards in time")
        self._now = max(self._now, when)
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks:
            for callback in callbacks:
                callback(event)

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this value.  ``None`` runs
            until the calendar drains.
        max_events:
            Safety valve against runaway simulations.

        Returns
        -------
        float
            The simulation time when execution stopped.
        """
        events_processed = 0
        while self._queue:
            if until is not None and self.peek() > until:
                self._now = until
                break
            self.step()
            events_processed += 1
            if events_processed > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; likely a livelock"
                )
        if until is not None and not self._queue and self._now < until:
            self._now = until
        return self._now
