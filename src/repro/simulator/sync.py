"""Synchronisation primitives built on top of the event engine.

* :class:`Barrier` — a reusable rendezvous for a fixed number of parties.
  The training runtime uses it to make the optimizer update (and the
  checkpoint request) a blocking collective: no rank proceeds until every
  rank has arrived, so the slowest rank's checkpoint stall is paid by all
  (§6.4, "dictated by the slowest process").

* :class:`SimHostBuffer` — the discrete-event counterpart of the pinned host
  staging pool: a byte-counted reservation system where producers block until
  flushes release enough space (the back-pressure that throttles DataStates
  at very high checkpoint frequency, Figure 11a).

* :func:`consensus_latency` — latency model of the hierarchical two-phase
  commit used for asynchronous distributed consolidation (§5.1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List, Tuple

from ..exceptions import CapacityError, SimulationError
from .engine import Environment
from .events import Event


class Barrier:
    """A reusable rendezvous for a fixed number of parties."""

    def __init__(self, env: Environment, parties: int, name: str = "barrier") -> None:
        if parties <= 0:
            raise SimulationError("barrier needs at least one party")
        self.env = env
        self.parties = parties
        self.name = name
        self._waiting: List[Event] = []
        self._generation = 0

    def wait(self) -> Event:
        """Arrive at the barrier; the returned event fires when all parties have arrived."""
        event = self.env.event()
        self._waiting.append(event)
        if len(self._waiting) >= self.parties:
            generation = self._generation
            self._generation += 1
            waiters = self._waiting
            self._waiting = []
            for waiter in waiters:
                waiter.succeed(generation)
        return event


class SimHostBuffer:
    """Byte-counted host staging buffer with blocking reservations (simulation)."""

    def __init__(self, env: Environment, capacity: int, name: str = "host-buffer") -> None:
        if capacity <= 0:
            raise CapacityError("host buffer capacity must be positive")
        self.env = env
        self.capacity = int(capacity)
        self.name = name
        self._used = 0
        self._waiters: Deque[Tuple[int, Event]] = deque()
        self.peak_used = 0

    @property
    def used(self) -> int:
        """Bytes currently reserved."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes currently available."""
        return self.capacity - self._used

    def reserve(self, nbytes: int) -> Generator:
        """Process-style reservation: waits (FIFO) until ``nbytes`` fit.

        Use as ``yield from buffer.reserve(n)`` inside a simulation process.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise CapacityError("cannot reserve a negative number of bytes")
        if nbytes > self.capacity:
            raise CapacityError(
                f"reservation of {nbytes} bytes exceeds buffer capacity {self.capacity}"
            )
        if not self._waiters and self._used + nbytes <= self.capacity:
            self._grant(nbytes)
            return
        event = self.env.event()
        self._waiters.append((nbytes, event))
        yield event

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the pool and admit any waiters that now fit."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise CapacityError("cannot release a negative number of bytes")
        self._used -= nbytes
        if self._used < 0:
            raise CapacityError(f"host buffer {self.name!r} released more than reserved")
        while self._waiters:
            want, event = self._waiters[0]
            if self._used + want > self.capacity:
                break
            self._waiters.popleft()
            self._grant(want)
            event.succeed(want)

    def _grant(self, nbytes: int) -> None:
        self._used += nbytes
        self.peak_used = max(self.peak_used, self._used)


def consensus_latency(num_ranks: int, ranks_per_node: int, network_latency: float) -> float:
    """Latency of the hierarchical two-phase commit across ``num_ranks`` ranks.

    Phase one validates shards within a node (local, negligible), phase two
    runs a tree-structured commit across nodes: two message waves of
    ``ceil(log2(nodes))`` hops each.
    """
    if num_ranks <= 0:
        raise SimulationError("num_ranks must be positive")
    if ranks_per_node <= 0:
        raise SimulationError("ranks_per_node must be positive")
    num_nodes = -(-num_ranks // ranks_per_node)
    hops = max(1, (num_nodes - 1).bit_length()) if num_nodes > 1 else 1
    return 2.0 * hops * network_latency
