"""Shared-resource models for the simulator.

Two resource models are provided:

* :class:`Resource` — a counting semaphore with a FIFO wait queue (used for
  flush thread pools, file handles, consensus tokens, ...).

* :class:`FairShareLink` — a flow-level bandwidth model for shared
  interconnects and storage paths.  Concurrent transfers share the link
  capacity max-min fairly, optionally subject to a per-flow rate cap (e.g.
  the per-stream write throughput of a Lustre OST, or a GPU's PCIe lane).
  This is the standard fluid-flow approximation used in network and storage
  simulators and is what lets the checkpoint engines observe realistic
  contention between concurrent flushes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Deque, List, Optional
from collections import deque

from ..exceptions import SimulationError
from .engine import Environment
from .events import Event


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource


class Resource:
    """A counting semaphore with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource") -> None:
        if capacity <= 0:
            raise SimulationError("Resource capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires once the slot is granted."""
        req = Request(self.env, self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed(self)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a previously granted slot."""
        if request.resource is not self:
            raise SimulationError("release() called with a foreign request")
        if self._waiting:
            nxt = self._waiting.popleft()
            nxt.succeed(self)
        else:
            self._in_use -= 1
            if self._in_use < 0:
                raise SimulationError(f"Resource {self.name!r} released more than acquired")


@dataclass
class Flow:
    """One active transfer on a :class:`FairShareLink`."""

    nbytes: float
    remaining: float
    cap: float
    done: Event
    tag: Optional[str] = None
    rate: float = 0.0
    started_at: float = 0.0
    finished_at: Optional[float] = None


class FairShareLink:
    """A shared link whose active flows split capacity max-min fairly.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Aggregate bandwidth of the link in bytes/second.
    default_flow_cap:
        Optional per-flow bandwidth ceiling applied when a transfer does not
        specify its own cap (e.g. a single write stream to a parallel file
        system cannot exceed a couple of GB/s regardless of how idle the file
        system is).
    """

    def __init__(
        self,
        env: Environment,
        capacity: float,
        name: str = "link",
        default_flow_cap: Optional[float] = None,
    ) -> None:
        if capacity <= 0:
            raise SimulationError("link capacity must be positive")
        if default_flow_cap is not None and default_flow_cap <= 0:
            raise SimulationError("default_flow_cap must be positive")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self.default_flow_cap = default_flow_cap
        self._flows: List[Flow] = []
        self._last_update = env.now
        self._timer_token = 0
        self._bytes_transferred = 0.0
        self._busy_time = 0.0

    # -- public API --------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of in-flight transfers."""
        return len(self._flows)

    @property
    def bytes_transferred(self) -> float:
        """Total bytes delivered by completed and in-flight transfers so far."""
        self._advance(self.env.now)
        return self._bytes_transferred

    @property
    def busy_time(self) -> float:
        """Total simulated time during which at least one flow was active."""
        self._advance(self.env.now)
        return self._busy_time

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of ``elapsed`` (default: env.now) during which the link was busy."""
        window = self.env.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time / window)

    def transfer(self, nbytes: float, cap: Optional[float] = None, tag: Optional[str] = None) -> Event:
        """Start a transfer of ``nbytes``; the returned event fires on completion.

        The event's value is the completed :class:`Flow`, whose
        ``finished_at - started_at`` gives the transfer duration.
        """
        if nbytes < 0:
            raise SimulationError("cannot transfer a negative number of bytes")
        done = Event(self.env)
        flow_cap = cap if cap is not None else (self.default_flow_cap or math.inf)
        if flow_cap <= 0:
            raise SimulationError("flow cap must be positive")
        flow = Flow(
            nbytes=float(nbytes),
            remaining=float(nbytes),
            cap=float(flow_cap),
            done=done,
            tag=tag,
            started_at=self.env.now,
        )
        if nbytes == 0:
            flow.finished_at = self.env.now
            done.succeed(flow)
            return done
        self._advance(self.env.now)
        self._flows.append(flow)
        self._recompute_rates()
        self._reschedule()
        return done

    def estimate_duration(self, nbytes: float, cap: Optional[float] = None) -> float:
        """Lower bound on transfer time assuming no competing flows."""
        flow_cap = cap if cap is not None else (self.default_flow_cap or math.inf)
        rate = min(self.capacity, flow_cap)
        return nbytes / rate if rate > 0 else math.inf

    # -- internal machinery --------------------------------------------------
    def _advance(self, now: float) -> None:
        """Account progress of all active flows up to ``now``."""
        dt = now - self._last_update
        if dt <= 0:
            self._last_update = now
            return
        if self._flows:
            self._busy_time += dt
        for flow in self._flows:
            progressed = flow.rate * dt
            progressed = min(progressed, flow.remaining)
            flow.remaining -= progressed
            self._bytes_transferred += progressed
        self._last_update = now

    def _recompute_rates(self) -> None:
        """Max-min fair allocation of the link capacity across active flows."""
        if not self._flows:
            return
        remaining_capacity = self.capacity
        unassigned = sorted(self._flows, key=lambda f: f.cap)
        count = len(unassigned)
        for index, flow in enumerate(unassigned):
            share = remaining_capacity / (count - index)
            rate = min(flow.cap, share)
            flow.rate = rate
            remaining_capacity -= rate

    def _reschedule(self) -> None:
        """Schedule a wake-up at the next flow completion time."""
        self._timer_token += 1
        token = self._timer_token
        next_completion = math.inf
        for flow in self._flows:
            if flow.rate > 0:
                next_completion = min(next_completion, flow.remaining / flow.rate)
        if not math.isfinite(next_completion):
            return
        timer = self.env.timeout(max(0.0, next_completion))
        timer._add_callback(lambda _event, t=token: self._on_timer(t))

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # superseded by a newer reschedule
        now = self.env.now
        self._advance(now)
        # A flow is done once what it has left takes less time than the clock
        # can tell apart from ``now``: a timer for it would fire at ``now``
        # again and never make progress.
        resolution = math.ulp(now)
        finished = [f for f in self._flows if f.remaining / f.rate < resolution]
        if finished:
            for flow in finished:
                self._flows.remove(flow)
                # The float residue is delivered with the flow.
                self._bytes_transferred += flow.remaining
                flow.remaining = 0.0
                flow.finished_at = self.env.now
                flow.done.succeed(flow)
        if self._flows:
            self._recompute_rates()
            self._reschedule()
