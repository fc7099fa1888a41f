"""The simulator's shared-bandwidth model.

:class:`FairShareLink` is a flow-level bandwidth model for shared
interconnects and storage paths.  Concurrent transfers share the link
capacity max-min fairly, optionally subject to a per-flow rate cap (e.g. the
per-stream write throughput of a Lustre OST, or a GPU's PCIe lane).  This is
the standard fluid-flow approximation used in network and storage simulators
and is what lets the checkpoint engines observe realistic contention between
concurrent flushes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..exceptions import SimulationError
from .engine import Environment
from .events import Event


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

    # -- public API --------------------------------------------------------
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

    # -- internal machinery --------------------------------------------------
    def _advance(self, now: float) -> None:
        """Account progress of all active flows up to ``now``."""
        dt = now - self._last_update
        if dt <= 0:
            self._last_update = now
            return
        for flow in self._flows:
            flow.remaining -= min(flow.rate * dt, flow.remaining)
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
                flow.remaining = 0.0
                flow.finished_at = self.env.now
                flow.done.succeed(flow)
        if self._flows:
            self._recompute_rates()
            self._reschedule()
