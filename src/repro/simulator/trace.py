"""Trace recording for simulated runs.

The training runtime and checkpoint engines record *spans* (who did what,
from when to when) and *counters*.  The analysis layer turns traces into the
metrics the paper reports: checkpointing throughput perceived by the
application, average iteration duration while checkpointing, and end-to-end
runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    """A half-open interval ``[start, end)`` of simulated activity."""

    actor: str
    category: str
    start: float
    end: float
    label: str = ""

    @property
    def duration(self) -> float:
        """Length of the span in seconds."""
        return self.end - self.start


class TraceRecorder:
    """Collects spans and counters emitted by simulated components."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._counters: Dict[str, float] = {}

    # -- recording ---------------------------------------------------------
    def record_span(self, actor: str, category: str, start: float, end: float, label: str = "") -> Span:
        """Record an activity span; returns the created :class:`Span`."""
        if end < start:
            raise ValueError(f"span ends before it starts: {start} > {end}")
        span = Span(actor=actor, category=category, start=start, end=end, label=label)
        self._spans.append(span)
        return span

    def add_counter(self, name: str, amount: float = 1.0) -> None:
        """Increment a named counter."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    # -- queries -----------------------------------------------------------
    @property
    def spans(self) -> Tuple[Span, ...]:
        """All recorded spans, in insertion order."""
        return tuple(self._spans)

    @property
    def counters(self) -> Dict[str, float]:
        """A copy of the counters."""
        return dict(self._counters)

    def counter(self, name: str, default: float = 0.0) -> float:
        """Value of one counter."""
        return self._counters.get(name, default)

    def spans_for(self, actor: Optional[str] = None, category: Optional[str] = None) -> List[Span]:
        """Spans filtered by actor and/or category."""
        result = []
        for span in self._spans:
            if actor is not None and span.actor != actor:
                continue
            if category is not None and span.category != category:
                continue
            result.append(span)
        return result

    def total_time(self, actor: Optional[str] = None, category: Optional[str] = None) -> float:
        """Sum of span durations matching the filter."""
        return sum(s.duration for s in self.spans_for(actor, category))

    def actors(self) -> List[str]:
        """Distinct actor names seen so far."""
        seen: Dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.actor, None)
        return list(seen)

    def categories(self) -> List[str]:
        """Distinct span categories seen so far."""
        seen: Dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.category, None)
        return list(seen)

    def merge(self, other: "TraceRecorder") -> None:
        """Fold another recorder's spans and counters into this one."""
        self._spans.extend(other._spans)
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0.0) + value

    def busy_intervals(self, actor: str, categories: Optional[Iterable[str]] = None) -> List[Tuple[float, float]]:
        """Merged, sorted busy intervals of one actor (for utilisation plots)."""
        wanted = set(categories) if categories is not None else None
        intervals = sorted(
            (s.start, s.end)
            for s in self._spans
            if s.actor == actor and (wanted is None or s.category in wanted)
        )
        merged: List[Tuple[float, float]] = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged
