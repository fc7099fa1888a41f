"""Circular buffer manager for the pre-allocated pinned host staging area.

The paper describes the host buffer as "managed through a simple lightweight
circular buffer manager, considering the producer-consumer pattern" (§5.3):
device-to-host copies *produce* contiguous regions, and flushes to persistent
storage *consume* them, after which the space becomes reusable.

Placement departs from a strict ring: a new region goes into the
lowest-offset gap that fits, and a freed region is reusable at once.  In the
capture→flush stream that puts the next extent into the bytes the flush has
just released — the warmest, already-faulted bytes of the pool — instead of
the bytes last touched a whole capacity ago, so the pool's resident
footprint follows the bytes in flight, and the whole capacity stays
admissible (an early-wrapping ring strands the space behind its head).

The manager is byte-granular and intentionally not thread safe — thread
safety is added by the :class:`~repro.memory.pinned_pool.PinnedHostPool`
wrapper so the core logic stays easy to property-test.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import List

from ..exceptions import AllocationError


@dataclass(frozen=True)
class Segment:
    """A contiguous reservation inside the buffer: ``[offset, offset + size)``."""

    ticket: int
    offset: int
    size: int

    @property
    def end(self) -> int:
        """One past the last byte of the segment."""
        return self.offset + self.size


class CircularBufferManager:
    """A lowest-offset first-fit allocator over a fixed-size region.

    Every segment stays contiguous; frees may come in any order and return
    their bytes immediately.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise AllocationError("circular buffer capacity must be positive")
        self.capacity = int(capacity)
        self._segments: List[Segment] = []          # live, sorted by offset
        self._next_ticket = 0
        self._used = 0

    # -- inspection ---------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes currently reserved by live segments."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Bytes available for new allocations (fragmentation ignored)."""
        return self.capacity - self._used

    # -- allocation -----------------------------------------------------------
    def allocate(self, size: int) -> Segment:
        """Reserve ``size`` contiguous bytes in the lowest-offset gap that fits.

        Raises :class:`AllocationError` when the request cannot be satisfied
        (caller decides whether to wait for flushes to free segments).
        """
        if size <= 0:
            raise AllocationError("allocation size must be positive")
        if size > self.capacity:
            raise AllocationError(
                f"allocation of {size} bytes exceeds buffer capacity {self.capacity}"
            )
        offset = 0
        for index, live in enumerate(self._segments):
            if live.offset - offset >= size:
                break
            offset = live.end
        else:
            index = len(self._segments)
            if self.capacity - offset < size:
                raise AllocationError(
                    f"circular buffer full: requested {size} bytes, "
                    f"{self.free_bytes} free (fragmented)"
                )
        segment = Segment(ticket=self._next_ticket, offset=offset, size=size)
        self._next_ticket += 1
        self._segments.insert(index, segment)
        self._used += size
        return segment

    def free(self, segment: Segment) -> None:
        """Return a live segment's bytes, in any order, reusable at once."""
        index = bisect_left(self._segments, segment.offset, key=attrgetter("offset"))
        if index == len(self._segments) or self._segments[index] != segment:
            raise AllocationError(f"segment {segment.ticket} is not live in this buffer "
                                  "(freed twice, or never allocated here)")
        del self._segments[index]
        self._used -= segment.size

    def reset(self) -> None:
        """Drop every reservation (used between runs)."""
        self._segments.clear()
        self._used = 0
