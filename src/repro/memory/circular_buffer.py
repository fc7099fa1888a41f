"""Circular buffer manager for the pre-allocated pinned host staging area.

The paper describes the host buffer as "managed through a simple lightweight
circular buffer manager, considering the producer-consumer pattern" (§5.3):
device-to-host copies *produce* contiguous regions at the head of the ring,
and flushes to persistent storage *consume* them from the tail, after which
the space becomes reusable.

The manager here is byte-granular, allocation-order aware, and intentionally
not thread safe — thread safety is added by the
:class:`~repro.memory.pinned_pool.PinnedHostPool` wrapper so the core logic
stays easy to property-test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..exceptions import AllocationError


@dataclass(frozen=True)
class Segment:
    """A contiguous reservation inside the ring: ``[offset, offset + size)``."""

    ticket: int
    offset: int
    size: int

    @property
    def end(self) -> int:
        """One past the last byte of the segment."""
        return self.offset + self.size


class CircularBufferManager:
    """A FIFO ring allocator over a fixed-size region.

    Allocations are carved at the write head; frees mark segments as retired
    but space is only reclaimed in allocation (FIFO) order, which matches the
    producer-consumer flow of checkpoint staging: shards are copied in order
    and flushed in order.  Allocations never wrap around the end of the
    region — if the tail gap is too small the allocation is placed at offset
    zero (provided that space is free), exactly like a ring used for DMA
    staging, so every segment stays contiguous.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise AllocationError("circular buffer capacity must be positive")
        self.capacity = int(capacity)
        self._segments: List[Segment] = []          # live + retired, FIFO order
        self._retired: Dict[int, bool] = {}          # ticket -> retired flag
        self._next_ticket = 0
        self._head = 0                               # next write offset
        self._used = 0

    # -- inspection ---------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes currently reserved (live or retired-but-not-yet-reclaimed)."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Bytes available for new allocations (fragmentation ignored)."""
        return self.capacity - self._used

    # -- allocation -----------------------------------------------------------
    def allocate(self, size: int) -> Segment:
        """Reserve ``size`` contiguous bytes at the ring head.

        Raises :class:`AllocationError` when the request cannot be satisfied
        (caller decides whether to wait for flushes to retire segments).
        """
        if size <= 0:
            raise AllocationError("allocation size must be positive")
        if size > self.capacity:
            raise AllocationError(
                f"allocation of {size} bytes exceeds buffer capacity {self.capacity}"
            )
        offset = self._contiguous_allocation_offset(size)
        if offset is None:
            raise AllocationError(
                f"circular buffer full: requested {size} bytes, "
                f"{self.free_bytes} free (fragmented)"
            )
        segment = Segment(ticket=self._next_ticket, offset=offset, size=size)
        self._next_ticket += 1
        self._segments.append(segment)
        self._retired[segment.ticket] = False
        self._head = (offset + size) % self.capacity if (offset + size) != self.capacity else 0
        self._used += size
        return segment

    def free(self, segment: Segment) -> None:
        """Mark a segment as no longer needed.

        Space is reclaimed lazily, oldest-first, so out-of-order frees are
        accepted but only become reusable once every older segment has also
        been freed.
        """
        if segment.ticket not in self._retired:
            raise AllocationError(f"segment {segment.ticket} is not managed by this buffer")
        if self._retired[segment.ticket]:
            raise AllocationError(f"segment {segment.ticket} freed twice")
        self._retired[segment.ticket] = True
        self._reclaim()

    def reset(self) -> None:
        """Drop every reservation (used between runs)."""
        self._segments.clear()
        self._retired.clear()
        self._head = 0
        self._used = 0

    # -- internals -------------------------------------------------------------
    def _reclaim(self) -> None:
        while self._segments and self._retired[self._segments[0].ticket]:
            segment = self._segments.pop(0)
            del self._retired[segment.ticket]
            self._used -= segment.size
        if not self._segments:
            self._head = 0

    def _contiguous_allocation_offset(self, size: int) -> Optional[int]:
        """Find where a new segment of ``size`` bytes would be placed, or None.

        The reserved bytes run from the oldest segment (the tail) to the
        head, wrapping at most once.  Ahead of the tail, the free space is
        ``[head, capacity)`` plus ``[0, tail)`` after a wrap; behind it (the
        head has wrapped), only ``[head, tail)``.
        """
        if not self._segments:
            return 0 if size <= self.capacity else None
        head, tail = self._head, self._segments[0].offset
        if head > tail:
            if self.capacity - head >= size:
                return head
            return 0 if tail >= size else None
        return head if tail - head >= size else None
