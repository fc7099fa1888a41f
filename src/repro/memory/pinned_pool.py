"""Thread-safe pre-allocated pinned host staging pool.

In the original C++ engine the host staging buffer is allocated and
page-locked (``cudaHostRegister``) once at startup and reused for every
checkpoint, which removes the per-checkpoint allocation/pinning cost that
cripples the CheckFreq-style baseline.  Here the "pinned" buffer is a single
NumPy byte array allocated up front; allocations hand out ``memoryview``
slices of it, placed lowest-offset first fit so each reuses the warmest bytes.

Threads that cannot be satisfied immediately block on a condition variable
until flushes free older segments — this is exactly the back-pressure
behaviour described in §5.1 ("if the host memory that is reserved for
checkpointing is full, then the next checkpoint request needs to wait for
previous tensors to get evicted").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import AllocationError
from .circular_buffer import CircularBufferManager, Segment


@dataclass
class HostAllocation:
    """A slice of the pinned pool handed to a producer (D2H copy)."""

    segment: Segment
    view: memoryview


class PinnedHostPool:
    """A fixed-capacity, reusable host staging buffer."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise AllocationError("pinned pool capacity must be positive")
        self.capacity = int(capacity)
        # One contiguous backing buffer, allocated once ("pre-pinned").
        self._backing = np.zeros(self.capacity, dtype=np.uint8)
        self._manager = CircularBufferManager(self.capacity)
        self._lock = threading.Lock()
        self._space_freed = threading.Condition(self._lock)
        self._closed = False
        self._peak_used = 0
        self._blocked_waits = 0

    # -- inspection ---------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes currently reserved."""
        with self._lock:
            return self._manager.used_bytes

    @property
    def peak_used_bytes(self) -> int:
        """High-water mark of reserved bytes since construction/reset."""
        with self._lock:
            return self._peak_used

    @property
    def blocked_waits(self) -> int:
        """How many times an allocation had to wait for flushes to free space
        (the back-pressure events of §5.1); benchmark/diagnostic counter."""
        with self._lock:
            return self._blocked_waits

    # -- allocation -----------------------------------------------------------
    def allocate(self, size: int, blocking: bool = True, timeout: Optional[float] = None) -> HostAllocation:
        """Reserve ``size`` bytes.

        With ``blocking=True`` the call waits for flushes to release space
        (bounded by ``timeout`` seconds if given); otherwise it raises
        :class:`AllocationError` immediately when the pool is full.
        """
        if size > self.capacity:
            raise AllocationError(
                f"allocation of {size} bytes can never fit pool of {self.capacity} bytes"
            )
        if size == 0:
            # Zero-length tensors are legal (an uneven ZeRO partition can own
            # an empty slice); hand out an empty view without touching the
            # allocator — blocking on space can never satisfy a 0-byte request.
            return HostAllocation(segment=Segment(ticket=-1, offset=0, size=0),
                                  view=memoryview(self._backing)[0:0])
        with self._lock:
            while True:
                if self._closed:
                    raise AllocationError("pinned pool is closed")
                try:
                    segment = self._manager.allocate(size)
                    break
                except AllocationError:
                    if not blocking:
                        raise
                    self._blocked_waits += 1
                    if not self._space_freed.wait(timeout=timeout):
                        raise AllocationError(
                            f"timed out waiting for {size} bytes of pinned host memory"
                        )
            if self._manager.used_bytes > self._peak_used:
                self._peak_used = self._manager.used_bytes
            view = memoryview(self._backing)[segment.offset : segment.offset + size]
            return HostAllocation(segment=segment, view=view)

    def free(self, allocation: HostAllocation) -> None:
        """Return an allocation to the pool and wake any blocked producers."""
        if allocation.segment.size == 0:
            return
        with self._lock:
            self._manager.free(allocation.segment)
            self._space_freed.notify_all()

    def close(self) -> None:
        """Fail all future allocations (used during shutdown)."""
        with self._lock:
            self._closed = True
            self._space_freed.notify_all()

    def reset(self) -> None:
        """Drop all reservations (between runs / tests)."""
        with self._lock:
            self._manager.reset()
            self._closed = False
            self._peak_used = 0
            self._blocked_waits = 0
            self._space_freed.notify_all()
