"""The staging-buffer allocator (lowest-offset first fit) and the pinned host pool."""

from .circular_buffer import CircularBufferManager, Segment
from .pinned_pool import HostAllocation, PinnedHostPool

__all__ = [
    "CircularBufferManager",
    "Segment",
    "PinnedHostPool",
    "HostAllocation",
]
