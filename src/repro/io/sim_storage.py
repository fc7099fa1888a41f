"""Simulated persistent storage tiers (node-local NVMe and the Lustre PFS).

The parallel file system is shared by every rank in the job: its aggregate
bandwidth (650 GB/s on Polaris) is a single fair-share link, while each
individual write stream is additionally capped by the per-stream throughput
a single client/OST pair sustains.  Metadata cost is charged per file, which
is what makes "many small shard files" progressively more expensive — the
effect the paper defers to future work but that TorchSnapshot's chunk-per-
file layout already exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import PlatformSpec
from ..simulator import Environment, Event, FairShareLink


@dataclass
class SimParallelFileSystem:
    """Shared Lustre-like parallel file system."""

    env: Environment
    link: FairShareLink
    per_stream_bandwidth: float
    file_latency: float
    files_written: int = 0
    bytes_written: float = 0.0

    def write(self, nbytes: float, stream_bandwidth: Optional[float] = None,
              new_file: bool = True, tag: Optional[str] = None) -> Event:
        """Write ``nbytes`` as one stream; returns the completion event.

        ``stream_bandwidth`` overrides the per-stream cap (the synchronous
        ``torch.save`` path is slower than a pinned streaming flush because it
        serializes on the CPU first).
        """
        cap = stream_bandwidth if stream_bandwidth is not None else self.per_stream_bandwidth
        self.bytes_written += nbytes
        if new_file:
            self.files_written += 1
            effective = nbytes + cap * self.file_latency  # metadata charged as extra bytes
        else:
            effective = nbytes
        return self.link.transfer(effective, cap=cap, tag=tag or "pfs-write")


@dataclass
class SimNodeLocalStorage:
    """Node-local NVMe SSD (2 GB/s on Polaris)."""

    env: Environment
    link: FairShareLink
    bytes_written: float = 0.0

    def write(self, nbytes: float, tag: Optional[str] = None) -> Event:
        """Write ``nbytes`` to the node-local SSD."""
        self.bytes_written += nbytes
        return self.link.transfer(nbytes, tag=tag or "nvme-write")


def make_parallel_fs(env: Environment, platform: PlatformSpec) -> SimParallelFileSystem:
    """Create the shared PFS model from the platform spec."""
    link = FairShareLink(
        env,
        capacity=platform.pfs_aggregate_bandwidth,
        name="lustre",
        default_flow_cap=platform.pfs_per_stream_bandwidth,
    )
    return SimParallelFileSystem(
        env=env,
        link=link,
        per_stream_bandwidth=platform.pfs_per_stream_bandwidth,
        file_latency=platform.pfs_file_latency,
    )


def make_node_local_storage(env: Environment, platform: PlatformSpec, node_id: int) -> SimNodeLocalStorage:
    """Create one node's local NVMe model."""
    link = FairShareLink(
        env, capacity=platform.nvme_write_bandwidth, name=f"nvme-node{node_id}"
    )
    return SimNodeLocalStorage(env=env, link=link)
