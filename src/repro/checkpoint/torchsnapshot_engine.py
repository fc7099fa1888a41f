"""The TorchSnapshot-style baseline, Figure 5(c).

TorchSnapshot splits tensors into fixed-size chunks, streams the chunks from
device to host, and writes each chunk as its own file using a small pool of
flush threads.  Chunking enables overlap between the device-to-host stream
and the host-to-disk writes, but the per-chunk staging/bookkeeping keeps the
*blocking* part of the snapshot well below the raw pinned PCIe rate, and the
one-file-per-chunk layout pays metadata cost on the parallel file system
(§6.2: the paper limits it to 4 flush threads per GPU, the setting that
peaked on their testbed).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..cluster import SimCluster
from ..config import CheckpointPolicy
from ..parallelism import CheckpointPlan
from ..simulator import Environment, Event, TraceRecorder
from ..units import gbps
from .base import SimCheckpointEngine

#: Effective device-to-host staging throughput of the chunked snapshot path
#: (per-chunk copy + host-side bookkeeping; calibrated against Figures 11/12).
DEFAULT_STAGING_BANDWIDTH = gbps(2.3)
#: Number of parallel flush threads per rank (the paper's configuration).
DEFAULT_FLUSH_THREADS = 4
#: Bytes per chunk file (the real engines' 64 MiB write chunk).
CHUNK_SIZE = 64 * 1024 * 1024


class TorchSnapshotEngine(SimCheckpointEngine):
    """Chunked snapshot + multi-threaded per-chunk-file flushing."""

    name = "torchsnapshot"

    def __init__(
        self,
        env: Environment,
        cluster: SimCluster,
        plan: CheckpointPlan,
        policy: CheckpointPolicy,
        trace: Optional[TraceRecorder] = None,
        staging_bandwidth: float = DEFAULT_STAGING_BANDWIDTH,
        flush_threads: int = DEFAULT_FLUSH_THREADS,
    ) -> None:
        super().__init__(env, cluster, plan, policy, trace)
        self.staging_bandwidth = staging_bandwidth
        self.flush_threads = max(1, int(flush_threads))

    # -- hooks ------------------------------------------------------------------
    def on_checkpoint(self, rank: int, iteration: int) -> Generator:
        """Chunked blocking snapshot, then multi-threaded background flush."""
        state = self.ranks[rank]
        state.checkpoints_started += 1

        pending = [event for event in state.outstanding_flushes if not event.triggered]
        if pending:
            yield self.env.all_of(pending)
        state.outstanding_flushes = [e for e in state.outstanding_flushes if not e.triggered]

        all_chunks: List[int] = []
        for shard in state.plan.shards:
            remaining = shard.nbytes
            copy_start = self.env.now
            # Chunked device-to-host stream; the chunk bookkeeping keeps the
            # effective rate below the raw pinned PCIe bandwidth.
            yield state.gpu.pcie.link.transfer(
                shard.nbytes, cap=self.staging_bandwidth, tag=f"rank{rank}-staging"
            )
            self._record(rank, "d2h", copy_start, self.env.now, shard.name)
            while remaining > 0:
                chunk = min(CHUNK_SIZE, remaining)
                all_chunks.append(chunk)
                remaining -= chunk

        done = self.env.event()
        state.outstanding_flushes.append(done)
        self.env.process(
            self._flush_chunks(rank, all_chunks, done),
            name=f"ts-flush-r{rank}-i{iteration}",
        )

    def _flush_chunks(self, rank: int, chunks: List[int], done: Event) -> Generator:
        """Write chunks as separate files across ``flush_threads`` parallel streams."""
        lanes: List[List[int]] = [[] for _ in range(self.flush_threads)]
        for index, chunk in enumerate(chunks):
            lanes[index % self.flush_threads].append(chunk)
        lane_events = []
        for lane_id, lane in enumerate(lanes):
            if not lane:
                continue
            lane_done = self.env.event()
            lane_events.append(lane_done)
            self.env.process(
                self._flush_lane(rank, lane, lane_done),
                name=f"ts-lane{lane_id}-r{rank}",
            )
        if lane_events:
            yield self.env.all_of(lane_events)
        done.succeed()

    def _flush_lane(self, rank: int, lane: List[int], lane_done: Event) -> Generator:
        for chunk in lane:
            start = self.env.now
            yield self.cluster.pfs.write(
                chunk, new_file=True, tag=f"rank{rank}-ts-flush"
            )
            self._record(rank, "flush", start, self.env.now, "chunk")
        lane_done.succeed()
