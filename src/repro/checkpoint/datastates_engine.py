"""The DataStates-LLM checkpoint engine (the paper's contribution), Figure 5(d).

Design principles from §5.1, all reflected here and individually toggleable
through :class:`~repro.config.CheckpointPolicy` so the ablation benchmarks
can quantify each one:

* **Pre-allocated, pre-pinned host buffer** (``preallocated_pinned_buffer``):
  the staging region is reserved once; a checkpoint request only waits if the
  ring is still occupied by unflushed earlier checkpoints (back-pressure).
* **Coalesced shard copies**: all shards of a request
  are enqueued for device-to-host copy back-to-back, with no per-shard
  allocation or flush wait in between.
* **Lazy non-blocking copies** (``lazy_snapshot``): the copies overlap the
  forward and backward pass of the next iteration; only the *update* phase
  waits for them (``before_update``).
* **Streamlined multi-level flushing** (``streamlined_flush``): each shard is
  flushed to the parallel file system as soon as its device-to-host copy
  completes, so the PCIe and PFS links work in parallel.
* **Asynchronous distributed consolidation** (``async_consolidation``): the
  two-phase commit that declares the global checkpoint valid runs in the
  background once the flushes finish, overlapping with training.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..cluster import SimCluster
from ..config import CheckpointPolicy
from ..exceptions import CheckpointError
from ..parallelism import CheckpointPlan
from ..simulator import Environment, Event, TraceRecorder
from ..simulator.sync import consensus_latency
from .base import SimCheckpointEngine

#: Synchronous bookkeeping per shard at checkpoint-request time: recursively
#: parsing the state object and computing header offsets (§5.3 phases 1-2).
DEFAULT_PARSE_OVERHEAD_PER_SHARD = 0.004
#: Fixed synchronous cost of entering a checkpoint request (engine call,
#: bookkeeping, enqueueing the copy/flush work).  Calibrated against the
#: DataStates blocking times implied by Figure 7.
DEFAULT_REQUEST_OVERHEAD_BASE = 0.20
#: Additional synchronous cost per pipeline stage (deeper pipelines touch
#: more distributed shard metadata per request); calibrated with Figure 7.
DEFAULT_REQUEST_OVERHEAD_PER_STAGE = 0.07
#: CPU cost of compressing one byte of checkpoint data on the flush path
#: (roughly 4 GB/s per core, in line with LZ4-class compressors).
DEFAULT_COMPRESSION_SECONDS_PER_BYTE = 1.0 / 4.0e9


class DataStatesEngine(SimCheckpointEngine):
    """Lazy, coalesced, streamlined asynchronous multi-level checkpointing."""

    name = "datastates-llm"

    def __init__(
        self,
        env: Environment,
        cluster: SimCluster,
        plan: CheckpointPlan,
        policy: CheckpointPolicy,
        trace: Optional[TraceRecorder] = None,
        parse_overhead_per_shard: float = DEFAULT_PARSE_OVERHEAD_PER_SHARD,
        request_overhead_base: float = DEFAULT_REQUEST_OVERHEAD_BASE,
        request_overhead_per_stage: float = DEFAULT_REQUEST_OVERHEAD_PER_STAGE,
        compression_ratio: float = 1.0,
        compression_seconds_per_byte: float = DEFAULT_COMPRESSION_SECONDS_PER_BYTE,
        flush_via_nvme: bool = False,
    ) -> None:
        super().__init__(env, cluster, plan, policy, trace)
        self.parse_overhead_per_shard = parse_overhead_per_shard
        self.request_overhead_base = request_overhead_base
        self.request_overhead_per_stage = request_overhead_per_stage
        if compression_ratio < 1.0:
            raise CheckpointError("compression_ratio must be >= 1.0")
        #: Extension (paper future work): compress checkpoint data before the
        #: host-to-storage flush, trading background CPU time for flush
        #: bandwidth.  Relieves the host-buffer back-pressure bottleneck that
        #: appears at very high checkpoint frequencies (the §1 "Limitations"
        #: scenario and Figure 11a).
        self.compression_ratio = compression_ratio
        self.compression_seconds_per_byte = compression_seconds_per_byte
        #: Extension: stage flushes through node-local NVMe (level 2 of the
        #: multi-level hierarchy) before draining to the parallel file system.
        #: Host-buffer space is released as soon as data is NVMe-resident.
        self.flush_via_nvme = flush_via_nvme

    # -- hooks ------------------------------------------------------------------
    def on_checkpoint(self, rank: int, iteration: int) -> Generator:
        """Cheap synchronous bookkeeping, then hand off to background copies."""
        state = self.ranks[rank]
        state.checkpoints_started += 1

        # Phases 1-2 of §5.3: parse the state object, compute file offsets,
        # plus the fixed cost of entering the (collective) checkpoint request.
        request_overhead = (
            self.request_overhead_base
            + self.request_overhead_per_stage * self.plan.topology.pipeline_parallel
            + self.parse_overhead_per_shard * len(state.plan.shards)
        )
        yield self.env.timeout(request_overhead)

        largest_shard = max((shard.nbytes for shard in state.plan.shards), default=0)
        if largest_shard > state.host_buffer.capacity:
            raise CheckpointError(
                f"rank {rank}: shard of {largest_shard} bytes cannot fit the "
                f"{state.host_buffer.capacity}-byte host staging buffer"
            )
        if not self.policy.preallocated_pinned_buffer:
            # Ablation: pay allocation + pinning for the whole request up front.
            alloc_cost = (
                self.platform.host_alloc_latency
                + state.plan.total_bytes * self.platform.host_alloc_pin_seconds_per_byte
            )
            yield self.env.timeout(alloc_cost)

        snapshot_done = self.env.event()
        state.snapshot_done = snapshot_done
        flush_done = self.env.event()
        state.outstanding_flushes.append(flush_done)
        self.env.process(
            self._snapshot_and_flush(rank, iteration, snapshot_done, flush_done),
            name=f"ds-snapshot-r{rank}-i{iteration}",
        )

        if not self.policy.lazy_snapshot:
            # Ablation: behave eagerly — block until the snapshot is on the host.
            yield snapshot_done

    def before_update(self, rank: int, iteration: int) -> Generator:
        """Delay the optimizer update until pending D2H copies have completed."""
        state = self.ranks[rank]
        snapshot = state.snapshot_done
        if snapshot is not None and not snapshot.triggered:
            yield snapshot

    def finalize(self, rank: int) -> Generator:
        """Drain outstanding flushes, then run the (now exposed) commit round."""
        state = self.ranks[rank]
        pending = [event for event in state.outstanding_flushes if not event.triggered]
        if pending:
            yield self.env.all_of(pending)
        state.outstanding_flushes.clear()
        commit_start = self.env.now
        yield self.env.timeout(
            consensus_latency(
                self.plan.topology.world_size,
                self.platform.gpus_per_node,
                self.platform.network_latency,
            )
        )
        self._record(rank, "commit", commit_start, self.env.now, "final")

    # -- background pipeline -------------------------------------------------------
    def _snapshot_and_flush(self, rank: int, iteration: int,
                            snapshot_done: Event, flush_done: Event) -> Generator:
        """Coalesced D2H copies with streamlined per-shard flushing.

        With ``policy.capture_streams > 1`` the rank's shards are dealt
        round-robin across that many concurrent copy streams (they share the
        fair-share PCIe link, so total D2H bandwidth is unchanged, but a slow
        flush backing up one stream no longer stalls the copies of the
        others).
        """
        state = self.ranks[rank]
        shard_flush_events: List[Event] = []
        shards = list(state.plan.shards)
        streams = max(1, int(self.policy.capture_streams))
        if streams > 1 and len(shards) > 1:
            lane_events: List[Event] = []
            for lane_id in range(min(streams, len(shards))):
                lane = shards[lane_id::streams]
                lane_done = self.env.event()
                lane_events.append(lane_done)
                self.env.process(
                    self._capture_lane(rank, lane, shard_flush_events, lane_done),
                    name=f"ds-capture-r{rank}-i{iteration}-c{lane_id}",
                )
            yield self.env.all_of(lane_events)
        else:
            for shard in shards:
                yield from self._capture_one(rank, shard, shard_flush_events)
        snapshot_done.succeed()

        if not self.policy.streamlined_flush:
            # Ablation: staged flushing — writes only start once the whole
            # snapshot exists on the host, but they still go through the
            # rank's single flush stream.
            for shard in state.plan.shards:
                shard_flush_events.append(self._start_shard_flush(rank, shard.nbytes, shard.name))
        if shard_flush_events:
            yield self.env.all_of(shard_flush_events)

        if self.policy.async_consolidation:
            # The commit overlaps with training; account for its latency here so
            # it is visible in the trace without blocking any rank.
            commit_start = self.env.now
            yield self.env.timeout(
                consensus_latency(
                    self.plan.topology.world_size,
                    self.platform.gpus_per_node,
                    self.platform.network_latency,
                )
            )
            self._record(rank, "commit", commit_start, self.env.now, f"iter{iteration}")
        flush_done.succeed()

    def _capture_one(self, rank: int, shard, shard_flush_events: List[Event]) -> Generator:
        """Reserve ring space, copy one shard D2H, and kick off its flush."""
        state = self.ranks[rank]
        # Back-pressure: each shard claims ring space before its copy; if
        # flushes of earlier checkpoints have not released enough space
        # yet, the copy (and hence the next update) is delayed.
        reserve_start = self.env.now
        yield from state.host_buffer.reserve(shard.nbytes)
        if self.env.now > reserve_start:
            self._record(rank, "buffer_wait", reserve_start, self.env.now, shard.name)
        copy_start = self.env.now
        yield state.gpu.pcie.d2h(shard.nbytes, pinned=True, tag=f"rank{rank}-lazy-d2h")
        self._record(rank, "d2h", copy_start, self.env.now, shard.name)
        if self.policy.streamlined_flush:
            shard_flush_events.append(self._start_shard_flush(rank, shard.nbytes, shard.name))

    def _capture_lane(self, rank: int, lane: List, shard_flush_events: List[Event],
                      lane_done: Event) -> Generator:
        """One concurrent capture stream: its share of the rank's shards, FIFO."""
        for shard in lane:
            yield from self._capture_one(rank, shard, shard_flush_events)
        lane_done.succeed()

    def _start_shard_flush(self, rank: int, nbytes: int, label: str) -> Event:
        """Flush one shard on this rank's single flush stream (FIFO).

        The real engine uses one dedicated host-to-file thread per rank, so
        shard writes of the same rank are serialized; the ring space of a
        shard is released as soon as its write completes.
        """
        state = self.ranks[rank]
        done = self.env.event()
        previous = state.flush_chain
        state.flush_chain = done

        def flusher() -> Generator:
            flush_bytes = nbytes / self.compression_ratio
            if self.compression_ratio > 1.0:
                # Compression runs on spare host cores and therefore pipelines
                # with the previous shard's write; only then does this shard
                # join the rank's single flush stream.
                compress_start = self.env.now
                yield self.env.timeout(nbytes * self.compression_seconds_per_byte)
                self._record(rank, "compress", compress_start, self.env.now, label)
            if previous is not None and not previous.triggered:
                yield previous
            if self.flush_via_nvme:
                nvme_start = self.env.now
                node = self.cluster.node_of(rank)
                yield node.nvme.write(flush_bytes, tag=f"rank{rank}-nvme-flush")
                self._record(rank, "nvme", nvme_start, self.env.now, label)
                # Data is persistent on level 2; the pinned ring can be reused
                # while the drain to the PFS continues in the background.
                state.host_buffer.release(nbytes)
            start = self.env.now
            stripes = max(1, int(self.policy.shards_per_rank))
            if stripes == 1:
                yield self.cluster.pfs.write(flush_bytes, new_file=True,
                                             tag=f"rank{rank}-stream-flush")
            else:
                # Multi-shard-per-rank layout: the logical shard is spread
                # over `stripes` files written concurrently, each stream
                # individually capped (its own client/OST pair) and each
                # paying its own per-file metadata cost.
                yield self.env.all_of([
                    self.cluster.pfs.write(flush_bytes / stripes, new_file=True,
                                           tag=f"rank{rank}-stream-flush-s{stripe}")
                    for stripe in range(stripes)
                ])
            self._record(rank, "flush", start, self.env.now, label)
            if not self.flush_via_nvme:
                state.host_buffer.release(nbytes)
            done.succeed(nbytes)

        self.env.process(flusher(), name=f"ds-flush-r{rank}")
        return done
