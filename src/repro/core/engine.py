"""The real-mode DataStates-LLM checkpoint engine — the library's primary API.

:class:`DataStatesCheckpointEngine` checkpoints arbitrary nested state dicts
(model parameters, optimizer state, RNG state, iteration counters, ...) built
from NumPy arrays / :class:`~repro.tensor.DeviceTensor` objects, using the
exact pipeline of §5.3:

1. *parse* — recursively flatten the state object into a tensor table and a
   picklable skeleton (synchronous, cheap);
2. *header* — compute the shard-file offsets for every tensor (synchronous);
3. *capture* — copy tensor payloads into the pre-allocated pinned host pool
   on a dedicated copy stream, lazily overlapping the caller's next
   forward/backward work; file-adjacent tensors are coalesced into extents
   (one pool allocation each) and checksummed where they land;
4. *flush* — stream the shard file to storage as extents arrive, one write
   per extent, releasing pool space extent by extent;
5. *commit* — vote in the asynchronous two-phase commit; once every rank's
   shards are durable the coordinator publishes the manifest.

It implements the shared :class:`~repro.core.CheckpointEngine` protocol; the
one member the protocol adds over DeepSpeed's checkpoint-engine interface is
:meth:`wait_for_snapshot`, which blocks while "any previous snapshot capture
operations are pending" and must be called before the training loop mutates
the model (the update phase).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..config import CheckpointPolicy
from ..io import ShardStore
from ..logging_utils import get_logger
from ..memory import PinnedHostPool
from ..serialization import CheckpointTopology
from ..tensor import flatten_state_dict
from ..exceptions import CheckpointError
from .base_engine import CheckpointEngine
from .consolidation import TwoPhaseCommitCoordinator
from .flush_pipeline import FlushPipeline, FlushResult, ShardFlushJob
from .lazy_snapshot import CopyStream, SnapshotJob, deadline_iter

logger = get_logger(__name__)


@dataclass
class CheckpointHandle:
    """Tracks one in-flight checkpoint request of this rank.

    A request fans out into one ``(snapshot, flush)`` pair per shard-set part
    (a single pair in the default one-shard-per-rank layout); the waits drain
    every part.
    """

    tag: str
    shard_name: str
    snapshots: List[SnapshotJob]
    flushes: List[ShardFlushJob]
    #: Parts recorded by reference in an incremental save — already durable
    #: (they reuse the base checkpoint's chunks), so they carry no snapshot
    #: or flush job; their synthetic results join :meth:`wait_durable`.
    referenced: List[FlushResult] = field(default_factory=list)

    @property
    def snapshot(self) -> SnapshotJob:
        """The (first) snapshot job — the whole job in the single-shard layout."""
        return self.snapshots[0]

    @property
    def flush(self) -> ShardFlushJob:
        """The (first) flush job — the whole job in the single-shard layout."""
        return self.flushes[0]

    def wait_captured(self, timeout: Optional[float] = None) -> bool:
        """Wait for every part's device-to-host capture (consistency gate).

        ``timeout`` bounds the whole wait (a shared deadline), not each part.
        """
        for snapshot, remaining in deadline_iter(self.snapshots, timeout):
            if not snapshot.wait_captured(timeout=remaining):
                return False
        return True

    def wait_durable(self, timeout: Optional[float] = None) -> FlushResult:
        """Wait until every shard file of the set is durably written.

        ``timeout`` bounds the whole wait (a shared deadline), not each part.
        """
        results = [flush.wait(timeout=remaining)
                   for flush, remaining in deadline_iter(self.flushes, timeout)]
        results += self.referenced
        return CheckpointEngine._combine_results(self.tag, self.shard_name, results)

    def _done_or_failed(self) -> bool:
        """True once every flush retired; failed parts keep the handle live."""
        return all(flush.done.is_set() for flush in self.flushes)

    def _has_error(self) -> bool:
        return any(flush.error is not None for flush in self.flushes)


class DataStatesCheckpointEngine(CheckpointEngine):
    """Lazy asynchronous multi-level checkpointing over real NumPy state."""

    name = "datastates"

    def __init__(
        self,
        store: ShardStore,
        rank: int = 0,
        world_size: int = 1,
        coordinator: Optional[TwoPhaseCommitCoordinator] = None,
        policy: Optional[CheckpointPolicy] = None,
        host_buffer_size: Optional[int] = None,
        topology: Optional[CheckpointTopology] = None,
    ) -> None:
        super().__init__(store, rank=rank, world_size=world_size,
                         coordinator=coordinator, policy=policy,
                         host_buffer_size=host_buffer_size, topology=topology)
        self.pool = PinnedHostPool(self.policy.host_buffer_size)
        #: ``policy.capture_streams`` concurrent snapshot workers; shard-set
        #: parts are dealt round-robin across them so several device-to-host
        #: copies feed several shard files at once.
        self.copy_streams = [
            CopyStream(self.pool, name=f"d2h-copy-r{rank}-c{index}")
            for index in range(self.policy.capture_streams)
        ]
        self.copy_stream = self.copy_streams[0]
        # Every concurrently-captured shard needs a flush worker able to drain
        # it, otherwise a full pool with interleaved allocations could leave a
        # capture stream waiting on space only a queued-behind flush would
        # free (deadlock); size the pool to the capture parallelism.
        self.pipeline = FlushPipeline(
            store,
            self.pool,
            rank=rank,
            flush_threads=max(self.policy.flush_threads, self.policy.capture_streams),
            chunk_size=self.policy.chunk_size,
            parallel_shard_writes=self.policy.parallel_shard_writes,
        )
        #: Outstanding (or failed) requests; successfully retired handles are
        #: pruned on the next save so a long run does not accumulate history.
        self._handles: List[CheckpointHandle] = []
        #: Tags this rank has successfully voted for (wait_all awaits their
        #: commits, including those of already-pruned handles).
        self._voted_tags: set = set()

    # ------------------------------------------------------------------ save
    def save(self, state: Any, tag: str, iteration: int = -1,
             shard_name: Optional[str] = None) -> CheckpointHandle:
        """Request an asynchronous checkpoint of ``state`` under ``tag``.

        Returns immediately after the synchronous parse/header phases; the
        capture, flush, and commit proceed in the background.  The caller must
        invoke :meth:`wait_for_snapshot` before mutating any tensor referenced
        by ``state`` (typically right before ``optimizer.step()``).
        """
        self._ensure_open()
        self._count_request()
        shard = shard_name or self.default_shard_name()

        # Phase 1-2: flatten the object tree, partition it into the shard-set,
        # and compute per-file offsets.
        flattened = flatten_state_dict(state)
        plan = self.plan_shards(flattened, shard)
        largest = max((ref.nbytes for ref in flattened.tensors), default=0)
        if largest > self.pool.capacity:
            raise CheckpointError(
                f"tensor of {largest} bytes exceeds the host staging buffer "
                f"({self.pool.capacity} bytes); increase host_buffer_size"
            )

        # Incremental dirty scan (CAS store only): clean parts are recorded by
        # reference synchronously — they reuse already-durable chunks of the
        # base checkpoint, so only dirty parts enter the capture/flush
        # pipeline.  The scan reads the live tensors before save returns, so
        # the CRC pass is consistent with what a capture would copy.
        inc = self._plan_incremental(plan)
        referenced_results: List[FlushResult] = []

        multi = not plan.is_single
        vote_lock = threading.Lock()
        part_records: List[Optional[object]] = [None] * len(plan.parts)
        dirty = [part for part in plan.parts
                 if inc is None or part.name not in inc.clean]
        remaining = [len(dirty)]
        for index, part in enumerate(plan.parts):
            if inc is not None and part.name in inc.clean:
                record, result = self._reference_shard(tag, plan, part, inc)
                part_records[index] = record
                referenced_results.append(result)

        # Phase 4-5 completion callback: the vote is cast only once *every*
        # part of this rank's shard-set is durable (a rank votes exactly once
        # per tag, with all of its records — referenced parts are prefilled).
        def vote_now() -> None:
            self.coordinator.vote(tag, self.rank, list(part_records),
                                  iteration=iteration)
            with self._lock:
                self._voted_tags.add(tag)

        def on_durable_for(index: int):
            def on_durable(result: FlushResult) -> None:
                with vote_lock:
                    part_records[index] = result.record
                    remaining[0] -= 1
                    last = remaining[0] == 0
                if last:
                    vote_now()
            return on_durable

        snapshots = []
        flush_jobs = []
        if dirty:
            # Phase 3: lazy captures, dealt round-robin across the copy
            # streams; phase 4: one flush per part, so capture and flush
            # overlap per shard.
            indices = {part.name: index
                       for index, part in enumerate(plan.parts)}
            for stream_slot, part in enumerate(dirty):
                snapshot = SnapshotJob(
                    tag=tag, shard_name=part.name, header=part.header,
                    skeleton=plan.skeleton, tensors=part.tensors,
                    group=plan.base_name if multi else None,
                    part_index=part.part_index if multi else None,
                    num_parts=plan.num_parts if multi else None)
                snapshots.append(snapshot)
                self.copy_streams[stream_slot % len(self.copy_streams)].submit(snapshot)
                flush_jobs.append(self.pipeline.submit(
                    snapshot, on_durable=on_durable_for(indices[part.name])))
        else:
            # Every part was clean: nothing to capture or flush, the
            # checkpoint is durable by reference alone — vote immediately.
            vote_now()

        handle = CheckpointHandle(tag=tag, shard_name=shard,
                                  snapshots=snapshots, flushes=flush_jobs,
                                  referenced=referenced_results)
        with self._lock:
            # Retired-and-successful handles are done with; failed ones are
            # kept so the next wait point surfaces their error.
            self._handles = [h for h in self._handles
                             if not h._done_or_failed() or h._has_error()]
            self._handles.append(handle)
        return handle

    # ------------------------------------------------------------ wait points
    def wait_for_snapshot(self, timeout: Optional[float] = None) -> None:
        """Block while any previous snapshot capture is still pending.

        This is the consistency gate that must precede the optimizer update:
        once it returns, every tensor of every outstanding request has been
        copied off the training state and may be mutated freely.  ``timeout``
        bounds the whole gate, not each stream.
        """
        for stream, remaining in deadline_iter(self.copy_streams, timeout):
            stream.wait_idle(timeout=remaining)

    def wait_for_flushes(self, timeout: Optional[float] = None) -> List[FlushResult]:
        """Block until every outstanding shard write of this rank is durable."""
        results = []
        with self._lock:
            handles = list(self._handles)
        for handle in handles:
            results.append(handle.wait_durable(timeout=timeout))
        return results

    def wait_for_commit(self, tag: str, timeout: Optional[float] = None) -> bool:
        """Block until checkpoint ``tag`` has been globally committed."""
        return self.coordinator.wait_committed(tag, timeout=timeout)

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Drain everything: captures, flushes, and commits of this rank's tags."""
        self.wait_for_snapshot(timeout=timeout)
        results = self.wait_for_flushes(timeout=timeout)
        with self._lock:
            voted = set(self._voted_tags)
        for tag in sorted({result.tag for result in results} | voted):
            if not self.coordinator.wait_committed(tag, timeout=timeout):
                raise CheckpointError(f"timed out waiting for commit of {tag!r}")

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, float]:
        """Operational counters (for reports and tests)."""
        base = super().stats()
        base.update({
            "host_buffer_bytes": self.pool.capacity,
            "host_buffer_used_bytes": self.pool.used_bytes,
            "host_buffer_peak_bytes": self.pool.peak_used_bytes,
            "host_buffer_blocked_waits": self.pool.blocked_waits,
            "pending_flushes": len(self.pipeline.pending_jobs()),
        })
        return base

    # ---------------------------------------------------------------- shutdown
    def _release_resources(self, wait: bool = True) -> None:
        for stream in self.copy_streams:
            stream.shutdown()
        self.pipeline.shutdown(wait=wait)
        self.pool.close()
