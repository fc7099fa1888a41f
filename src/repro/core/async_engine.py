"""CheckFreq-style asynchronous checkpointing over real NumPy state.

The "Asynchronous checkpointing" baseline of §6.2 (CheckFreq /
AsyncCheckpointIO): :meth:`AsyncCheckpointEngine.save` performs a **blocking
device-to-host snapshot into a freshly allocated per-checkpoint buffer** —
paying the allocation (and, on a GPU, pinning) cost on every request, the
overhead §5.1 and the Figure 12c discussion call out — and then hands the
buffer to the engine's single background flush thread.  Training resumes once
the copy is done; only the host-to-storage write overlaps compute, and
flushes of successive checkpoints are serialized FIFO on that one thread.

Contrast with :class:`~repro.core.DataStatesCheckpointEngine`:

* no lazy overlap — the D2H copy blocks ``save`` instead of running on a
  copy stream under the next iteration's forward/backward;
* no preallocated pinned pool — every checkpoint allocates its own staging
  buffer, released once its flush retires;
* because the capture completes inside ``save``, the consistency gate
  (:meth:`wait_for_snapshot`) is trivially satisfied.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, List, Optional, Set

import numpy as np

from ..config import CheckpointPolicy
from ..exceptions import CheckpointError
from ..io import ShardStore
from ..logging_utils import get_logger
from ..serialization import CheckpointTopology, ShardPlan, build_header
from ..tensor import flatten_state_dict, tensor_payload_array
from .base_engine import CheckpointEngine, IncrementalPlan
from .consolidation import TwoPhaseCommitCoordinator
from .flush_pipeline import FlushResult

logger = get_logger(__name__)


class AsyncCheckpointHandle:
    """Tracks one CheckFreq-style request: captured at return, flushed later."""

    def __init__(self, tag: str, shard_name: str) -> None:
        self.tag = tag
        self.shard_name = shard_name
        self._done = threading.Event()
        self.result: Optional[FlushResult] = None
        self.error: Optional[BaseException] = None

    def wait_captured(self, timeout: Optional[float] = None) -> bool:
        """The snapshot was captured synchronously inside ``save``."""
        return True

    def wait_durable(self, timeout: Optional[float] = None) -> FlushResult:
        """Block until the background flush of this checkpoint finishes."""
        if not self._done.wait(timeout=timeout):
            raise CheckpointError(
                f"timed out waiting for flush of {self.tag}/{self.shard_name}"
            )
        if self.error is not None:
            raise CheckpointError(
                f"flush of {self.tag}/{self.shard_name} failed: {self.error}"
            ) from self.error
        assert self.result is not None
        return self.result

    def _finish(self, result: Optional[FlushResult], error: Optional[BaseException]) -> None:
        self.result = result
        self.error = error
        self._done.set()


class AsyncCheckpointEngine(CheckpointEngine):
    """Blocking snapshot into a fresh buffer + a single background flush thread."""

    name = "async"

    def __init__(self, store: ShardStore, rank: int = 0, world_size: int = 1,
                 coordinator: Optional[TwoPhaseCommitCoordinator] = None,
                 policy: Optional[CheckpointPolicy] = None,
                 host_buffer_size: Optional[int] = None,
                 topology: Optional[CheckpointTopology] = None) -> None:
        super().__init__(store, rank=rank, world_size=world_size,
                         coordinator=coordinator, policy=policy,
                         host_buffer_size=host_buffer_size, topology=topology)
        #: Outstanding (or failed) requests; successfully retired handles are
        #: pruned on the next save so a long run does not accumulate history.
        self._handles: List[AsyncCheckpointHandle] = []
        #: Tags this rank has successfully voted for (wait_all awaits their
        #: commits, including those of already-pruned handles).
        self._voted_tags: Set[str] = set()
        #: One worker: flushes of successive checkpoints run FIFO.
        self._flusher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"checkfreq-flush-r{rank}")

    # ------------------------------------------------------------------ save
    def save(self, state: Any, tag: str, iteration: int = -1,
             shard_name: Optional[str] = None) -> AsyncCheckpointHandle:
        """Blocking snapshot of ``state``; the flush proceeds in the background.

        On return every tensor has been copied into a buffer allocated for
        this checkpoint alone, so the caller may mutate the state freely.
        """
        self._ensure_open()
        self._count_request()
        shard = shard_name or self.default_shard_name()

        flattened = flatten_state_dict(state)
        header = build_header(flattened)
        plan = self.plan_shards(flattened, shard)
        # Dirty scan against the previous committed checkpoint while the
        # tensors are still live (save is blocking here anyway); clean parts
        # skip serialization and upload entirely in the background flush.
        inc = self._plan_incremental(plan)

        # Blocking D2H capture into a freshly allocated per-checkpoint buffer
        # (CheckFreq pays this allocation on every request; DataStates
        # amortizes it with the preallocated pinned pool).
        buffer = np.empty(max(header.payload_bytes, 1), dtype=np.uint8)
        for ref, entry in zip(flattened.tensors, header.entries):
            array = np.ascontiguousarray(tensor_payload_array(ref))
            buffer[entry.offset:entry.offset + entry.nbytes] = \
                array.view(np.uint8).reshape(-1)

        # One view per *global* tensor; each shard-set part indexes into them.
        views = [memoryview(buffer)[entry.offset:entry.offset + entry.nbytes]
                 for entry in header.entries]
        handle = AsyncCheckpointHandle(tag, shard)
        with self._lock:
            # Retired-and-successful handles are done with; failed ones are
            # kept so the next wait point surfaces their error.
            self._handles = [h for h in self._handles
                             if not h._done.is_set() or h.error is not None]
            self._handles.append(handle)
        self._flusher.submit(self._flush, handle, plan, views, iteration, inc)
        return handle

    def _flush(self, handle: AsyncCheckpointHandle, plan: ShardPlan,
               views: List[memoryview], iteration: int,
               inc: Optional[IncrementalPlan] = None) -> None:
        try:
            records = []
            results = []
            for part in plan.parts:
                if inc is not None and part.name in inc.clean:
                    record, result = self._reference_shard(handle.tag, plan,
                                                           part, inc)
                    records.append(record)
                    results.append(result)
                    continue
                part_views = [views[index] for index in part.global_indices]
                nbytes, checksum = self._write_streaming_shard(
                    handle.tag, part.name, part.header, plan.skeleton, part_views)
                record = self._part_record(
                    plan, part, nbytes, checksum,
                    tensor_checksums=inc.tensor_checksums(part.name) if inc else None)
                records.append(record)
                results.append(FlushResult(tag=handle.tag, shard_name=part.name,
                                           nbytes=nbytes, checksum=checksum,
                                           record=record))
            self.coordinator.vote(handle.tag, self.rank, records, iteration=iteration)
            with self._lock:
                self._voted_tags.add(handle.tag)
            handle._finish(self._combine_results(handle.tag, handle.shard_name,
                                                 results), None)
        except BaseException as exc:  # noqa: BLE001 - surfaced via the handle
            logger.error("background flush of %s/%s failed: %s",
                         handle.tag, handle.shard_name, exc)
            try:
                self.coordinator.fail(handle.tag, self.rank, str(exc))
            except Exception:  # noqa: BLE001 - best effort
                pass
            handle._finish(None, exc)

    # ------------------------------------------------------------ wait points
    def wait_for_flushes(self, timeout: Optional[float] = None) -> List[FlushResult]:
        """Block until every outstanding shard write of this rank is durable."""
        with self._lock:
            handles = list(self._handles)
        return [handle.wait_durable(timeout=timeout) for handle in handles]

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Drain flushes and the commit protocol for every tag this rank saved."""
        self.wait_for_flushes(timeout=timeout)
        with self._lock:
            tags = sorted(self._voted_tags)
        for tag in tags:
            if not self.coordinator.wait_committed(tag, timeout=timeout):
                raise CheckpointError(f"timed out waiting for commit of {tag!r}")

    # ------------------------------------------------------------------ stats
    def stats(self):
        base = super().stats()
        with self._lock:
            base["pending_flushes"] = sum(
                1 for handle in self._handles if not handle._done.is_set()
            )
        return base

    # ---------------------------------------------------------------- shutdown
    def _release_resources(self, wait: bool = True) -> None:
        self._flusher.shutdown(wait=wait)
