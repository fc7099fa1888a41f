"""The real-mode DataStates-LLM checkpoint engine — the library's primary API.

:class:`DataStatesCheckpointEngine` checkpoints arbitrary nested state dicts
(model parameters, optimizer state, RNG state, iteration counters, ...) built
from NumPy arrays / :class:`~repro.tensor.DeviceTensor` objects, using the
exact pipeline of §5.3:

1. *parse* — recursively flatten the state object into a tensor table and a
   picklable skeleton (synchronous, cheap);
2. *header* — compute the shard-file offsets for every tensor (synchronous);
3. *scan, then capture* — on a dedicated copy stream, lazily overlapping the
   caller's next forward/backward work: an incremental save first CRC-scans
   each part against its base (clean: recorded by reference, nothing staged),
   then payloads are copied into the pre-allocated pinned host pool, coalesced
   into extents of file-adjacent tensors and checksummed unless just scanned;
4. *flush* — stream the shard file to storage as extents arrive, one write
   per extent, releasing pool space extent by extent;
5. *commit* — vote in the asynchronous two-phase commit; once every rank's
   shards are durable the coordinator publishes the manifest.

Steps 1, 2 and 5 are the shared :meth:`~repro.core.CheckpointEngine.save`
template; this module supplies 3 and 4 (``_write_parts``) and the gate.  The
one member the protocol adds over DeepSpeed's checkpoint-engine interface is
:meth:`wait_for_snapshot`, which blocks while "any previous snapshot capture
operations are pending" and must be called before the training loop mutates
the model (the update phase).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..exceptions import CheckpointError
from ..memory import PinnedHostPool
from ..serialization import ShardPlan
from ..tensor import FlattenedState
from .base_engine import CheckpointEngine
from .flush_pipeline import FlushPipeline
from .lazy_snapshot import CopyStream, SnapshotJob, deadline_iter


class DataStatesCheckpointEngine(CheckpointEngine):
    """Lazy asynchronous multi-level checkpointing over real NumPy state."""

    name = "datastates"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pool = PinnedHostPool(self.policy.host_buffer_size)
        #: ``policy.capture_streams`` concurrent snapshot workers; shard-set
        #: parts are dealt round-robin across them so several device-to-host
        #: copies feed several shard files at once.
        self.copy_streams = [
            CopyStream(self.pool, name=f"d2h-copy-r{self.rank}-c{index}")
            for index in range(self.policy.capture_streams)
        ]
        self.copy_stream = self.copy_streams[0]
        # Every concurrently-captured shard needs a flush worker able to drain
        # it, otherwise a full pool with interleaved allocations could leave a
        # capture stream waiting on space only a queued-behind flush would
        # free (deadlock); size the pool to the capture parallelism.
        self.pipeline = FlushPipeline(
            self.store,
            self.pool,
            rank=self.rank,
            flush_threads=max(self.policy.flush_threads, self.policy.capture_streams),
            chunk_size=self.policy.chunk_size,
            parallel_shard_writes=self.policy.parallel_shard_writes,
        )

    # ------------------------------------------------------------------ save
    def plan_shards(self, flattened: FlattenedState, base_name: str) -> ShardPlan:
        # Checked before anything of the request is recorded or staged.
        largest = max((ref.nbytes for ref in flattened.tensors), default=0)
        if largest > self.pool.capacity:
            raise CheckpointError(
                f"tensor of {largest} bytes exceeds the host staging buffer "
                f"({self.pool.capacity} bytes); increase host_buffer_size"
            )
        return super().plan_shards(flattened, base_name)

    def _write_parts(self, handle, plan, parts, inc) -> None:
        """Queue every part's lazy capture and return.

        The scan, capture, flush, and commit proceed in the background.  The
        caller must invoke :meth:`wait_for_snapshot` before mutating any tensor
        the state references (typically right before ``optimizer.step()``).
        """
        multi = not plan.is_single
        # Phase 3: lazy captures, dealt round-robin across the copy streams;
        # phase 4: a flush per dirty part, so capture and flush overlap per shard.
        for index, part in parts:
            snapshot = SnapshotJob(
                tag=handle.tag, shard_name=part.name, header=part.header,
                skeleton=plan.skeleton, tensors=part.tensors,
                group=plan.base_name if multi else None,
                part_index=part.part_index if multi else None,
                num_parts=plan.num_parts if multi else None)
            handle.snapshots.append(snapshot)

            def on_done(result, error, index=index):
                if error is not None:
                    handle.fail(error)
                else:
                    handle.part_done(index, result.record, result)

            def begin(index=index, part=part, snapshot=snapshot, on_done=on_done):
                # On the copy thread, behind the gate like the copies: the
                # scan reads the tensors under the same immutability contract.
                try:
                    if self._scan_part(handle, plan, index, inc):
                        return None
                    self.pipeline.submit(snapshot, on_done=on_done)
                except BaseException as exc:
                    handle.fail(exc)
                    raise
                return inc.tensor_checksums(part.name) if inc else ()

            snapshot.begin = begin
            self.copy_streams[index % len(self.copy_streams)].submit(snapshot)

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

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, float]:
        """Operational counters (for reports and tests)."""
        base = super().stats()
        base.update({
            "host_buffer_bytes": self.pool.capacity,
            "host_buffer_used_bytes": self.pool.used_bytes,
            "host_buffer_peak_bytes": self.pool.peak_used_bytes,
            "host_buffer_blocked_waits": self.pool.blocked_waits,
        })
        return base

    # ---------------------------------------------------------------- shutdown
    def _release_resources(self, wait: bool = True) -> None:
        for stream in self.copy_streams:
            stream.shutdown()
        self.pipeline.shutdown(wait=wait)
        self.pool.close()
