"""The real-mode DataStates-LLM checkpoint engine — the library's primary API.

:class:`DataStatesCheckpointEngine` checkpoints arbitrary nested state dicts
(model parameters, optimizer state, RNG state, iteration counters, ...) built
from NumPy arrays / :class:`~repro.tensor.DeviceTensor` objects, using the
exact pipeline of §5.3:

1. *parse* — walk the state object once; a new structure is flattened into
   a tensor table and a pickled skeleton, a repeated one only binds its fresh
   payloads to the last save's (synchronous, cheap);
2. *header* — the shard-file offsets of every tensor, computed once per
   structure and reused while it repeats (synchronous);
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
from .lazy_snapshot import CopyStream, SnapshotJob


class DataStatesCheckpointEngine(CheckpointEngine):
    """Lazy asynchronous multi-level checkpointing over real NumPy state."""

    name = "datastates"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pool = PinnedHostPool(self.policy.host_buffer_size)
        #: The one snapshot worker: every part is captured on it, in plan order.
        self.copy_stream = CopyStream(self.pool, name=f"d2h-copy-r{self.rank}-c0")
        self.pipeline = FlushPipeline(self.store, self.pool, rank=self.rank,
                                      flush_threads=self.policy.flush_threads)

    # ------------------------------------------------------------------ save
    def plan_shards(self, flattened: FlattenedState, base_name: str) -> ShardPlan:
        # Checked once per structure, before anything of the request is
        # recorded or staged.
        largest = max((ref.nbytes for ref in flattened.tensors), default=0)
        if largest > self.pool.capacity:
            raise CheckpointError(f"tensor of {largest} bytes exceeds the host staging buffer "
                                  f"({self.pool.capacity} bytes); increase host_buffer_size")
        return super().plan_shards(flattened, base_name)

    def _write_parts(self, handle, plan, parts, inc) -> None:
        """Queue every part's lazy capture and return.

        The scan, capture, flush, and commit proceed in the background.  The
        caller must invoke :meth:`wait_for_snapshot` before mutating any tensor
        the state references (typically right before ``optimizer.step()``).
        """
        # Phase 3: lazy captures, queued on the copy stream; phase 4: a flush
        # per dirty part, so capture and flush overlap per shard.
        for index, part in parts:
            snapshot = SnapshotJob(
                tag=handle.tag, shard_name=part.name, header=part.header,
                skeleton=plan.skeleton, tensors=part.tensors)
            handle.snapshots.append(snapshot)

            def on_done(written, error, index=index):
                if error is not None:
                    handle.fail(error)
                else:
                    self._part_written(handle, plan, index, *written)

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
                return inc.checksums[part.name] if inc else ()

            snapshot.begin = begin
            self.copy_stream.submit(snapshot)

    # ------------------------------------------------------------ wait points
    def wait_for_snapshot(self, timeout: Optional[float] = None) -> None:
        """Block while any previous snapshot capture is still pending.

        This is the consistency gate that must precede the optimizer update:
        once it returns, every tensor of every outstanding request has been
        copied off the training state and may be mutated freely.
        """
        self.copy_stream.wait_idle(timeout=timeout)

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
        self.copy_stream.shutdown()
        self.pipeline.shutdown(wait=wait)
        self.pool.close()
