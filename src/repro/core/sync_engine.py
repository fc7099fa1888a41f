"""The synchronous ``torch.save``-style baseline over real NumPy state.

This is the real-mode counterpart of the paper's "DeepSpeed (sync)" baseline
(§6.2): :class:`SynchronousCheckpointEngine` serializes the whole state and
writes the shard inside ``save``, and — being a ``blocking`` engine — the
shared :meth:`~repro.core.CheckpointEngine.save` template then votes and
**blocks until the checkpoint is globally committed** — the training loop is
stalled for the full duration, which is exactly the behaviour the
asynchronous engines are measured against.

Blocking contract
-----------------
``save`` returns only once the manifest of ``tag`` has been published (or
raises).  A checkpoint is a collective operation, so with ``world_size > 1``
every rank must call ``save`` for the same tag concurrently (each rank from
its own thread/process, as the real-mode harness does) — a single rank saving
alone would wait for votes that never arrive, bounded by ``commit_timeout``.
The seed implementation only waited when ``world_size == 1``, which silently
turned multi-rank "synchronous" saves into fire-and-forget ones.
"""

from __future__ import annotations

from ..exceptions import CheckpointError
from ..serialization import crc32, serialize_part
from .base_engine import CheckpointEngine


class SynchronousCheckpointEngine(CheckpointEngine):
    """Blocking baseline: serialize, write, vote, and wait for the commit."""

    name = "deepspeed"
    blocking = True

    def _write_parts(self, handle, plan, parts, inc) -> None:
        """Scan, serialize and write one part at a time (this baseline has
        no write parallelism by design)."""
        for index, part in parts:
            if self._scan_part(handle, plan, index, inc):
                continue
            raw = serialize_part(part, plan.skeleton)
            try:
                receipt = self.store.write_shard(handle.tag, part.name, [raw])
            except CheckpointError:
                raise
            except OSError as exc:
                # Same loud-failure contract as the async engines' flush
                # wrapping: a store-level I/O error is a CheckpointError.
                raise CheckpointError(
                    f"shard write of {handle.tag}/{part.name} failed: {exc}") from exc
            # One CRC32 per section of the buffer just written.
            start = len(raw) - part.payload_bytes  # where the payload begins
            with memoryview(raw) as view:
                self._part_written(
                    handle, plan, index, receipt.nbytes, crc32(view[:start]),
                    [crc32(view[start + entry.offset:start + entry.offset + entry.nbytes])
                     for entry in part.header.entries])
