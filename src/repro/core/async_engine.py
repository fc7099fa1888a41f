"""CheckFreq-style asynchronous checkpointing over real NumPy state.

The "Asynchronous checkpointing" baseline of §6.2 (CheckFreq /
AsyncCheckpointIO): inside ``save``, :class:`AsyncCheckpointEngine` performs a
**blocking device-to-host snapshot into freshly allocated per-checkpoint
buffers** (one per dirty shard part) —
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

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..serialization import iter_part_payloads, tensor_bytes
from .base_engine import CheckpointEngine


class AsyncCheckpointEngine(CheckpointEngine):
    """Blocking snapshot into a fresh buffer + a single background flush thread."""

    name = "async"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: One worker: flushes of successive checkpoints run FIFO.
        self._flusher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"checkfreq-flush-r{self.rank}")

    def _write_parts(self, handle, plan, parts, inc) -> None:
        """Blocking scan and snapshot of the dirty parts; their flush proceeds
        in the background.  On return every tensor has been copied into a buffer
        allocated for this request alone, so the caller may mutate the state
        freely."""
        # Blocking D2H capture into freshly allocated buffers (CheckFreq pays
        # this allocation on every request; DataStates amortizes it with the
        # preallocated pinned pool).
        staged = []
        for index, part in parts:
            if self._scan_part(handle, plan, index, inc):
                continue
            buffer = np.empty(max(part.payload_bytes, 1), dtype=np.uint8)
            views = []
            for entry, payload in iter_part_payloads(part):
                (landed,) = tensor_bytes(
                    payload, buffer[entry.offset:entry.offset + entry.nbytes])
                views.append(landed)
            staged.append((index, part, views))
        self._flusher.submit(self._flush, handle, plan, staged)

    def _flush(self, handle, plan, staged) -> None:
        try:
            for index, part, views in staged:
                self._part_written(handle, plan, index, *self._write_streaming_shard(
                    handle.tag, part.name, part.header, plan.skeleton, views))
        except BaseException as exc:  # noqa: BLE001 - surfaced via the handle
            handle.fail(exc)

    # ---------------------------------------------------------------- shutdown
    def _release_resources(self, wait: bool = True) -> None:
        self._flusher.shutdown(wait=wait)
