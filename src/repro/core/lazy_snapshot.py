"""Lazy snapshot capture — the real-mode device-to-host copy pipeline.

One :class:`SnapshotJob` represents a single checkpoint request of one rank:
its header has already been computed synchronously; the tensor payloads are
copied into the pinned pool by a dedicated copy thread while the training
thread keeps running (the "lazy non-blocking copies" of §5.1).  The unit of
staging is the **extent** — a run of tensors that are adjacent in the shard
file, coalesced into one pool allocation at their final relative offsets
(:func:`~repro.serialization.plan_extents`) — so the pool, the queue and the
flush pay one Python call chain per few MiB, not per tensor.  The copy thread
also takes every tensor's CRC32 right after writing it, while the bytes are
cache-hot — unless the job's ``begin`` hook (an incremental save's dirty
scan, first on the same thread) already has them; nothing downstream hashes
a payload byte again.  That CRC is :func:`~repro.serialization.crc32`, on
libdeflate where the host has it: on the cache-hot bytes it adds about a
quarter to the copy thread's time, where zlib's table-driven CRC tripled it.
Extents are handed to the flush pipeline through a FIFO queue, so flushing
can start before the last tensor has been captured (streamlined flushing).

The training loop calls :meth:`SnapshotJob.wait_captured` right before it
mutates the model/optimizer state (the update phase) — that is the only
point where the copies must have finished for consistency.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CheckpointError
from ..logging_utils import get_logger
from ..memory import HostAllocation, PinnedHostPool
from ..serialization import (
    MAX_EXTENT_BYTES,
    ShardHeader,
    TensorEntry,
    crc32,
    plan_extents,
    tensor_bytes,
)
from ..tensor import TensorRef, tensor_payload_array

logger = get_logger(__name__)

#: Sentinel placed on the staging queue when the last extent has been copied.
_END_OF_SNAPSHOT = None


def deadline_iter(items, timeout: Optional[float]):
    """Yield ``(item, remaining_timeout)`` pairs against one shared deadline.

    The waiting-on-many-parts primitive of the multi-shard layout: with
    ``timeout=None`` every item waits unboundedly; otherwise the caller's
    timeout bounds the *total* wait across all items (a zero remainder is
    floored at a tiny positive value so the underlying wait still polls once).
    """
    if timeout is None:
        for item in items:
            yield item, None
        return
    deadline = time.monotonic() + timeout
    for item in items:
        yield item, max(deadline - time.monotonic(), 1e-6)


@dataclass
class StagedExtent:
    """A run of file-adjacent tensors sitting in one pinned-pool allocation.

    ``allocation.view`` holds exactly the bytes the shard file has from
    ``entries[0].offset`` (payload-relative) on; ``crcs`` are the per-tensor
    CRC32s, in entry order.
    """

    entries: Tuple[TensorEntry, ...]
    allocation: HostAllocation
    crcs: Tuple[int, ...]


class SnapshotJob:
    """The capture half of one checkpoint request (one shard file's worth).

    In the multi-shard-per-rank layout one checkpoint request fans out into
    several jobs — one per :class:`~repro.serialization.ShardPart` — captured
    in turn on the rank's copy stream and flushed independently.  A job
    knows nothing of the manifest: the engine builds each part's record
    from what the flush reports.
    """

    def __init__(self, tag: str, shard_name: str, header: ShardHeader,
                 skeleton: bytes, tensors: Sequence[TensorRef]) -> None:
        self.tag = tag
        self.shard_name = shard_name
        self.header = header
        self.skeleton = skeleton
        self.tensors = list(tensors)
        self.staged: "queue.Queue[Optional[StagedExtent]]" = queue.Queue()
        #: Run once by the copy thread ahead of the copies.  Returns ``None``
        #: for "nothing to capture", else the per-tensor CRC32s it already
        #: took (empty: take them where the bytes land).
        self.begin: Optional[Callable[[], Optional[Sequence[int]]]] = None
        self._captured = threading.Event()
        self._error: Optional[BaseException] = None

    # -- producer side (copy thread) --------------------------------------------
    def capture(self, pool: PinnedHostPool) -> None:
        """Copy and checksum every extent into the pinned pool, in file order
        (runs off-thread)."""
        try:
            # Dropped before it runs: the hook closes over this job, and the
            # cycle would keep the saved arrays alive after the save retired.
            begin, self.begin = self.begin, None
            known = begin() if begin is not None else ()
            if known is None:
                return
            entries = self.header.entries
            # A quarter of the pool if that is less than the extent bound, so
            # two checkpoints in flight through a small pool still progress.
            limit = min(MAX_EXTENT_BYTES, pool.capacity // 4)
            for start, stop in plan_extents(entries, limit):
                run = entries[start:stop]
                # Resolve the payloads before reserving pool space so a broken
                # reference cannot leak an allocation no flush will ever free.
                payloads = [tensor_payload_array(ref) for ref in self.tensors[start:stop]]
                base = run[0].offset
                allocation = pool.allocate(run[-1].offset + run[-1].nbytes - base,
                                           blocking=True)
                try:
                    view = allocation.view
                    target = np.frombuffer(view, dtype=np.uint8)
                    crcs = list(known[start:stop])
                    for entry, payload in zip(run, payloads):
                        lo = entry.offset - base
                        (landed,) = tensor_bytes(payload, target[lo:lo + entry.nbytes])
                        if not known:
                            crcs.append(crc32(landed))
                except BaseException:
                    pool.free(allocation)
                    raise
                self.staged.put(StagedExtent(run, allocation, tuple(crcs)))
        except BaseException as exc:  # noqa: BLE001 - surfaced to waiters
            self._error = exc
            logger.error("snapshot capture of %s/%s failed: %s", self.tag, self.shard_name, exc)
        finally:
            self.tensors = []  # a retired job, still on its handle, pins no array
            self.staged.put(_END_OF_SNAPSHOT)
            self._captured.set()

    # -- consumer side (training thread / flush worker) -----------------------------
    def wait_captured(self, timeout: Optional[float] = None) -> bool:
        """Block until the device-to-host copies finish; re-raise capture errors."""
        finished = self._captured.wait(timeout=timeout)
        if finished and self._error is not None:
            raise CheckpointError(
                f"snapshot of {self.tag}/{self.shard_name} failed: {self._error}"
            ) from self._error
        return finished


class CopyStream:
    """A dedicated background thread that executes snapshot captures in order.

    The real engine uses a CUDA stream plus the GPU copy engine; here a
    single worker thread plays that role.  Captures are strictly FIFO; the
    pool places each extent in its lowest free offset, whatever the order
    the flushes free them in.
    """

    def __init__(self, pool: PinnedHostPool, name: str = "d2h-copy") -> None:
        self.pool = pool
        self._queue: "queue.Queue[Optional[SnapshotJob]]" = queue.Queue()
        self._pending: List[SnapshotJob] = []
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self._thread.start()
        self._closed = False

    def submit(self, job: SnapshotJob) -> None:
        """Enqueue a snapshot capture."""
        if self._closed:
            raise CheckpointError("copy stream is shut down")
        with self._lock:
            self._pending.append(job)
        self._queue.put(job)

    def wait_idle(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted capture has finished (the engine's
        ``wait_for_snapshot`` primitive).  ``timeout`` bounds the whole wait,
        not each pending capture."""
        with self._lock:
            pending = list(self._pending)
        for job, remaining in deadline_iter(pending, timeout):
            if not job.wait_captured(timeout=remaining):
                raise CheckpointError(
                    f"timed out waiting for snapshot {job.tag}/{job.shard_name}"
                )

    def shutdown(self) -> None:
        """Stop the worker after draining queued captures."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=10.0)

    def _loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            job.capture(self.pool)
            with self._lock:
                if job in self._pending:
                    self._pending.remove(job)
