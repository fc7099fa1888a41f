"""Streaming flush pipeline — host staging buffer to persistent storage.

Consumes the :class:`~repro.core.lazy_snapshot.SnapshotJob` staging queue and
writes the shard file incrementally: the preamble (header + skeleton) goes
out immediately, and each staged **extent** — a run of file-adjacent tensors
in one pinned-pool allocation — is written as soon as its device-to-host
copy lands, so flushing overlaps both the remaining copies and the training
computation (streamlined multi-level flushing, §5.1).  Pool space goes back
extent by extent as it is consumed, and the pool's first-fit placement hands
those just-written bytes to the next extent it stages.

One loop feeds one of two sinks, selected by what the store offers:

* **Offset-addressed** — the store hands out a :class:`~repro.io.ShardWriter`;
  because the shard header fixes every file offset up front, each extent is
  one ``pwrite`` at its final position, issued inline by the flush thread.

* **Streaming** — stores without a writer (CAS, fault-injecting, test
  doubles) pull the same bytes through
  :meth:`~repro.io.ShardStore.write_shard` as zero-copy ``memoryview``
  chunks of the pool, none longer than :data:`WRITE_CHUNK_BYTES`.

Neither sink hashes a payload byte: the capture thread already took every
tensor's CRC32 where the bytes landed.  Either sink reports the same three
things — the bytes written, the preamble's :func:`~repro.serialization.crc32`
and the per-tensor CRC32s — and the engine folds the part checksum from them
(:meth:`~repro.core.CheckpointEngine._part_written`), as it does for every
other engine's sinks.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, List, Optional, Tuple, Union

from ..exceptions import CheckpointError
from ..io import ShardStore, supports_shard_writer
from ..logging_utils import get_logger
from ..memory import PinnedHostPool
from ..serialization import crc32, encode_preamble
from .lazy_snapshot import SnapshotJob, StagedExtent

logger = get_logger(__name__)

#: Longest single piece a real engine hands a store: a streamed chunk, or
#: one ``pwrite`` of a tensor on the TorchSnapshot-like writer threads.
WRITE_CHUNK_BYTES = 64 * 1024 * 1024


#: What a sink reports for one written part: the bytes on the store, the
#: preamble's CRC32 and one CRC32 per tensor, in header order.
PartWrite = Tuple[int, int, Tuple[int, ...]]


class ShardFlushJob:
    """Tracks one shard flush from submission to durability."""

    def __init__(self, snapshot: SnapshotJob) -> None:
        self.snapshot = snapshot
        self.done = threading.Event()
        self.result: Optional[PartWrite] = None
        self.error: Optional[BaseException] = None

    def wait(self, timeout: Optional[float] = None) -> PartWrite:
        """Block until the shard is durably written; re-raise failures."""
        if not self.done.wait(timeout=timeout):
            raise CheckpointError(
                f"timed out waiting for flush of {self.snapshot.tag}/{self.snapshot.shard_name}"
            )
        if self.error is not None:
            raise CheckpointError(
                f"flush of {self.snapshot.tag}/{self.snapshot.shard_name} failed: {self.error}"
            ) from self.error
        assert self.result is not None
        return self.result


class _StagedExtents:
    """The consuming end of a snapshot's staging queue: the extents in file
    order, each one's pool space going back as the next is asked for."""

    def __init__(self, snapshot: SnapshotJob, pool: PinnedHostPool) -> None:
        self._get = snapshot.staged.get
        self._free = pool.free
        self._held: Optional[StagedExtent] = None
        self._open = True

    def __iter__(self) -> "_StagedExtents":
        return self

    def __next__(self) -> StagedExtent:
        if self._held is not None:
            self._free(self._held.allocation)
        self._held = self._get() if self._open else None
        if self._held is None:  # the capture's end-of-snapshot sentinel
            self._open = False
            raise StopIteration
        return self._held

    def close(self) -> None:
        """Free the held extent and everything still to come."""
        for _extent in self:
            pass


class FlushPipeline:
    """Background writer of snapshot jobs to a :class:`~repro.io.ShardStore`."""

    def __init__(
        self,
        store: ShardStore,
        pool: PinnedHostPool,
        rank: int = 0,
        flush_threads: int = 1,
        parallel_shard_writes: bool = True,
    ) -> None:
        self.store = store
        self.pool = pool
        self.rank = rank
        self.workers = ThreadPoolExecutor(max_workers=flush_threads,
                                          thread_name_prefix=f"flush-r{rank}")
        # The offset-addressed sink needs a store that can hand out pwrite
        # writers; plain stores (and test doubles) stream.  ``False`` streams
        # on any store.
        self.parallel_shard_writes = bool(
            parallel_shard_writes and supports_shard_writer(store)
        )

    # -- submission ---------------------------------------------------------
    def submit(self, snapshot: SnapshotJob,
               on_done: Optional[Callable[[Optional[PartWrite],
                                           Optional[BaseException]], None]] = None,
               ) -> ShardFlushJob:
        """Queue a snapshot's shard for background writing.

        ``on_done(result, error)`` — one of the two is ``None`` — runs on the
        flush thread once the shard is durable or its write has failed.
        """
        job = ShardFlushJob(snapshot)
        self.workers.submit(self._run, job, on_done)
        return job

    def _run(self, job: ShardFlushJob, on_done) -> None:
        snapshot = job.snapshot
        try:
            job.result = self._write_shard(snapshot)
        except BaseException as exc:  # noqa: BLE001 - reported through the job
            job.error = exc
            logger.error("flush of %s/%s failed: %s",
                         snapshot.tag, snapshot.shard_name, exc)
        try:
            # The callback (the commit vote, or failing the tag) runs BEFORE
            # the done event fires: anyone woken by wait() may rely on the
            # vote having been cast.
            if on_done is not None:
                on_done(job.result, job.error)
        finally:
            job.done.set()

    # -- synchronisation ---------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the flush workers.  Queued flushes still run either way —
        a cancelled one would strand its snapshot's staged extents in the
        pool; ``wait=False`` only skips waiting for them."""
        self.workers.shutdown(wait=wait)

    # -- the actual write ----------------------------------------------------------
    def _write_shard(self, snapshot: SnapshotJob) -> PartWrite:
        header = snapshot.header
        preamble = encode_preamble(header, snapshot.skeleton)
        crcs: List[int] = []
        extents = _StagedExtents(snapshot, self.pool)
        try:
            if self.parallel_shard_writes:
                writer = self.store.create_shard_writer(
                    snapshot.tag, snapshot.shard_name,
                    len(preamble) + header.payload_bytes)
                try:
                    writer.pwrite(0, preamble)
                    for extent in extents:
                        writer.pwrite(len(preamble) + extent.entries[0].offset,
                                      extent.allocation.view)
                        crcs.extend(extent.crcs)
                    snapshot.wait_captured()  # raises if the capture died
                    receipt = writer.commit()
                except BaseException:
                    writer.abort()
                    raise
            else:
                def chunks() -> Iterator[Union[bytes, memoryview]]:
                    yield preamble
                    for extent in extents:
                        view = extent.allocation.view
                        for start in range(0, len(view), WRITE_CHUNK_BYTES):
                            yield view[start:start + WRITE_CHUNK_BYTES]
                        crcs.extend(extent.crcs)
                    snapshot.wait_captured()  # raises if the capture died

                receipt = self.store.write_shard(snapshot.tag, snapshot.shard_name,
                                                 chunks())
        finally:
            # However the sink left — done, a write failure, a dead capture —
            # nothing stays staged: the capture thread (and the next
            # checkpoint's allocations) must never block on pool space no
            # writer will ever release.
            extents.close()
        return receipt.nbytes, crc32(preamble), tuple(crcs)
