"""Streaming flush pipeline — host staging buffer to persistent storage.

Consumes the :class:`~repro.core.lazy_snapshot.SnapshotJob` staging queue and
writes the shard file incrementally: the preamble (header + skeleton) goes
out immediately, and each staged **extent** — a run of file-adjacent tensors
in one pinned-pool allocation — is written as soon as its device-to-host
copy lands, so flushing overlaps both the remaining copies and the training
computation (streamlined multi-level flushing, §5.1).  Pool space goes back
extent by extent as it is consumed, which is what lets the circular buffer
admit the next checkpoint.

One loop feeds one of two sinks, selected by what the store offers (and
``parallel_shard_writes``):

* **Offset-addressed** — the store hands out a :class:`~repro.io.ShardWriter`;
  because the shard header fixes every file offset up front, each extent is
  one ``pwrite`` at its final position, issued inline by the flush thread.

* **Streaming** — stores without a writer (CAS, fault-injecting, test
  doubles) pull the same bytes through
  :meth:`~repro.io.ShardStore.write_shard` as zero-copy ``memoryview``
  chunks of the pool.

Neither sink hashes a payload byte: the capture thread already took every
tensor's CRC32, and the whole-file checksum is folded from those with
:func:`~repro.serialization.crc32_combine`, bit-identical to a sequential
``zlib.crc32`` pass over the file.
"""

from __future__ import annotations

import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple, Union

from ..exceptions import CheckpointError
from ..io import ShardStore, supports_shard_writer
from ..logging_utils import get_logger
from ..memory import PinnedHostPool
from ..serialization import ShardRecord, encode_preamble, fold_section_checksums
from .lazy_snapshot import SnapshotJob, StagedExtent

logger = get_logger(__name__)


@dataclass
class FlushResult:
    """Outcome of flushing one shard (or, aggregated, one rank's shard-set).

    For a multi-shard-per-rank save the engines hand back one rank-level
    result whose ``nbytes`` sums the set and whose ``parts`` holds the
    individual per-file results; ``checksum``/``record`` then refer to the
    set's first part.
    """

    tag: str
    shard_name: str
    nbytes: int
    checksum: int
    record: ShardRecord
    parts: Optional[Tuple["FlushResult", ...]] = None


class ShardFlushJob:
    """Tracks one shard flush from submission to durability."""

    def __init__(self, snapshot: SnapshotJob, rank: int) -> None:
        self.snapshot = snapshot
        self.rank = rank
        self.done = threading.Event()
        self.result: Optional[FlushResult] = None
        self.error: Optional[BaseException] = None

    def wait(self, timeout: Optional[float] = None) -> FlushResult:
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
        chunk_size: int = 8 * 1024 * 1024,
        parallel_shard_writes: bool = False,
    ) -> None:
        if chunk_size <= 0:
            raise CheckpointError("chunk_size must be positive")
        self.store = store
        self.pool = pool
        self.rank = rank
        self.chunk_size = chunk_size
        self.workers = ThreadPoolExecutor(max_workers=flush_threads,
                                          thread_name_prefix=f"flush-r{rank}")
        # The offset-addressed sink needs a store that can hand out pwrite
        # writers; plain stores (and test doubles) fall back to streaming.
        self.parallel_shard_writes = bool(
            parallel_shard_writes and supports_shard_writer(store)
        )
        self._jobs: List[ShardFlushJob] = []
        self._lock = threading.Lock()

    # -- submission ---------------------------------------------------------
    def submit(self, snapshot: SnapshotJob,
               on_done: Optional[Callable[[Optional[FlushResult],
                                           Optional[BaseException]], None]] = None,
               ) -> ShardFlushJob:
        """Queue a snapshot's shard for background writing.

        ``on_done(result, error)`` — one of the two is ``None`` — runs on the
        flush thread once the shard is durable or its write has failed.
        """
        job = ShardFlushJob(snapshot, self.rank)
        with self._lock:
            self._jobs.append(job)
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
            # A retired job leaves the list: it holds its snapshot, and
            # through it the arrays of the state it saved.
            with self._lock:
                self._jobs.remove(job)
            job.done.set()

    # -- synchronisation ---------------------------------------------------------
    def pending_jobs(self) -> List[ShardFlushJob]:
        """Flush jobs not yet known to be durable."""
        with self._lock:
            return list(self._jobs)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the flush workers.  Queued flushes still run either way —
        a cancelled one would strand its snapshot's staged extents in the
        pool; ``wait=False`` only skips waiting for them."""
        self.workers.shutdown(wait=wait)

    # -- the actual write ----------------------------------------------------------
    def _write_shard(self, snapshot: SnapshotJob) -> FlushResult:
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
                        for start in range(0, len(view), self.chunk_size):
                            yield view[start:start + self.chunk_size]
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
        # Whole-file CRC32 folded from the capture-side per-tensor CRCs, so it
        # can be re-verified by hashing the file once at restart time.
        checksum = fold_section_checksums(
            zip(crcs, [entry.nbytes for entry in header.entries]),
            initial=zlib.crc32(preamble))
        # The record carries the job's shard-set placement (multi-shard-per-
        # rank layout) when it has one; per-tensor CRCs only on the writer sink.
        record = ShardRecord(
            rank=self.rank, name=snapshot.shard_name, nbytes=receipt.nbytes,
            checksum=checksum,
            tensor_checksums=tuple(crcs) if self.parallel_shard_writes else None,
            group=snapshot.group, part_index=snapshot.part_index,
            num_parts=snapshot.num_parts)
        return FlushResult(tag=snapshot.tag, shard_name=snapshot.shard_name,
                           nbytes=receipt.nbytes, checksum=checksum, record=record)
