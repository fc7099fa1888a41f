"""TorchSnapshot-like checkpointing over real NumPy state.

The "TorchSnapshot" baseline of §6.2: the state is chunked and serialized by
``policy.flush_threads`` **parallel writer threads**, but ``save`` **blocks
until the whole flush (and the commit) has completed** — parallel I/O without
the lazy capture/flush overlap that DataStates adds.

The writers use the offset-addressed ``pwrite`` fast path when the store
supports it (each tensor lands at its final file offset computed by the shard
header, chunk by chunk), falling back to a single-threaded streaming write
otherwise.  Per-tensor CRC32s are folded into the whole-file checksum with
:func:`~repro.serialization.fold_section_checksums`, so restart-time
validation is byte-identical to every other engine's shards.
"""

from __future__ import annotations

import threading
import zlib
from typing import Any, List, Optional, Tuple

from ..config import CheckpointPolicy
from ..exceptions import CheckpointError
from ..io import FlushTask, FlushWorkerPool, ShardStore, supports_shard_writer
from ..serialization import (
    CheckpointTopology,
    encode_preamble,
    fold_section_checksums,
    iter_part_payloads,
)
from ..tensor import flatten_state_dict
from .base_engine import CheckpointEngine, CompletedCheckpointHandle
from .consolidation import TwoPhaseCommitCoordinator
from .flush_pipeline import FlushResult


class ParallelShardWrite:
    """Coordinates the concurrent offset-addressed write of ONE shard.

    A pending-task latch, per-tensor CRC32 accumulation, first-error capture,
    and the fold of the whole-file checksum from the per-tensor CRCs (in
    file-offset order, so it is byte-identical to a sequential CRC despite
    out-of-order writes).
    """

    def __init__(self, writer, workers: FlushWorkerPool, header, preamble: bytes) -> None:
        self.writer = writer
        self.workers = workers
        self.header = header
        self.preamble = preamble
        self.payload_start = len(preamble)
        # Keyed by tensor key, not offset: zero-length tensors (legal under
        # uneven ZeRO partitions) share their offset with the next entry.
        self._index_by_key = {entry.key: i for i, entry in enumerate(header.entries)}
        self._state_lock = threading.Lock()
        self._tensor_crcs: List[Optional[int]] = [None] * len(header.entries)
        self._errors: List[BaseException] = []
        self._done_cv = threading.Condition()
        self._pending = 0

    def write_preamble(self) -> None:
        """Write the header+skeleton at offset 0 (errors captured, not raised)."""
        try:
            self.writer.pwrite(0, self.preamble)
        except BaseException as exc:  # noqa: BLE001 - surfaced via first_error
            self._record_error(exc)

    def _record_error(self, exc: BaseException) -> None:
        with self._state_lock:
            self._errors.append(exc)

    @property
    def failed(self) -> bool:
        """True once any write has failed (producers should stop submitting)."""
        with self._state_lock:
            return bool(self._errors)

    def submit(self, entry, view: memoryview, description: str = "",
               chunk_size: Optional[int] = None) -> None:
        """Queue one tensor's pwrite at its final offset.

        With ``chunk_size`` the tensor is written (and checksummed) in
        bounded pieces.  Raises only if the worker pool rejects the task; its
        latch slot is undone first.
        """
        with self._done_cv:
            self._pending += 1

        def run() -> None:
            try:
                if chunk_size:
                    crc = 0
                    for start in range(0, entry.nbytes, chunk_size):
                        stop = min(start + chunk_size, entry.nbytes)
                        piece = view[start:stop]
                        self.writer.pwrite(self.payload_start + entry.offset + start, piece)
                        crc = zlib.crc32(piece, crc) & 0xFFFFFFFF
                else:
                    self.writer.pwrite(self.payload_start + entry.offset, view)
                    crc = zlib.crc32(view) & 0xFFFFFFFF
                with self._state_lock:
                    self._tensor_crcs[self._index_by_key[entry.key]] = crc
            except BaseException as exc:  # noqa: BLE001 - surfaced via first_error
                self._record_error(exc)

        def on_done(_error: Optional[BaseException]) -> None:
            with self._done_cv:
                self._pending -= 1
                self._done_cv.notify_all()

        try:
            self.workers.submit(FlushTask(run=run, on_done=on_done,
                                          description=description))
        except BaseException:
            # The task will never run: undo its latch slot before bailing out.
            with self._done_cv:
                self._pending -= 1
            raise

    def wait_writes(self) -> None:
        """Block until every submitted pwrite has retired (always safe to
        call — also on error paths, before closing the writer's fd)."""
        with self._done_cv:
            while self._pending:
                self._done_cv.wait()

    def first_error(self) -> Optional[BaseException]:
        """The first write failure, if any."""
        with self._state_lock:
            return self._errors[0] if self._errors else None

    def folded_checksum(self) -> int:
        """Whole-file CRC32 folded from the per-tensor CRCs."""
        return fold_section_checksums(
            ((crc, entry.nbytes)
             for entry, crc in zip(self.header.entries, self._tensor_crcs)),
            initial=zlib.crc32(self.preamble))

    def tensor_checksums(self) -> Tuple[Optional[int], ...]:
        """Per-tensor CRC32s in header order."""
        return tuple(self._tensor_crcs)


class TorchSnapshotCheckpointEngine(CheckpointEngine):
    """Chunked parallel-writer checkpointing, blocking until the flush completes."""

    name = "torchsnapshot"

    def __init__(self, store: ShardStore, rank: int = 0, world_size: int = 1,
                 coordinator: Optional[TwoPhaseCommitCoordinator] = None,
                 policy: Optional[CheckpointPolicy] = None,
                 host_buffer_size: Optional[int] = None,
                 commit_timeout: Optional[float] = None,
                 topology: Optional[CheckpointTopology] = None) -> None:
        if policy is None:
            # The paper's TorchSnapshot configuration runs 4 flush threads.
            policy = CheckpointPolicy(host_buffer_size=host_buffer_size or 256 << 20,
                                      flush_threads=4)
        super().__init__(store, rank=rank, world_size=world_size,
                         coordinator=coordinator, policy=policy,
                         host_buffer_size=host_buffer_size, topology=topology)
        self.commit_timeout = commit_timeout
        self._writers = FlushWorkerPool(num_workers=self.policy.flush_threads,
                                        name=f"ts-write-r{rank}")

    # ------------------------------------------------------------------ save
    def save(self, state: Any, tag: str, iteration: int = -1,
             shard_name: Optional[str] = None) -> CompletedCheckpointHandle:
        """Blocking checkpoint: chunked parallel write, durable and committed
        (for this rank's part of the collective) before returning.

        With ``policy.shards_per_rank > 1`` the writer pool fans out over
        every part of the shard-set at once, so several files (and several
        OSTs of a striped PFS) are written concurrently.
        """
        self._ensure_open()
        self._count_request()
        shard = shard_name or self.default_shard_name()
        plan = self.plan_shards(flatten_state_dict(state), shard)
        inc = self._plan_incremental(plan)
        dirty = [part for part in plan.parts
                 if inc is None or part.name not in inc.clean]

        by_name = {}
        if supports_shard_writer(self.store):
            try:
                records, results = self._write_parallel_set(tag, plan, parts=dirty)
            except CheckpointError:
                raise
            except OSError as exc:
                # A pwrite/commit errno from the writer pool surfaces under
                # the same loud-failure contract as the streaming path.
                raise CheckpointError(
                    f"parallel shard write of {tag}/{shard} failed: {exc}") from exc
            for record, result in zip(records, results):
                by_name[record.name] = (record, result)
        else:
            for part in dirty:
                views = [memoryview(payload)
                         for _entry, payload in iter_part_payloads(part)]
                nbytes, checksum = self._write_streaming_shard(
                    tag, part.name, part.header, plan.skeleton, views)
                record = self._part_record(
                    plan, part, nbytes, checksum,
                    tensor_checksums=inc.tensor_checksums(part.name) if inc else None)
                by_name[part.name] = (record, FlushResult(
                    tag=tag, shard_name=part.name, nbytes=nbytes,
                    checksum=checksum, record=record))

        for part in plan.parts:
            if part.name not in by_name:
                by_name[part.name] = self._reference_shard(tag, plan, part, inc)
        records = [by_name[part.name][0] for part in plan.parts]
        results = [by_name[part.name][1] for part in plan.parts]

        self._vote_and_wait_commit(tag, records, iteration, timeout=self.commit_timeout)
        result = self._combine_results(tag, shard, results)
        return CompletedCheckpointHandle(tag=tag, shard_name=shard, result=result)

    # ------------------------------------------------------------ write paths
    def _write_parallel_set(self, tag: str, plan, parts=None):
        """Fan the (dirty subset of the) shard-set out to the writer pool.

        Every part's tensors are submitted before any wait, so the pool's
        chunked pwrites interleave across all files of the set — the
        multi-file analogue of the original single-shard parallel write.
        ``parts`` restricts the write to a subset (incremental saves skip
        clean parts); ``None`` writes the whole plan.
        """
        part_writes = []
        try:
            for part in (plan.parts if parts is None else parts):
                preamble = encode_preamble(part.header, plan.skeleton)
                writer = self.store.create_shard_writer(
                    tag, part.name, len(preamble) + part.header.payload_bytes)
                shard_write = ParallelShardWrite(writer, self._writers,
                                                 part.header, preamble)
                part_writes.append((part, writer, shard_write))
                shard_write.write_preamble()
                for entry, payload in iter_part_payloads(part):
                    if shard_write.failed:
                        break
                    shard_write.submit(entry, memoryview(payload),
                                       description=f"{tag}/{part.name}@{entry.offset}",
                                       chunk_size=self.policy.chunk_size)
            records, results = [], []
            for part, writer, shard_write in part_writes:
                shard_write.wait_writes()
                error = shard_write.first_error()
                if error is not None:
                    raise error
                receipt = writer.commit()
                checksum = shard_write.folded_checksum()
                record = self._part_record(plan, part, receipt.nbytes, checksum,
                                           tensor_checksums=shard_write.tensor_checksums())
                records.append(record)
                results.append(FlushResult(tag=tag, shard_name=part.name,
                                           nbytes=receipt.nbytes, checksum=checksum,
                                           record=record))
            return records, results
        except BaseException:
            # Let in-flight pwrites retire before closing their fds; abort
            # discards any part not yet committed (commit() makes abort a
            # no-op for parts already published).
            for _part, _writer, shard_write in part_writes:
                shard_write.wait_writes()
            for _part, writer, _shard_write in part_writes:
                writer.abort()
            raise

    # ---------------------------------------------------------------- shutdown
    def _release_resources(self, wait: bool = True) -> None:
        self._writers.shutdown(wait=wait)
