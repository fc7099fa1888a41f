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

import zlib
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from typing import Optional

from ..config import CheckpointPolicy
from ..exceptions import CheckpointError
from ..io import ShardStore, supports_shard_writer
from ..serialization import (
    CheckpointTopology,
    encode_preamble,
    fold_section_checksums,
    iter_part_payloads,
)
from .base_engine import CheckpointEngine
from .consolidation import TwoPhaseCommitCoordinator


def _pwrite_tensor(writer, offset: int, view: memoryview, chunk_size: int) -> int:
    """Write one tensor at its final file offset in bounded pieces; returns
    its CRC32."""
    crc = 0
    for start in range(0, len(view), chunk_size):
        piece = view[start:start + chunk_size]
        writer.pwrite(offset + start, piece)
        crc = zlib.crc32(piece, crc)
    return crc


class TorchSnapshotCheckpointEngine(CheckpointEngine):
    """Chunked parallel-writer checkpointing, blocking until the flush completes."""

    name = "torchsnapshot"
    blocking = True

    def __init__(self, store: ShardStore, rank: int = 0, world_size: int = 1,
                 coordinator: Optional[TwoPhaseCommitCoordinator] = None,
                 policy: Optional[CheckpointPolicy] = None,
                 host_buffer_size: Optional[int] = None,
                 topology: Optional[CheckpointTopology] = None,
                 commit_timeout: Optional[float] = None) -> None:
        if policy is None:
            # The paper's TorchSnapshot configuration runs 4 flush threads.
            policy = CheckpointPolicy(host_buffer_size=host_buffer_size or 256 << 20,
                                      flush_threads=4)
        super().__init__(store, rank=rank, world_size=world_size,
                         coordinator=coordinator, policy=policy,
                         host_buffer_size=host_buffer_size, topology=topology,
                         commit_timeout=commit_timeout)
        self._writers = ThreadPoolExecutor(max_workers=self.policy.flush_threads,
                                           thread_name_prefix=f"ts-write-r{rank}")

    # ------------------------------------------------------------ write paths
    def _write_parts(self, handle, plan, parts, inc) -> None:
        """Chunked parallel write of the dirty parts, durable before returning.

        With ``policy.shards_per_rank > 1`` the writer pool fans out over
        every part of the shard-set at once, so several files (and several
        OSTs of a striped PFS) are written concurrently.
        """
        dirty = [(index, part) for index, part in parts
                 if not self._scan_part(handle, plan, index, inc)]
        if supports_shard_writer(self.store):
            try:
                self._write_parallel_set(handle, plan, dirty)
            except CheckpointError:
                raise
            except OSError as exc:
                # A pwrite/commit errno from the writer pool surfaces under
                # the same loud-failure contract as the streaming path.
                raise CheckpointError(
                    f"parallel shard write of {handle.tag}/{plan.base_name} "
                    f"failed: {exc}") from exc
            return
        for index, part in dirty:
            views = [memoryview(payload)
                     for _entry, payload in iter_part_payloads(part)]
            nbytes, checksum = self._write_streaming_shard(
                handle.tag, part.name, part.header, plan.skeleton, views)
            self._part_written(
                handle, plan, index, nbytes, checksum,
                tensor_checksums=inc.tensor_checksums(part.name) if inc else None)

    def _write_parallel_set(self, handle, plan, dirty) -> None:
        """Fan the dirty parts of the shard-set out to the writer pool.

        Every part's tensors are submitted before any wait, so the pool's
        chunked pwrites interleave across all files of the set — the
        multi-file analogue of the original single-shard parallel write.
        """
        writes = []  # (index, part, writer, preamble, one future per tensor)
        try:
            for index, part in dirty:
                preamble = encode_preamble(part.header, plan.skeleton)
                writer = self.store.create_shard_writer(
                    handle.tag, part.name, len(preamble) + part.header.payload_bytes)
                futures = []
                writes.append((index, part, writer, preamble, futures))
                writer.pwrite(0, preamble)
                for entry, payload in iter_part_payloads(part):
                    futures.append(self._writers.submit(
                        _pwrite_tensor, writer, len(preamble) + entry.offset,
                        memoryview(payload), self.policy.chunk_size))
            for index, part, writer, preamble, futures in writes:
                # Header order; the first failed write re-raises here.
                crcs = tuple(future.result() for future in futures)
                receipt = writer.commit()
                # Folded in file-offset order, so the whole-file checksum is
                # byte-identical to a sequential CRC despite out-of-order writes.
                checksum = fold_section_checksums(
                    zip(crcs, [entry.nbytes for entry in part.header.entries]),
                    initial=zlib.crc32(preamble))
                self._part_written(handle, plan, index, receipt.nbytes, checksum,
                                   tensor_checksums=crcs)
        except BaseException:
            # Let in-flight pwrites retire before closing their fds; abort
            # discards any part not yet committed (commit() makes abort a
            # no-op for parts already published).
            pending = [future for *_write, futures in writes for future in futures]
            for future in pending:
                future.cancel()
            wait_futures(pending)
            for _index, _part, writer, _preamble, _futures in writes:
                writer.abort()
            raise

    # ---------------------------------------------------------------- shutdown
    def _release_resources(self, wait: bool = True) -> None:
        self._writers.shutdown(wait=wait)
