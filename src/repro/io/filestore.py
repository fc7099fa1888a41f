"""Real on-disk storage backend used by the real-mode checkpoint engine.

The engine writes one file per checkpoint shard (the default DeepSpeed
layout, Figure 2(c)/(d)) plus a small JSON manifest once the checkpoint has
been committed by the consolidation protocol.  Writes go to a temporary name
and are renamed into place so that a partially-written shard can never be
mistaken for a complete one — the on-disk analogue of the consistency
guarantee the two-phase commit provides across ranks.

Two write paths are provided:

* :meth:`FileStore.write_shard` — the legacy streaming path: one sequential
  writer consumes an iterable of chunks front to back.

* :meth:`FileStore.create_shard_writer` — the fast path: an offset-addressed
  :class:`ShardWriter` backed by ``os.pwrite``.  Because every tensor's file
  offset is fixed up front by the shard header, multiple flush workers can
  write one shard's tensors concurrently and out of order, each landing its
  staged view directly at its final offset.

Restores mirror the split: :meth:`FileStore.read_shard` materialises the
whole file as ``bytes`` (or, given ``out=``, reads it straight into the
caller's buffer), while :meth:`FileStore.open_shard_mmap` returns a
:class:`MappedShard` whose pages stream in lazily and are never duplicated on
the heap.
"""

from __future__ import annotations

import json
import mmap
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Union

from ..exceptions import CheckpointError, ConsistencyError

#: File whose presence in a checkpoint directory marks it committed.
_MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class WriteReceipt:
    """Result of one completed shard write."""

    path: Path
    nbytes: int


def fsync_directory(directory: Union[str, Path]) -> None:
    """fsync a directory so a just-renamed entry inside it survives a crash.

    ``os.replace`` makes a rename atomic but not durable: POSIX only
    guarantees the new directory entry reaches stable storage once the
    *parent directory* itself has been fsynced.  Every ``fsync=True`` write
    path calls this after its rename, otherwise a power failure could roll
    back the publish of an already-fsynced shard or manifest.
    """
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish_file(tmp_name: Union[str, Path], final_path: Union[str, Path],
                 directory: Union[str, Path], fsync: bool = False) -> None:
    """Atomically publish ``tmp_name`` under ``final_path`` (rename + durability).

    The one rename-then-fsync-parent sequence every publish path shares
    (shard writers, streaming shard writes, manifests, the tiered store's
    tier-index sidecar).  With ``fsync=True`` the parent directory is fsynced
    after the rename, because the rename itself is not durable until then.

    Failures propagate as the underlying :class:`OSError`; when the rename
    already succeeded and only the directory fsync failed, the error carries
    ``.published = True`` so callers can report that the entry is visible but
    its publish is not yet durable.
    """
    os.replace(str(tmp_name), str(final_path))
    if fsync:
        try:
            fsync_directory(directory)
        except OSError as exc:
            exc.published = True
            raise


class ShardWriter:
    """Offset-addressed writer for one shard file.

    The backing temp file is pre-sized with ``ftruncate`` so concurrent
    ``os.pwrite`` calls from multiple flush workers can land tensor payloads
    at their final offsets in any order.  ``os.pwrite`` is atomic with
    respect to the file offset, so no locking is needed between writers.
    The same publish protocol as the streaming path applies: the file only
    becomes visible under its final name at :meth:`commit`.
    """

    def __init__(self, directory: Path, final_path: Path, total_bytes: int,
                 fsync: bool = False) -> None:
        if total_bytes <= 0:
            raise CheckpointError("shard writer needs a positive total size")
        self.directory = Path(directory)
        self.final_path = final_path
        self.total_bytes = int(total_bytes)
        self.fsync = fsync
        self._committed = False
        self._closed = False
        fd, tmp_name = tempfile.mkstemp(prefix=f".{final_path.name}.", dir=str(directory))
        self._fd = fd
        self._tmp_name = tmp_name
        try:
            os.ftruncate(fd, self.total_bytes)
        except BaseException:
            self.abort()
            raise

    def pwrite(self, offset: int, data) -> int:
        """Write ``data`` (bytes or memoryview) at ``offset``; thread-safe."""
        if self._closed:
            raise CheckpointError(f"shard writer for {self.final_path.name!r} is closed")
        view = data if isinstance(data, memoryview) else memoryview(data)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        if offset < 0 or offset + len(view) > self.total_bytes:
            raise CheckpointError(
                f"pwrite [{offset}, {offset + len(view)}) outside shard of "
                f"{self.total_bytes} bytes"
            )
        written = 0
        while written < len(view):
            written += os.pwrite(self._fd, view[written:], offset + written)
        return written

    def commit(self) -> WriteReceipt:
        """Make the shard durable (optional fsync) and atomically publish it.

        With ``fsync=True`` the *parent directory* is fsynced after the
        rename as well — the rename itself is not durable until then.
        Raises :class:`CheckpointError` if the publish loses a race with
        checkpoint pruning (the directory was deleted under the writer).
        """
        if self._closed:
            raise CheckpointError(f"shard writer for {self.final_path.name!r} is closed")
        try:
            if self.fsync:
                os.fsync(self._fd)
        finally:
            os.close(self._fd)
            self._closed = True
        try:
            publish_file(self._tmp_name, self.final_path, self.directory,
                         fsync=self.fsync)
        except OSError as exc:
            if getattr(exc, "published", False):
                # The shard is visible but its publish is not yet durable —
                # report that precisely rather than blaming a prune race.
                raise CheckpointError(
                    f"shard {self.final_path.name!r} was published but its "
                    f"directory entry could not be fsynced: {exc}"
                ) from exc
            raise CheckpointError(
                f"cannot publish shard {self.final_path.name!r}: {exc} "
                f"(checkpoint directory pruned while the write was in flight?)"
            ) from exc
        self._committed = True
        return WriteReceipt(path=self.final_path, nbytes=self.total_bytes)

    def abort(self) -> None:
        """Discard the partially-written temp file (idempotent)."""
        if not self._closed:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._closed = True
        if not self._committed:
            try:
                os.unlink(self._tmp_name)
            except OSError:
                pass

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # No-op after commit(); otherwise discard the temp file so an
        # uncommitted writer can never leak its fd or pre-sized file.
        self.abort()


class MappedShard:
    """A read-only memory map of one shard file (zero-copy restore path).

    ``data`` is the raw ``mmap.mmap`` — hand it straight to
    ``deserialize_state``/``np.frombuffer``; arrays built with ``copy=False``
    keep the map alive through their buffer reference, so :meth:`close` is
    deferred to garbage collection if views are still outstanding.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        fd = os.open(str(path), os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if size == 0:
                raise CheckpointError(f"shard file {path} is empty, cannot mmap")
            self.data = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)

    def __len__(self) -> int:
        return len(self.data)

    def close(self) -> None:
        """Release the mapping; a no-op while zero-copy views still reference it."""
        try:
            self.data.close()
        except BufferError:
            # np.frombuffer views still point into the map; the mmap is
            # released when the last view is garbage-collected.
            pass

    def __enter__(self) -> "MappedShard":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _check_range(tag: str, shard_name: str, offset: int, length: int,
                 size: int) -> None:
    """Shared bounds check of ``read_shard_range`` (file, object, cas)."""
    if offset < 0 or length < 0 or offset + length > size:
        raise CheckpointError(
            f"range [{offset}, {offset + length}) outside shard "
            f"{shard_name!r} of checkpoint {tag!r} ({size} bytes)"
        )


def _landing_view(tag: str, shard_name: str, out, size: int) -> memoryview:
    """``out`` of ``read_shard(out=)`` as a flat byte view, checked to be a
    writable buffer of exactly the stored shard's ``size`` (every backend)."""
    view = memoryview(out).cast("B")
    if view.readonly or len(view) != size:
        raise ConsistencyError(
            f"shard {shard_name!r} of checkpoint {tag!r} is {size} bytes; reading "
            f"it in place needs a writable buffer of that size, got {len(view)}")
    return view


class FileStore:
    """A directory-backed store of checkpoint shard files."""

    def __init__(self, root: Union[str, Path], fsync: bool = False) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync

    # -- paths ---------------------------------------------------------------
    def checkpoint_dir(self, tag: str) -> Path:
        """Directory holding all shards of checkpoint ``tag``."""
        return self.root / tag

    def shard_path(self, tag: str, shard_name: str) -> Path:
        """Path of one shard file inside a checkpoint."""
        return self.checkpoint_dir(tag) / f"{shard_name}.shard"

    def manifest_path(self, tag: str) -> Path:
        """Path of the commit manifest of checkpoint ``tag``."""
        return self.checkpoint_dir(tag) / _MANIFEST_NAME

    # -- writes ----------------------------------------------------------------
    def write_shard(self, tag: str, shard_name: str,
                    chunks: Iterable[Union[bytes, memoryview]]) -> WriteReceipt:
        """Write a shard from an iterable of byte chunks (streaming friendly).

        Chunks may be ``bytes`` or zero-copy ``memoryview`` slices of a
        staging buffer; each chunk is fully written before the next one is
        pulled from the iterable, so views may be recycled by the producer as
        soon as the following chunk is requested.
        """
        directory = self.checkpoint_dir(tag)
        directory.mkdir(parents=True, exist_ok=True)
        final_path = self.shard_path(tag, shard_name)
        nbytes = 0
        fd, tmp_name = tempfile.mkstemp(prefix=f".{shard_name}.", dir=str(directory))
        try:
            with os.fdopen(fd, "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
                    nbytes += chunk.nbytes if isinstance(chunk, memoryview) else len(chunk)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            publish_file(tmp_name, final_path, directory, fsync=self.fsync)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return WriteReceipt(path=final_path, nbytes=nbytes)

    def create_shard_writer(self, tag: str, shard_name: str, total_bytes: int) -> ShardWriter:
        """Open an offset-addressed :class:`ShardWriter` for parallel pwrites.

        ``total_bytes`` must be the exact final file size (preamble plus the
        header's ``payload_bytes``), known up front because the shard header
        fixes every tensor's file offset before any payload is copied.
        """
        directory = self.checkpoint_dir(tag)
        directory.mkdir(parents=True, exist_ok=True)
        return ShardWriter(directory, self.shard_path(tag, shard_name),
                           total_bytes, fsync=self.fsync)

    def write_manifest(self, tag: str, manifest: Dict) -> Path:
        """Atomically publish the commit manifest for checkpoint ``tag``."""
        directory = self.checkpoint_dir(tag)
        directory.mkdir(parents=True, exist_ok=True)
        path = self.manifest_path(tag)
        payload = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
        fd, tmp_name = tempfile.mkstemp(prefix=".manifest.", dir=str(directory))
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            # A manifest whose rename is lost un-commits the checkpoint, so
            # the publish must sync the directory entry too.
            publish_file(tmp_name, path, directory, fsync=self.fsync)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- reads ---------------------------------------------------------------------
    def read_shard(self, tag: str, shard_name: str, out=None):
        """Read back one shard file: as ``bytes``, or with ``out`` straight
        into that buffer (one open, an ``fstat`` size check, ``readinto``)."""
        try:
            with open(self.shard_path(tag, shard_name), "rb", buffering=0) as handle:
                if out is None:
                    return handle.read()
                view = _landing_view(tag, shard_name, out,
                                     os.fstat(handle.fileno()).st_size)
                filled = 0
                while filled < len(view):
                    got = handle.readinto(view[filled:])
                    if not got:  # shrank under us: the caller's size check fails it
                        break
                    filled += got
                return view[:filled]
        except FileNotFoundError:
            raise CheckpointError(
                f"shard {shard_name!r} of checkpoint {tag!r} does not exist") from None

    def read_shard_range(self, tag: str, shard_name: str,
                         offset: int, length: int) -> bytes:
        """Read ``length`` bytes of one shard starting at ``offset`` (pread).

        The range must lie entirely inside the shard — a short read would
        silently corrupt a restore, so out-of-bounds ranges are rejected
        instead of truncated.
        """
        path = self.shard_path(tag, shard_name)
        if not path.exists():
            raise CheckpointError(f"shard {shard_name!r} of checkpoint {tag!r} does not exist")
        fd = os.open(str(path), os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            _check_range(tag, shard_name, offset, length, size)
            pieces = []
            position = offset
            end = offset + length
            while position < end:
                piece = os.pread(fd, end - position, position)
                if not piece:
                    raise CheckpointError(
                        f"shard {shard_name!r} of checkpoint {tag!r} ended at "
                        f"byte {position}, expected {end}"
                    )
                pieces.append(piece)
                position += len(piece)
        finally:
            os.close(fd)
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)

    def open_shard_mmap(self, tag: str, shard_name: str) -> MappedShard:
        """Memory-map one shard file for zero-copy restore."""
        path = self.shard_path(tag, shard_name)
        if not path.exists():
            raise CheckpointError(f"shard {shard_name!r} of checkpoint {tag!r} does not exist")
        return MappedShard(path)

    def read_manifest(self, tag: str) -> Dict:
        """Read back the commit manifest of checkpoint ``tag``."""
        path = self.manifest_path(tag)
        if not path.exists():
            raise CheckpointError(f"checkpoint {tag!r} has no manifest (never committed?)")
        return json.loads(path.read_text("utf-8"))

    def shard_size(self, tag: str, shard_name: str) -> int:
        """Size on disk of one shard."""
        return self.shard_path(tag, shard_name).stat().st_size

    # -- management --------------------------------------------------------------------
    def list_checkpoints(self) -> List[str]:
        """Tags of checkpoints present (committed or not), sorted."""
        try:
            with os.scandir(self.root) as entries:
                return sorted(entry.name for entry in entries if entry.is_dir())
        except FileNotFoundError:
            return []

    def list_committed_checkpoints(self) -> List[str]:
        """Tags of checkpoints that have a manifest, sorted."""
        root = os.fspath(self.root)
        return [tag for tag in self.list_checkpoints()
                if os.path.exists(os.path.join(root, tag, _MANIFEST_NAME))]

    def delete_checkpoint(self, tag: str) -> None:
        """Remove an entire checkpoint directory."""
        directory = self.checkpoint_dir(tag)
        if directory.exists():
            shutil.rmtree(directory)

    def total_bytes(self, tag: str) -> int:
        """Sum of shard file sizes of a checkpoint."""
        directory = self.checkpoint_dir(tag)
        if not directory.exists():
            return 0
        return sum(p.stat().st_size for p in directory.glob("*.shard"))
