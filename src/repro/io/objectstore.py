"""In-memory object-store backend: one shard part per key, S3-like semantics.

The :class:`ObjectStore` implements the :class:`~repro.io.store.ShardStore`
protocol over a flat key/value namespace instead of a POSIX directory tree:

* every shard part is **one whole object** under ``{tag}/{shard_name}.shard``
  and every manifest one object under ``{tag}/manifest.json``;
* a PUT is atomic — an object either exists with its full payload or not at
  all — so there is **no rename** step and nothing to fsync;
* commit safety comes from **manifest-last key ordering**: the coordinator
  publishes the manifest only after every rank's shard objects are durable,
  so (exactly as with the file backend's atomic manifest rename) a checkpoint
  is restorable if and only if its manifest key exists.  A crash mid-save
  leaves shard objects without a manifest, which ``prune_uncommitted``
  garbage-collects the same way it prunes torn directories.

The store intentionally does **not** provide ``open_shard_mmap`` — there is
no file to map, so :class:`~repro.restart.CheckpointLoader` automatically
falls back to whole-object ``read_shard`` GETs (which the prefetching restore
pipeline overlaps across the shard-set).  It *does* provide
``create_shard_writer``: an :class:`ObjectShardWriter` that accepts
offset-addressed ``pwrite`` calls into a pre-sized staging buffer and
publishes the object atomically at :meth:`ObjectShardWriter.commit` — the
multipart-upload analogue of the file backend's pwrite-then-rename fast path,
so the parallel flush pipeline runs unchanged against either backend.

Everything lives in process memory behind one lock; the class is a stand-in
for a real S3/GCS client with identical consistency semantics, and its
:attr:`ObjectStore.put_count` / :attr:`ObjectStore.get_count` counters let
tests and benches assert request patterns.
"""

from __future__ import annotations

import json
import threading
from pathlib import PurePosixPath
from typing import Dict, Iterable, List, Union

from ..exceptions import CheckpointError
from .filestore import WriteReceipt, _check_range, _landing_view

_SHARD_SUFFIX = ".shard"
_MANIFEST_KEY = "manifest.json"


class ObjectShardWriter:
    """Offset-addressed writer staging one object in memory until commit.

    Mirrors :class:`~repro.io.ShardWriter`'s contract — thread-safe
    ``pwrite`` at arbitrary offsets into a pre-sized buffer, a single
    :meth:`commit` that atomically publishes the object, and an idempotent
    :meth:`abort` that discards the staging buffer — without any filesystem:
    the "temp file" is a private ``bytearray`` and the "rename" is one locked
    dictionary PUT.
    """

    def __init__(self, store: "ObjectStore", key: str, total_bytes: int) -> None:
        if total_bytes <= 0:
            raise CheckpointError("shard writer needs a positive total size")
        self._store = store
        self.key = key
        self.total_bytes = int(total_bytes)
        self._buffer: bytearray = bytearray(self.total_bytes)
        self._view = memoryview(self._buffer)
        self._committed = False
        self._closed = False

    def pwrite(self, offset: int, data) -> int:
        """Write ``data`` (bytes or memoryview) at ``offset``; thread-safe.

        Concurrent writers land disjoint ranges, so plain slice assignment
        into the staging buffer needs no locking (the store lock is only
        taken at publish time).
        """
        if self._closed:
            raise CheckpointError(f"shard writer for {self.key!r} is closed")
        view = data if isinstance(data, memoryview) else memoryview(data)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        if offset < 0 or offset + len(view) > self.total_bytes:
            raise CheckpointError(
                f"pwrite [{offset}, {offset + len(view)}) outside shard of "
                f"{self.total_bytes} bytes"
            )
        self._view[offset:offset + len(view)] = view
        return len(view)

    def commit(self) -> WriteReceipt:
        """Atomically publish the staged object under its final key."""
        if self._closed:
            raise CheckpointError(f"shard writer for {self.key!r} is closed")
        self._view.release()
        payload = bytes(self._buffer)
        self._closed = True
        self._buffer = bytearray()
        self._store._put(self.key, payload)
        self._committed = True
        return WriteReceipt(path=PurePosixPath(self.key), nbytes=len(payload))

    def abort(self) -> None:
        """Discard the staging buffer without publishing (idempotent)."""
        if not self._closed:
            self._view.release()
            self._closed = True
        self._buffer = bytearray()

    def __enter__(self) -> "ObjectShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # No-op after commit(); otherwise discard the staged object so an
        # uncommitted writer can never leak its buffer.
        self.abort()


class ObjectStore:
    """An in-memory S3-like store of checkpoint shard objects (one per key)."""

    def __init__(self, bucket: str = "repro-checkpoints") -> None:
        self.bucket = str(bucket)
        self._lock = threading.Lock()
        self._objects: Dict[str, bytes] = {}
        self.put_count = 0
        self.get_count = 0

    # -- keys ----------------------------------------------------------------
    def shard_key(self, tag: str, shard_name: str) -> str:
        """Key of one shard object inside a checkpoint."""
        return f"{tag}/{shard_name}{_SHARD_SUFFIX}"

    def manifest_key(self, tag: str) -> str:
        """Key of the commit manifest of checkpoint ``tag``."""
        return f"{tag}/{_MANIFEST_KEY}"

    def _put(self, key: str, payload: bytes) -> None:
        with self._lock:
            self._objects[key] = payload
            self.put_count += 1

    def _get(self, key: str) -> bytes:
        with self._lock:
            payload = self._objects.get(key)
            self.get_count += 1
        if payload is None:
            raise CheckpointError(f"object {key!r} does not exist in bucket {self.bucket!r}")
        return payload

    def keys(self) -> List[str]:
        """Every stored key, sorted (introspection for tests/benches)."""
        with self._lock:
            return sorted(self._objects)

    # -- writes --------------------------------------------------------------
    def write_shard(self, tag: str, shard_name: str,
                    chunks: Iterable[Union[bytes, memoryview]]) -> WriteReceipt:
        """Assemble one shard object from byte chunks and PUT it atomically.

        The object only becomes visible once every chunk has been consumed —
        a producer that raises mid-stream publishes nothing (the in-memory
        analogue of the file backend's temp-name-then-rename protocol).
        """
        # ``bytes`` chunks are joined in one pass over fresh pages, and a lone
        # one — what a tier drain hands over — is stored as is.  A view is
        # copied out before the next chunk is pulled: its producer may
        # recycle the staging memory behind it.
        payload = b"".join([chunk if isinstance(chunk, bytes) else bytes(chunk)
                            for chunk in chunks])
        key = self.shard_key(tag, shard_name)
        self._put(key, payload)
        return WriteReceipt(path=PurePosixPath(key), nbytes=len(payload))

    def create_shard_writer(self, tag: str, shard_name: str,
                            total_bytes: int) -> ObjectShardWriter:
        """Open an offset-addressed staging writer for parallel pwrites."""
        return ObjectShardWriter(self, self.shard_key(tag, shard_name), total_bytes)

    def write_manifest(self, tag: str, manifest: Dict) -> str:
        """Publish the commit manifest — always the *last* key of a checkpoint.

        The caller (the two-phase-commit coordinator) orders this after every
        shard PUT of ``tag``; the key's existence is the commit point.
        """
        key = self.manifest_key(tag)
        self._put(key, _encode_manifest(manifest))
        return key

    # -- reads ---------------------------------------------------------------
    def read_shard(self, tag: str, shard_name: str, out=None):
        """GET one shard object's full payload (copied into ``out`` if given)."""
        key = self.shard_key(tag, shard_name)
        try:
            payload = self._get(key)
        except CheckpointError:
            raise CheckpointError(
                f"shard {shard_name!r} of checkpoint {tag!r} does not exist"
            ) from None
        if out is None:
            return payload
        view = _landing_view(tag, shard_name, out, len(payload))
        view[:] = payload
        return view

    def read_shard_range(self, tag: str, shard_name: str,
                         offset: int, length: int) -> bytes:
        """Ranged GET: ``length`` bytes of one shard object from ``offset``.

        Each call is one request (it bumps ``get_count``), mirroring an S3
        ``Range:`` GET — what the tier chain's drain uses to copy a large
        part in bounded pieces.  Out-of-bounds ranges are rejected rather
        than truncated (see the file backend).
        """
        payload = self.read_shard(tag, shard_name)
        _check_range(tag, shard_name, offset, length, len(payload))
        return payload[offset:offset + length]

    def read_manifest(self, tag: str) -> Dict:
        """GET the commit manifest of checkpoint ``tag``."""
        try:
            payload = self._get(self.manifest_key(tag))
        except CheckpointError:
            raise CheckpointError(
                f"checkpoint {tag!r} has no manifest (never committed?)"
            ) from None
        return _decode_manifest(payload)

    def shard_size(self, tag: str, shard_name: str) -> int:
        """Stored size of one shard object: a HEAD, which ``get_count``
        does not count."""
        with self._lock:
            payload = self._objects.get(self.shard_key(tag, shard_name))
        if payload is None:
            raise CheckpointError(
                f"shard {shard_name!r} of checkpoint {tag!r} does not exist")
        return len(payload)

    # -- management ----------------------------------------------------------
    def _tags(self) -> List[str]:
        with self._lock:
            return sorted({key.split("/", 1)[0] for key in self._objects if "/" in key})

    def list_checkpoints(self) -> List[str]:
        """Tags with at least one object (committed or not), sorted."""
        return self._tags()

    def list_committed_checkpoints(self) -> List[str]:
        """Tags whose manifest key exists, sorted."""
        with self._lock:
            return sorted(
                {key.split("/", 1)[0] for key in self._objects
                 if key.endswith(f"/{_MANIFEST_KEY}")}
            )

    def delete_checkpoint(self, tag: str) -> None:
        """Delete every object under ``tag/`` (no-op when absent)."""
        prefix = f"{tag}/"
        with self._lock:
            for key in [key for key in self._objects if key.startswith(prefix)]:
                del self._objects[key]

    def total_bytes(self, tag: str) -> int:
        """Sum of shard object sizes of a checkpoint."""
        prefix = f"{tag}/"
        with self._lock:
            return sum(len(payload) for key, payload in self._objects.items()
                       if key.startswith(prefix) and key.endswith(_SHARD_SUFFIX))


def _encode_manifest(manifest: Dict) -> bytes:
    return json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")


def _decode_manifest(payload: bytes) -> Dict:
    return json.loads(payload.decode("utf-8"))
