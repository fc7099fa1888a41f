"""Content-addressed multi-tenant checkpoint store (registry name ``cas``).

:class:`CASStore` wraps any inner :class:`~repro.io.ShardStore` and changes
the storage model from whole-shard blobs to **fixed-size chunks keyed by
content hash**, shared across every checkpoint and every tenant:

* **Chunk pool** — ``write_shard`` cuts the incoming byte stream at fixed
  ``chunk_bytes`` boundaries without re-buffering it: a chunk is a list of
  views of the incoming pieces, SHA-256-hashed and handed to the backend as
  they are (the only copy is the tail of a recyclable view that does not
  complete a chunk), and uploaded only when its hash is not already in the
  pool (one inner tag per chunk, so the pool works over any backend's
  required core — no mmap/pwrite needed).
  Consecutive checkpoints of slowly-changing state therefore dedup
  automatically: unchanged tensor regions produce identical chunks.
* **Namespaces** — one shared pool serves many jobs.  A :meth:`namespace`
  handle scopes tags, manifests, listings, and an optional byte quota to one
  ``job_id`` while chunk storage (and dedup) stays global, so two jobs
  checkpointing the same base model share bytes.
* **Manifest schema v3** — at commit time the per-shard chunk lists are
  injected into the manifest (``chunks: [[hash, nbytes], ...]`` per record),
  making every committed checkpoint self-describing: restores, refcount
  rebuilds, and cross-job GC all read only committed manifests.
* **Incremental checkpoints** — :meth:`record_shard_reference` lets an
  engine whose dirty scan (per-tensor CRC32s against the previous committed
  manifest, see ``CheckpointPolicy.incremental``) proves a shard part
  unchanged record the part by reference: the base checkpoint's chunk list
  is pinned — atomically with the sweeper, and only if every chunk is still
  in the pool — and re-used without re-hashing or re-uploading a single byte.
* **Refcounted two-phase GC** — a persistent chunk refcount index
  (``cas-refcounts`` under the inner store) is incremented on commit and
  decremented on prune; :meth:`sweep_unreferenced` deletes unreferenced
  chunks.  Writers pin chunks (under the same lock the sweeper re-checks)
  between first-use and commit, so a concurrent save re-referencing a chunk
  mid-sweep can never lose it.  Crash ordering is leak-safe, never
  lose-safe: refcounts are persisted *before* a manifest publish and the
  inner tag is deleted *before* a prune's decrement, so a crash strands at
  most garbage chunks (reclaimed by :meth:`rebuild_refcounts` + sweep) and
  can never under-count a live one.

The store intentionally exposes neither ``create_shard_writer`` nor
``open_shard_mmap`` — every engine falls back to the streaming write path and
the loader to whole-shard (chunk-reassembled, hash-verified) reads, which is
what routes every byte through the content-addressing layer.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..exceptions import CheckpointError, ConfigurationError, ConsistencyError
from .filestore import WriteReceipt, _check_range, _landing_view

#: Default content-chunk size.  Small enough that a localized update (one
#: optimizer slice) dirties few chunks, large enough that per-chunk metadata
#: stays negligible against shard payloads.
DEFAULT_CHUNK_BYTES = 4 * 1024 * 1024

#: Default tenant for stores built without an explicit job id.
DEFAULT_NAMESPACE = "default"

#: Inner tag holding the persistent chunk refcount index.
INDEX_TAG = "cas-refcounts"

_CHUNK_TAG_PREFIX = "cas-chunk-"

#: Inner shard name under which each chunk tag stores its one payload.
CHUNK_SHARD_NAME = "chunk"
_NAMESPACE_TAG_PREFIX = "ns-"
_NAMESPACE_SEP = "--"

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _validate_namespace(job_id: str) -> str:
    job = str(job_id)
    if not _NAME_RE.fullmatch(job) or _NAMESPACE_SEP in job:
        raise ConfigurationError(
            f"invalid namespace {job_id!r}: use letters, digits, '.', '_' and "
            f"single '-' separators (no '--', no path separators)"
        )
    return job


def chunk_tag(chunk_hash: str) -> str:
    """Inner-store tag under which one content chunk is stored."""
    return f"{_CHUNK_TAG_PREFIX}{chunk_hash}"


@dataclass
class _ShardChunks:
    """Chunk list of one (tag, shard) pair plus its logical size."""

    chunks: Tuple[Tuple[str, int], ...]
    nbytes: int
    #: Staged by ``record_shard_reference`` (counted in ``chunks_referenced``).
    referenced: bool = False


class _CASCore:
    """State shared by every namespace handle of one chunk pool.

    Owns the inner store, the chunk refcount index, the pin table protecting
    in-flight (uncommitted) chunk uses from the sweeper, the pending
    per-checkpoint chunk lists, and the dedup byte counters.
    """

    def __init__(self, inner, chunk_bytes: int) -> None:
        if chunk_bytes <= 0:
            raise ConfigurationError("chunk_bytes must be positive")
        self.inner = inner
        self.chunk_bytes = int(chunk_bytes)
        self.lock = threading.RLock()
        #: Committed references per chunk hash (persisted; positive only).
        self.refcounts: Dict[str, int] = {}
        #: Uncommitted uses per chunk hash — held between a writer's first
        #: use of a chunk and the commit/prune of its checkpoint; the sweeper
        #: never deletes a pinned chunk.
        self.pins: Dict[str, int] = {}
        #: Hashes known to be durably present in the inner pool.
        self.durable: set = set()
        #: Uncommitted chunk lists: inner tag -> shard name -> chunk list.
        self.pending: Dict[str, Dict[str, _ShardChunks]] = {}
        #: Committed chunk lists (cache of manifest contents).
        self.committed: Dict[str, Dict[str, _ShardChunks]] = {}
        # Dedup/byte counters (see CASStore.dedup_metrics).
        self.bytes_logical = 0
        self.bytes_written = 0
        self.chunks_written = 0
        self.chunks_deduped = 0
        self.chunks_referenced = 0
        self.chunks_swept = 0
        self._load_index()

    # -- index persistence ---------------------------------------------------
    def _load_index(self) -> None:
        try:
            data = self.inner.read_manifest(INDEX_TAG)
        except (CheckpointError, OSError):
            self.rebuild_refcounts(persist=False)
            return
        counts = data.get("refcounts", {})
        self.refcounts = {str(h): int(c) for h, c in counts.items() if int(c) > 0}
        self.durable = set(self.refcounts)

    def persist_index(self) -> None:
        """Atomically persist the refcount index through the inner store."""
        with self.lock:
            counts = {h: c for h, c in self.refcounts.items() if c > 0}
        try:
            self.inner.write_manifest(INDEX_TAG, {"refcounts": counts})
        except CheckpointError:
            raise
        except OSError as exc:
            raise CheckpointError(f"persisting chunk refcount index failed: {exc}") from exc

    def rebuild_refcounts(self, persist: bool = True) -> Dict[str, int]:
        """Reconstruct the refcount index from every committed manifest.

        The crash-recovery path: committed manifests are the ground truth of
        which chunks are referenced, so a lost or stale index is rebuilt by
        re-counting their chunk lists (across *all* namespaces).
        """
        counts: Dict[str, int] = {}
        for inner_tag in self.inner.list_committed_checkpoints():
            if not inner_tag.startswith(_NAMESPACE_TAG_PREFIX):
                continue
            try:
                data = self.inner.read_manifest(inner_tag)
            except (CheckpointError, OSError):
                continue
            for record in data.get("shards", []):
                for chunk_hash, _nbytes in record.get("chunks") or []:
                    counts[chunk_hash] = counts.get(chunk_hash, 0) + 1
        with self.lock:
            self.refcounts = counts
            self.durable |= set(counts)
        if persist:
            self.persist_index()
        return dict(counts)

    # -- chunk pool ----------------------------------------------------------
    def pin(self, chunk_hash: str) -> bool:
        """Pin one chunk use; returns whether the chunk is already durable."""
        with self.lock:
            self.pins[chunk_hash] = self.pins.get(chunk_hash, 0) + 1
            return self.refcounts.get(chunk_hash, 0) > 0 or chunk_hash in self.durable

    def unpin_all(self, shard_lists: Iterable[_ShardChunks]) -> None:
        with self.lock:
            for entry in shard_lists:
                for chunk_hash, _nbytes in entry.chunks:
                    left = self.pins.get(chunk_hash, 0) - 1
                    if left > 0:
                        self.pins[chunk_hash] = left
                    else:
                        self.pins.pop(chunk_hash, None)

    def stage(self, inner_tag: str, shard_name: str, entry: _ShardChunks) -> None:
        """Make ``entry`` the pending chunk list of one shard.  An entry it
        replaces (a retried write, a reference turned write) gives back its
        pins and its share of the logical-byte / reference counters."""
        with self.lock:
            shards = self.pending.setdefault(inner_tag, {})
            stale = shards.get(shard_name)
            shards[shard_name] = entry
            for item, sign in ((entry, 1), (stale, -1)):
                if item is not None:
                    self.bytes_logical += sign * item.nbytes
                    self.chunks_referenced += sign * item.referenced * len(item.chunks)
        if stale is not None:
            self.unpin_all([stale])

    def upload_chunk(self, chunk_hash: str, pieces: List[Union[bytes, memoryview]],
                     nbytes: int) -> None:
        try:
            self.inner.write_shard(chunk_tag(chunk_hash), CHUNK_SHARD_NAME, pieces)
        except CheckpointError:
            raise
        except OSError as exc:
            raise CheckpointError(
                f"chunk upload {chunk_hash[:12]}... failed: {exc}") from exc
        with self.lock:
            self.durable.add(chunk_hash)
            self.bytes_written += nbytes
            self.chunks_written += 1

    def fetch_chunk(self, chunk_hash: str, nbytes: int, out=None):
        """Read one chunk back — into ``out`` when given — verifying its size
        and content hash where it landed (the one check of every chunk read)."""
        try:
            payload = self.inner.read_shard(chunk_tag(chunk_hash), CHUNK_SHARD_NAME,
                                            out=out)
        except CheckpointError:
            raise
        except OSError as exc:
            raise CheckpointError(
                f"chunk read {chunk_hash[:12]}... failed: {exc}") from exc
        if len(payload) != nbytes:
            raise ConsistencyError(
                f"chunk {chunk_hash[:12]}... is {len(payload)} bytes, "
                f"expected {nbytes} (torn chunk?)")
        actual = hashlib.sha256(payload).hexdigest()
        if actual != chunk_hash:
            raise ConsistencyError(
                f"chunk content hash mismatch: expected {chunk_hash[:12]}..., "
                f"stored payload hashes to {actual[:12]}...")
        return payload

    def shard_chunks(self, inner_tag: str, shard_name: str) -> _ShardChunks:
        """Chunk list of one shard: committed manifest first, then pending."""
        entry = self.committed_shards(inner_tag, required=False).get(shard_name)
        if entry is None:
            with self.lock:
                entry = self.pending.get(inner_tag, {}).get(shard_name)
        if entry is None:
            raise CheckpointError(
                f"shard {shard_name!r} of checkpoint {inner_tag!r} does not exist")
        return entry

    def committed_shards(self, inner_tag: str,
                         required: bool = True) -> Dict[str, _ShardChunks]:
        """Per-shard chunk lists of one committed checkpoint (cached)."""
        with self.lock:
            cached = self.committed.get(inner_tag)
        if cached is not None:
            return cached
        try:
            data = self.inner.read_manifest(inner_tag)
        except (CheckpointError, OSError):
            if required:
                raise
            return {}
        shards = {}
        for record in data.get("shards", []):
            chunks = tuple((str(h), int(n)) for h, n in record.get("chunks") or [])
            shards[str(record["name"])] = _ShardChunks(
                chunks=chunks, nbytes=int(record["nbytes"]))
        with self.lock:
            self.committed[inner_tag] = shards
        return shards


class CASStore:
    """A namespace-bound view over one content-addressed chunk pool.

    Implements the full :class:`~repro.io.ShardStore` protocol for one
    tenant; :meth:`namespace` hands out sibling views over the same pool, so
    a multi-tenant service is one ``CASStore`` plus one handle per job.
    """

    def __init__(self, inner, namespace: str = DEFAULT_NAMESPACE,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 quota_bytes: Optional[int] = None,
                 fsync: bool = False, _core: Optional[_CASCore] = None) -> None:
        # ``fsync`` is accepted for factory-signature parity; durability is
        # the inner backend's concern (it already honoured its own flag).
        if isinstance(inner, CASStore):
            raise ConfigurationError("the 'cas' store cannot wrap itself")
        self._core = _core if _core is not None else _CASCore(inner, chunk_bytes)
        self.job_id = _validate_namespace(namespace)
        if quota_bytes is not None and quota_bytes <= 0:
            raise ConfigurationError("quota_bytes must be positive (or None)")
        #: Optional per-namespace logical-byte quota, enforced at commit.
        self.quota_bytes = quota_bytes

    # -- namespace plumbing --------------------------------------------------
    @property
    def inner(self):
        """The wrapped backend holding chunks, manifests, and the index."""
        return self._core.inner

    @property
    def chunk_bytes(self) -> int:
        return self._core.chunk_bytes

    def namespace(self, job_id: str, quota_bytes: Optional[int] = None) -> "CASStore":
        """A sibling view scoped to ``job_id`` over the same chunk pool."""
        return CASStore(self._core.inner, namespace=job_id,
                        quota_bytes=quota_bytes, _core=self._core)

    def _tag(self, tag: str) -> str:
        tag = str(tag)
        if "/" in tag or not tag:
            raise CheckpointError(f"invalid checkpoint tag {tag!r}")
        return f"{_NAMESPACE_TAG_PREFIX}{self.job_id}{_NAMESPACE_SEP}{tag}"

    def _untag(self, inner_tag: str) -> Optional[str]:
        prefix = f"{_NAMESPACE_TAG_PREFIX}{self.job_id}{_NAMESPACE_SEP}"
        return inner_tag[len(prefix):] if inner_tag.startswith(prefix) else None

    # -- writes --------------------------------------------------------------
    def write_shard(self, tag: str, shard_name: str,
                    chunks: Iterable[Union[bytes, memoryview]]) -> WriteReceipt:
        """Re-chunk the byte stream, upload pool-missing chunks, stage the list.

        The stream is cut at fixed ``chunk_bytes`` boundaries into lists of
        views of the incoming pieces — hashed and uploaded as they are.  A
        ``memoryview`` piece may be recycled by its producer once the next is
        pulled, so the tail of one that does not complete a chunk is copied
        (the only copy); ``bytes`` pieces are kept by reference.  Each chunk
        is pinned (against the sweeper) before its existence check, uploaded
        only when the pool lacks it, and recorded in the pending chunk list
        that :meth:`write_manifest` later injects into the manifest as
        schema v3.
        """
        core = self._core
        inner_tag = self._tag(tag)
        piece_list: List[Tuple[str, int]] = []
        total = 0
        # The chunk being cut: its pieces, its bytes so far, their running hash.
        pieces: List[Union[bytes, memoryview]] = []
        filled = 0
        digest = hashlib.sha256()

        def land() -> None:
            chunk_hash = digest.hexdigest()
            present = core.pin(chunk_hash)
            piece_list.append((chunk_hash, filled))
            if present:
                with core.lock:
                    core.chunks_deduped += 1
            else:
                core.upload_chunk(chunk_hash, pieces, filled)

        try:
            for chunk in chunks:
                view = memoryview(chunk)
                # (an empty N-d view cannot be cast)
                view = view.cast("B") if view.nbytes else memoryview(b"")
                total += len(view)
                while len(view):
                    piece = view[:core.chunk_bytes - filled]
                    view = view[len(piece):]
                    digest.update(piece)
                    filled += len(piece)
                    if filled == core.chunk_bytes:
                        pieces.append(piece)
                        land()
                        pieces, filled, digest = [], 0, hashlib.sha256()
                    else:
                        pieces.append(piece if isinstance(chunk, bytes) else bytes(piece))
            if filled:
                land()
        except BaseException:
            # Roll back this shard's pins so an aborted write never blocks
            # the sweeper forever.
            core.unpin_all([_ShardChunks(chunks=tuple(piece_list), nbytes=total)])
            raise

        core.stage(inner_tag, shard_name,
                   _ShardChunks(chunks=tuple(piece_list), nbytes=total))
        return WriteReceipt(path=PurePosixPath(f"{inner_tag}/{shard_name}"),
                            nbytes=total)

    def record_shard_reference(self, tag: str, shard_name: str, base_tag: str) -> int:
        """Record ``tag/shard_name`` as a reference to the identical shard of
        committed checkpoint ``base_tag`` — the incremental-save fast path.

        The base chunk list is pinned without touching a single payload byte;
        the commit then refcounts the same chunks for the new checkpoint.
        The whole list is pinned in one critical section with the sweeper,
        and only if every chunk is still in the pool: a base deleted and
        swept by another thread raises :class:`CheckpointError` (no pin
        kept) instead of committing a manifest that names swept chunks.
        """
        core = self._core
        base_entry = core.committed_shards(self._tag(base_tag)).get(shard_name)
        if base_entry is None:
            raise CheckpointError(
                f"cannot reference shard {shard_name!r}: committed checkpoint "
                f"{base_tag!r} has no such shard")
        with core.lock:
            for position, (chunk_hash, _nbytes) in enumerate(base_entry.chunks):
                if not core.pin(chunk_hash):
                    core.unpin_all([_ShardChunks(base_entry.chunks[:position + 1], 0)])
                    raise CheckpointError(
                        f"cannot reference shard {shard_name!r}: chunk "
                        f"{chunk_hash[:12]}... of checkpoint {base_tag!r} is no "
                        f"longer in the pool")
        core.stage(self._tag(tag), shard_name, _ShardChunks(
            chunks=base_entry.chunks, nbytes=base_entry.nbytes, referenced=True))
        return base_entry.nbytes

    def write_manifest(self, tag: str, manifest: Dict) -> object:
        """Inject chunk lists (schema v3), refcount, and atomically commit.

        Two-phase crash ordering: the refcount index is persisted *before*
        the manifest publish, so a crash in between over-counts (stranding
        reclaimable garbage) but never under-counts a live chunk.
        """
        core = self._core
        inner_tag = self._tag(tag)
        with core.lock:
            pending = dict(core.pending.get(inner_tag, {}))

        data = dict(manifest)
        records = []
        entries_used: List[_ShardChunks] = []
        for record in manifest.get("shards", []):
            record = dict(record)
            entry = pending.get(str(record["name"]))
            if entry is None:
                raise CheckpointError(
                    f"shard {record['name']!r} of {tag!r} was never written "
                    f"through the CAS store (nothing to commit)")
            record["chunks"] = [[h, int(n)] for h, n in entry.chunks]
            records.append(record)
            entries_used.append(entry)
        data["shards"] = records
        data["version"] = 3

        self._check_quota(tag, sum(entry.nbytes for entry in entries_used))

        with core.lock:
            for entry in entries_used:
                for chunk_hash, _nbytes in entry.chunks:
                    core.refcounts[chunk_hash] = core.refcounts.get(chunk_hash, 0) + 1
        try:
            core.persist_index()
            receipt = core.inner.write_manifest(inner_tag, data)
        except BaseException:
            with core.lock:
                for entry in entries_used:
                    for chunk_hash, _nbytes in entry.chunks:
                        left = core.refcounts.get(chunk_hash, 0) - 1
                        if left > 0:
                            core.refcounts[chunk_hash] = left
                        else:
                            core.refcounts.pop(chunk_hash, None)
            try:
                core.persist_index()
            except Exception:  # noqa: BLE001 - rollback is best effort
                pass
            raise
        with core.lock:
            staged = core.pending.pop(inner_tag, {})
            core.committed[inner_tag] = {
                name: entry for name, entry in staged.items()}
        core.unpin_all(staged.values())
        return receipt

    def _check_quota(self, tag: str, new_bytes: int) -> None:
        if self.quota_bytes is None:
            return
        used = sum(self.total_bytes(existing)
                   for existing in self.list_committed_checkpoints()
                   if existing != tag)
        if used + new_bytes > self.quota_bytes:
            raise CheckpointError(
                f"namespace {self.job_id!r} quota exceeded: committing "
                f"{tag!r} needs {used + new_bytes} logical bytes "
                f"> quota {self.quota_bytes}")

    # -- reads ---------------------------------------------------------------
    def read_shard(self, tag: str, shard_name: str, out=None):
        """Reassemble one shard from its chunks, hash-verifying each piece.

        With ``out`` every chunk is read by the inner store straight into its
        slice of it and verified in place: no per-chunk ``bytes``, no join.
        """
        entry = self._core.shard_chunks(self._tag(tag), shard_name)
        if out is None:
            return b"".join([self._core.fetch_chunk(chunk_hash, nbytes)
                             for chunk_hash, nbytes in entry.chunks])
        view = _landing_view(tag, shard_name, out, entry.nbytes)
        position = 0
        for chunk_hash, nbytes in entry.chunks:
            self._core.fetch_chunk(chunk_hash, nbytes,
                                   out=view[position:position + nbytes])
            position += nbytes
        return view[:position]

    def read_shard_range(self, tag: str, shard_name: str,
                         offset: int, length: int) -> bytes:
        """Ranged read assembled from only the chunks covering the range."""
        entry = self._core.shard_chunks(self._tag(tag), shard_name)
        _check_range(tag, shard_name, offset, length, entry.nbytes)
        pieces = []
        position = 0
        end = offset + length
        for chunk_hash, nbytes in entry.chunks:
            chunk_start, chunk_end = position, position + nbytes
            position = chunk_end
            if chunk_end <= offset:
                continue
            if chunk_start >= end:
                break
            payload = self._core.fetch_chunk(chunk_hash, nbytes)
            pieces.append(payload[max(0, offset - chunk_start):
                                  min(nbytes, end - chunk_start)])
        return b"".join(pieces)

    def read_manifest(self, tag: str) -> Dict:
        try:
            return self._core.inner.read_manifest(self._tag(tag))
        except CheckpointError:
            raise CheckpointError(
                f"checkpoint {tag!r} has no manifest in namespace "
                f"{self.job_id!r} (never committed?)") from None

    def shard_size(self, tag: str, shard_name: str) -> int:
        return self._core.shard_chunks(self._tag(tag), shard_name).nbytes

    # -- management ----------------------------------------------------------
    def list_checkpoints(self) -> List[str]:
        tags = set()
        for inner_tag in self._core.inner.list_committed_checkpoints():
            tag = self._untag(inner_tag)
            if tag is not None:
                tags.add(tag)
        with self._core.lock:
            for inner_tag in self._core.pending:
                tag = self._untag(inner_tag)
                if tag is not None:
                    tags.add(tag)
        return sorted(tags)

    def list_committed_checkpoints(self) -> List[str]:
        return sorted(
            tag for tag in (self._untag(inner_tag) for inner_tag in
                            self._core.inner.list_committed_checkpoints())
            if tag is not None)

    def delete_checkpoint(self, tag: str) -> None:
        """Prune one checkpoint: phase one of the two-phase GC.

        The inner tag (manifest) is deleted *first*, then the refcounts are
        decremented and persisted — a crash in between leaks chunks (safe)
        instead of under-counting live ones.  Actual chunk deletion is
        deferred to :meth:`sweep_unreferenced`.
        """
        core = self._core
        inner_tag = self._tag(tag)
        with core.lock:
            staged = core.pending.pop(inner_tag, None)
        if staged:
            core.unpin_all(staged.values())
        shards = core.committed_shards(inner_tag, required=False)
        core.inner.delete_checkpoint(inner_tag)
        with core.lock:
            core.committed.pop(inner_tag, None)
            for entry in shards.values():
                for chunk_hash, _nbytes in entry.chunks:
                    left = core.refcounts.get(chunk_hash, 0) - 1
                    if left > 0:
                        core.refcounts[chunk_hash] = left
                    else:
                        core.refcounts.pop(chunk_hash, None)
        if shards:
            core.persist_index()

    def sweep_unreferenced(self) -> int:
        """Phase two of the GC: delete every unreferenced, unpinned chunk.

        Candidates come from the inner store's actual chunk tags (so orphans
        from crashes are found too); each candidate is re-checked — and its
        inner tag deleted — under the pool lock, so a writer pinning the same
        chunk mid-sweep either pins it before the re-check (the sweep skips
        it) or after the delete (the exists-check then re-uploads it).
        """
        core = self._core
        removed = 0
        for inner_tag in core.inner.list_checkpoints():
            if not inner_tag.startswith(_CHUNK_TAG_PREFIX):
                continue
            chunk_hash = inner_tag[len(_CHUNK_TAG_PREFIX):]
            with core.lock:
                if core.refcounts.get(chunk_hash, 0) > 0:
                    continue
                if core.pins.get(chunk_hash, 0) > 0:
                    continue
                core.durable.discard(chunk_hash)
                core.refcounts.pop(chunk_hash, None)
                core.inner.delete_checkpoint(inner_tag)
                core.chunks_swept += 1
                removed += 1
        if removed:
            core.persist_index()
        return removed

    def rebuild_refcounts(self) -> Dict[str, int]:
        """Crash recovery: rebuild the refcount index from committed manifests."""
        return self._core.rebuild_refcounts()

    def total_bytes(self, tag: str) -> int:
        inner_tag = self._tag(tag)
        shards = self._core.committed_shards(inner_tag, required=False)
        if not shards:
            with self._core.lock:
                shards = dict(self._core.pending.get(inner_tag, {}))
        return sum(entry.nbytes for entry in shards.values())

    # -- introspection -------------------------------------------------------
    def refcount(self, chunk_hash: str) -> int:
        """Committed references of one chunk (0 when unreferenced)."""
        with self._core.lock:
            return self._core.refcounts.get(chunk_hash, 0)

    def pool_chunks(self) -> List[str]:
        """Hashes of every chunk physically present in the inner pool."""
        return sorted(
            inner_tag[len(_CHUNK_TAG_PREFIX):]
            for inner_tag in self._core.inner.list_checkpoints()
            if inner_tag.startswith(_CHUNK_TAG_PREFIX))

    def dedup_metrics(self) -> Dict[str, float]:
        """Byte/dedup counters of the shared pool (all namespaces)."""
        core = self._core
        with core.lock:
            logical = core.bytes_logical
            written = core.bytes_written
            return {
                "bytes_logical": logical,
                "bytes_written": written,
                "chunks_written": core.chunks_written,
                "chunks_deduped": core.chunks_deduped,
                "chunks_referenced": core.chunks_referenced,
                "chunks_swept": core.chunks_swept,
                "dedup_ratio": written / logical if logical else 1.0,
            }
