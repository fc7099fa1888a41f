"""Tiered checkpoint storage: an N-level tier chain with async per-link drains.

The paper frames checkpointing as a lazy multilevel pipeline — GPU -> pinned
host -> node-local storage -> parallel FS -> object store — and
:class:`TierChain` models exactly that: an **ordered list** of
:class:`TierLevel` (each a registered :class:`~repro.io.ShardStore` plus an
optional byte capacity, watermark, and drain-worker budget) where

* **commits land on level 0** — shards, parallel shard writers, and the
  commit manifest all hit the fastest tier, so training unblocks at
  local-disk speed;
* a background **per-link drain pipeline** moves every committed checkpoint
  down the chain one link at a time (level 0 -> 1 -> ... -> N-1), copying
  every shard part first and publishing the manifest *last* on each level,
  so every level inherits the same commit invariant as every backend: a
  checkpoint is restorable from a level if and only if its manifest exists
  there;
* restores are **nearest-level-first** — reads walk the chain from level 0
  and serve from the shallowest level holding the data, and a hit on a
  deeper level **promotes on read**: the just-fetched part is re-warmed into
  every level above the hit (manifest republished per level once all parts
  are back, manifest-last again);
* **eviction is watermark-driven per level**: once a checkpoint has reached
  a deeper level, its copy on a capacity-bounded shallower level becomes
  evictable, and levels are trimmed oldest-first back below
  ``watermark * capacity_bytes`` (levels without a capacity fall back to the
  legacy ``keep_local_latest`` count on level 0 only);
* **backpressure** replaces overflow: when level 0 sits above its high
  watermark, ``write_shard`` / ``create_shard_writer`` block (bounded by
  ``backpressure_timeout_s``, with the blocked time accumulated in the
  ``drain_wait_ms`` counter surfaced through ``drain_metrics()`` and engine
  stats) until drains + eviction free headroom — the paper's "slow the
  trainer instead of losing the fast tier".

Per-checkpoint progress is tracked as a **residency set** (which levels hold
a committed copy) generalizing the two-tier drain state machine; the legacy
states are derived views of it::

    LOCAL       residency == {0} and no worker active
    DRAINING    a drain worker is walking the chain right now
    REPLICATED  the deepest level is in the residency set

A crash mid-drain leaves the target level uncommitted (torn parts, no
manifest) while shallower levels still restore; the next construction over
the same stores **resumes idempotently**, skipping parts whose copy on the
target already matches by size.  Residency is cached in a small JSON
**tier-index sidecar** (``tier-index.json`` next to level 0's checkpoint
directories, when that backend is directory-backed); the sidecar is a cache
— on startup it is reconciled against the levels themselves, which stay the
source of truth, and its legacy ``{"state", "sequence", "local"}`` entry
shape is preserved (two-element chains stay byte-layout compatible with the
pre-chain two-tier store).

``delete_checkpoint`` operates **cross-level** (and waits out an in-flight
drain of the tag), so garbage collection never strands keys on any backend.
"""

from __future__ import annotations

import enum
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..exceptions import CheckpointError
from ..logging_utils import get_logger
from ..units import parse_bytes
from .filestore import MappedShard, WriteReceipt, publish_file
from .store import supports_mmap, supports_ranged_reads

logger = get_logger(__name__)

#: Chunk size used when streaming a shard from one level to the next.
_DRAIN_CHUNK_BYTES = 32 * 1024 * 1024

#: File name of the tier-index sidecar inside level 0's root.
TIER_INDEX_NAME = "tier-index.json"

#: Default number of background drain workers per link.
DEFAULT_DRAIN_WORKERS = 2

#: Default count-based eviction watermark: how many of the newest replicated
#: checkpoints keep their level-0 copy for quick restarts.
DEFAULT_KEEP_LOCAL_LATEST = 1

#: Default number of drain retries after a transient deeper-level failure — a
#: checkpoint only leaves DRAINING on success or once the retries are
#: exhausted.
DEFAULT_DRAIN_RETRIES = 2

#: Default base delay (seconds) of the drain's exponential backoff: attempt
#: ``k`` (0-based) sleeps ``drain_backoff_s * 2**k`` before retrying.
DEFAULT_DRAIN_BACKOFF_S = 0.05

#: Default high watermark: a level is trimmed back below this fraction of
#: its capacity, and commits block while level 0 sits above it.
DEFAULT_TIER_WATERMARK = 0.9

#: Upper bound on how long one commit may block on backpressure before the
#: write fails loudly (overflowing the fast tier is never the fallback).
DEFAULT_BACKPRESSURE_TIMEOUT_S = 60.0


class DrainState(str, enum.Enum):
    """Where one committed checkpoint sits in the drain pipeline.

    With an N-level chain these are derived views of the per-level residency
    set (see the module docstring); the three-state machine is kept as the
    stable operator-facing summary.
    """

    #: Not yet fully drained; waiting for (or retrying) its next link.
    LOCAL = "local"
    #: A drain worker is walking it down the chain right now.
    DRAINING = "draining"
    #: Fully present (manifest included) on the deepest level.
    REPLICATED = "replicated"


@dataclass
class TierLevel:
    """One level of a :class:`TierChain`: a store plus its drain policy.

    ``capacity_bytes`` bounds the level (``None`` = unbounded, never evicted
    by watermark); ``watermark`` is the high-water fraction of that capacity
    eviction trims back below (and, on level 0, the commit-backpressure
    threshold); ``drain_workers`` bounds concurrent drains *out of* this
    level (``None`` inherits the chain default).
    """

    store: object
    name: Optional[str] = None
    capacity_bytes: Optional[int] = None
    drain_workers: Optional[int] = None
    watermark: float = DEFAULT_TIER_WATERMARK

    def __post_init__(self) -> None:
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise CheckpointError("TierLevel.capacity_bytes must be positive (or None)")
        if self.drain_workers is not None and self.drain_workers <= 0:
            raise CheckpointError("TierLevel.drain_workers must be positive (or None)")
        if not 0.0 < self.watermark <= 1.0:
            raise CheckpointError("TierLevel.watermark must be in (0, 1]")


@dataclass(frozen=True)
class TierChainLevelSpec:
    """One parsed level of a ``--tiers`` chain spec (see
    :func:`parse_tier_chain_spec`)."""

    name: str
    backend: str
    root: Optional[str] = None
    capacity_bytes: Optional[int] = None
    watermark: Optional[float] = None


def _parse_capacity_token(token: str) -> Optional[Tuple[int, Optional[float]]]:
    """Try to read a ``50GiB`` / ``50GiB@0.8`` capacity token; None if it
    doesn't look like one (then it is a root path)."""
    text, watermark = token, None
    if "@" in token:
        text, _, fraction = token.partition("@")
        try:
            watermark = float(fraction)
        except ValueError:
            return None
    if not text or not text[0].isdigit():
        return None
    try:
        return parse_bytes(text), watermark
    except ValueError:
        return None


def parse_tier_chain_spec(spec: str) -> List[TierChainLevelSpec]:
    """Parse a ``--tiers`` chain spec into per-level entries.

    The grammar is ``name:backend[:root][:capacity[@watermark]]`` per level,
    comma-separated, e.g.::

        nvme:file:/local/nvme:50GiB,pfs:file:/lustre/ckpts,object:object

    ``root`` is optional (the store factory derives one from the chain root
    and the level name); ``capacity`` takes byte-size suffixes (``50GiB``,
    ``1.5GB``) with an optional ``@fraction`` high watermark.
    """
    from ..exceptions import ConfigurationError

    entries: List[TierChainLevelSpec] = []
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        fields = [f.strip() for f in part.split(":")]
        if len(fields) < 2 or not fields[0] or not fields[1]:
            raise ConfigurationError(
                f"bad tier spec {part!r}: expected name:backend[:root][:capacity[@watermark]]")
        name, backend = fields[0], fields[1]
        root: Optional[str] = None
        capacity: Optional[int] = None
        watermark: Optional[float] = None
        for token in fields[2:]:
            if not token:
                continue
            parsed = _parse_capacity_token(token)
            if parsed is not None:
                capacity, watermark = parsed
            elif root is None:
                root = token
            else:
                raise ConfigurationError(
                    f"bad tier spec {part!r}: more than one root path")
        entries.append(TierChainLevelSpec(name=name, backend=backend, root=root,
                                          capacity_bytes=capacity,
                                          watermark=watermark))
    if len(entries) < 2:
        raise ConfigurationError(
            f"a tier chain needs at least two levels, got {len(entries)} in {spec!r}")
    seen = set()
    for entry in entries:
        if entry.name in seen:
            raise ConfigurationError(f"duplicate tier level name {entry.name!r}")
        seen.add(entry.name)
    return entries


@dataclass
class _DrainJob:
    """Book-keeping of one checkpoint's journey down the chain."""

    tag: str
    sequence: int
    #: Level indices holding a committed (manifest-visible) copy.
    residency: set = field(default_factory=lambda: {0})
    state: DrainState = DrainState.LOCAL
    done: threading.Event = field(default_factory=threading.Event)
    error: Optional[BaseException] = None
    parts_copied: int = 0
    parts_skipped: int = 0
    bytes_copied: int = 0

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable sidecar entry.

        The legacy ``state``/``sequence``/``local`` keys keep two-element
        chains byte-layout compatible with the pre-chain sidecar; ``levels``
        is the generalized residency set.
        """
        return {"state": self.state.value, "sequence": self.sequence,
                "local": 0 in self.residency,
                "levels": sorted(self.residency)}


class _HeapShard(MappedShard):
    """A :class:`MappedShard`-compatible wrapper over heap bytes.

    The loader's zero-copy restore path expects ``open_shard_mmap`` to return
    an object with ``.data``/``.close()``; when no mappable level holds the
    shard, the deeper level's payload is handed back in this wrapper and the
    restore degrades gracefully to a heap read.
    """

    def __init__(self, payload: bytes) -> None:  # noqa: D107 - see class doc
        self.path = None
        self.data = payload

    def close(self) -> None:
        self.data = b""


class _AccountingShardWriter:
    """Level-0 shard-writer proxy: accounts committed bytes for capacity
    tracking (the backpressure gate already ran at creation time)."""

    def __init__(self, chain: "TierChain", tag: str, inner) -> None:
        self._chain = chain
        self._tag = tag
        self._inner = inner

    def pwrite(self, offset: int, data) -> int:
        return self._inner.pwrite(offset, data)

    def commit(self) -> WriteReceipt:
        receipt = self._inner.commit()
        self._chain._account(self._tag, 0, receipt.nbytes)
        return receipt

    def abort(self) -> None:
        self._inner.abort()

    def __enter__(self) -> "_AccountingShardWriter":
        self._inner.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        return self._inner.__exit__(exc_type, exc, tb)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TierChain:
    """A :class:`~repro.io.ShardStore` over an ordered chain of tier levels.

    See the module docstring for the commit/drain/evict/promote life cycle.
    ``levels`` is a sequence of :class:`TierLevel` (bare stores are wrapped
    with defaults); chain-level ``drain_workers`` / ``drain_retries`` /
    ``drain_backoff_s`` apply to every link unless a level overrides its
    outgoing worker budget.  ``keep_local_latest`` is the legacy count-based
    eviction watermark applied to level 0 when it has no byte capacity
    (``None`` disables it).
    """

    def __init__(self, levels: Sequence, drain_workers: int = DEFAULT_DRAIN_WORKERS,
                 keep_local_latest: Optional[int] = DEFAULT_KEEP_LOCAL_LATEST,
                 drain_retries: int = DEFAULT_DRAIN_RETRIES,
                 drain_backoff_s: float = DEFAULT_DRAIN_BACKOFF_S,
                 fsync: bool = False, promote_on_read: bool = True,
                 backpressure_timeout_s: float = DEFAULT_BACKPRESSURE_TIMEOUT_S) -> None:
        wrapped = [level if isinstance(level, TierLevel) else TierLevel(level)
                   for level in levels]
        if len(wrapped) < 2:
            raise CheckpointError("a tier chain needs at least two levels")
        stores = [level.store for level in wrapped]
        if len({id(store) for store in stores}) != len(stores):
            raise CheckpointError("every tier level must be a distinct store")
        if drain_workers <= 0:
            raise CheckpointError("drain_workers must be positive")
        if keep_local_latest is not None and keep_local_latest < 0:
            raise CheckpointError("keep_local_latest must be >= 0 (or None)")
        if drain_retries < 0:
            raise CheckpointError("drain_retries must be >= 0")
        if drain_backoff_s < 0:
            raise CheckpointError("drain_backoff_s must be >= 0")
        if backpressure_timeout_s <= 0:
            raise CheckpointError("backpressure_timeout_s must be positive")
        self.levels: List[TierLevel] = wrapped
        self._stores = stores
        self._names = [level.name or f"level{index}"
                       for index, level in enumerate(wrapped)]
        if len(set(self._names)) != len(self._names):
            raise CheckpointError(f"duplicate tier level names: {self._names}")
        self._last = len(wrapped) - 1
        self.drain_workers = int(drain_workers)
        self.keep_local_latest = keep_local_latest
        self.drain_retries = int(drain_retries)
        self.drain_backoff_s = float(drain_backoff_s)
        self.fsync = fsync
        self.promote_on_read = bool(promote_on_read)
        self.backpressure_timeout_s = float(backpressure_timeout_s)
        self._lock = threading.RLock()
        self._space = threading.Condition(self._lock)
        self._jobs: Dict[str, _DrainJob] = {}
        self._deleted: set = set()
        self._sequence = 0
        #: One semaphore per link i (draining level i -> i+1).
        self._link_slots = [
            threading.BoundedSemaphore(level.drain_workers or self.drain_workers)
            for level in wrapped[:-1]
        ]
        self._threads: List[threading.Thread] = []
        #: Capacity accounting is only maintained when some level is bounded
        #: (the unbounded legacy chain pays zero bookkeeping for it).
        self._capacity_aware = any(level.capacity_bytes is not None
                                   for level in wrapped)
        self._level_bytes = [0] * len(wrapped)
        self._tag_bytes: Dict[Tuple[str, int], int] = {}
        # -- metrics ---------------------------------------------------------
        self.drains_completed = 0
        self.drains_resumed = 0
        self.drains_failed = 0
        self.drains_retried = 0
        self.evicted_checkpoints = 0
        self.bytes_drained = 0
        self.drain_seconds_total = 0.0
        self.promoted_parts = 0
        self.promoted_checkpoints = 0
        self.bytes_promoted = 0
        self.drain_wait_ms = 0.0
        self._index_path = self._sidecar_path()
        self._recover()

    # -- chain introspection ---------------------------------------------------
    @property
    def fast(self):
        """Level 0's store (the commit tier; legacy two-tier name)."""
        return self._stores[0]

    @property
    def slow(self):
        """The deepest level's store (legacy two-tier name)."""
        return self._stores[-1]

    @property
    def level_names(self) -> List[str]:
        """Display names of the chain's levels, shallowest first."""
        return list(self._names)

    def residency_names(self, tag: str) -> List[str]:
        """Names of the levels holding a committed copy of ``tag`` (the
        generalized tier index behind ``repro list``'s residency column)."""
        with self._lock:
            job = self._jobs.get(tag)
            if job is None:
                return []
            return [self._names[index] for index in sorted(job.residency)]

    # -- tier-index sidecar ---------------------------------------------------
    def _sidecar_path(self) -> Optional[Path]:
        root = getattr(self._stores[0], "root", None)
        return Path(root) / TIER_INDEX_NAME if root is not None else None

    def _persist_index(self) -> None:
        """Atomically rewrite the sidecar (no-op for root-less level 0).

        Best-effort: the sidecar is a *cache* — a persist failure must never
        fail a save that is already committed on level 0 (or a delete that
        already removed every level), so I/O errors are logged and the
        recovery scan rebuilds residency from the levels themselves.
        """
        if self._index_path is None:
            return
        with self._lock:
            entries = {tag: job.snapshot() for tag, job in self._jobs.items()}
        payload = json.dumps(entries, indent=2, sort_keys=True).encode("utf-8")
        directory = self._index_path.parent
        tmp_name = None
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(prefix=f".{TIER_INDEX_NAME}.",
                                            dir=str(directory))
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            publish_file(tmp_name, self._index_path, directory, fsync=self.fsync)
        except OSError as exc:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            logger.warning("could not persist tier index %s: %s",
                           self._index_path, exc)

    def _recover(self) -> None:
        """Rebuild residency from every level; resume interrupted drains.

        The levels are the source of truth (the sidecar is write-only cache
        for operators): a tag committed on the deepest level is REPLICATED,
        and one whose deepest committed level is shallower needs
        (re)draining — exactly the crash-mid-drain case, where parts may
        already sit on the target level without a manifest.
        """
        committed = [set(store.list_committed_checkpoints())
                     for store in self._stores]

        def commit_order(tag: str):
            # Manifest iteration, not lexicographic tag order (which would
            # rank "iter-10" before "iter-9" and point the keep-local
            # watermark at the wrong checkpoint after a lost sidecar).
            try:
                iteration = int(self.read_manifest(tag).get("iteration", -1))
            except Exception:  # noqa: BLE001 - unreadable manifest: tag order
                iteration = -1
            return (iteration, tag)

        all_tags = set().union(*committed) if committed else set()
        ordered = sorted(all_tags, key=commit_order)
        to_drain = []
        with self._lock:
            for tag in ordered:
                residency = {index for index, tags in enumerate(committed)
                             if tag in tags}
                job = _DrainJob(tag=tag, sequence=self._next_sequence(),
                                residency=residency)
                if self._last in residency:
                    job.state = DrainState.REPLICATED
                    job.done.set()
                else:
                    job.state = DrainState.LOCAL
                    to_drain.append(tag)
                self._jobs[tag] = job
        if self._capacity_aware:
            for index, store in enumerate(self._stores):
                try:
                    tags = store.list_checkpoints()
                except Exception:  # noqa: BLE001 - opportunistic accounting
                    continue
                for tag in tags:
                    try:
                        self._account(tag, index, int(store.total_bytes(tag)))
                    except Exception:  # noqa: BLE001
                        continue
        for tag in to_drain:
            self.drains_resumed += 1
            self._spawn_drain(tag)
        if self._jobs:
            self._persist_index()

    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    # -- capacity accounting and backpressure ----------------------------------
    def _account(self, tag: str, level_index: int, nbytes: int) -> None:
        if not self._capacity_aware or nbytes <= 0:
            return
        with self._lock:
            key = (tag, level_index)
            self._tag_bytes[key] = self._tag_bytes.get(key, 0) + nbytes
            self._level_bytes[level_index] += nbytes

    def _discount(self, tag: str, level_index: int) -> None:
        if not self._capacity_aware:
            return
        with self._lock:
            freed = self._tag_bytes.pop((tag, level_index), 0)
            self._level_bytes[level_index] -= freed
            if freed:
                self._space.notify_all()

    def level_used_bytes(self, level_index: int = 0) -> int:
        """Accounted bytes currently resident on one level (0 when no level
        of the chain has a capacity — accounting is off then)."""
        with self._lock:
            return self._level_bytes[level_index]

    def _gate_commit(self, tag: str, incoming_bytes: int = 0) -> None:
        """Block a level-0 write while the level sits above its watermark.

        The "slow the trainer instead of losing the fast tier" behavior:
        waiting gives in-flight drains time to replicate checkpoints deeper
        so eviction can free headroom.  Bounded by
        ``backpressure_timeout_s`` — on timeout the write fails loudly
        rather than overflowing the level.  Blocked time accumulates in
        ``drain_wait_ms``.
        """
        level = self.levels[0]
        if level.capacity_bytes is None:
            return
        limit = level.watermark * level.capacity_bytes
        started = None
        deadline = time.monotonic() + self.backpressure_timeout_s
        while True:
            with self._lock:
                used = self._level_bytes[0]
                if used <= 0 or used + incoming_bytes <= limit:
                    break
            # Demand-driven eviction: replicated checkpoints may already be
            # evictable without waiting for the next drain's pass.  The
            # incoming size is passed down as required headroom — a large
            # write needs the level trimmed *below* the watermark, or a
            # level sitting just under it would never free enough space.
            try:
                self._evict_pass(level0_headroom=incoming_bytes)
            except Exception as exc:  # noqa: BLE001 - best-effort housekeeping
                logger.warning("eviction under backpressure failed: %s", exc)
            with self._lock:
                used = self._level_bytes[0]
                if used <= 0 or used + incoming_bytes <= limit:
                    break
                if started is None:
                    started = time.monotonic()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.drain_wait_ms += (time.monotonic() - started) * 1000.0
                    raise CheckpointError(
                        f"backpressure timeout: level 0 ({self._names[0]!r}) "
                        f"held {used} bytes against a watermark of "
                        f"{int(limit)} for {self.backpressure_timeout_s:.1f}s "
                        f"while committing {tag!r} — drains cannot keep up")
                self._space.wait(min(remaining, 0.05))
        if started is not None:
            with self._lock:
                self.drain_wait_ms += (time.monotonic() - started) * 1000.0

    # -- writes (level 0) -------------------------------------------------------
    def write_shard(self, tag: str, shard_name: str,
                    chunks: Iterable[Union[bytes, memoryview]]) -> WriteReceipt:
        """Write one shard to level 0 (deeper levels see it at drain time).

        Blocks under backpressure while level 0 sits above its watermark.
        """
        self._gate_commit(tag)
        receipt = self._stores[0].write_shard(tag, shard_name, chunks)
        self._account(tag, 0, receipt.nbytes)
        return receipt

    def create_shard_writer(self, tag: str, shard_name: str, total_bytes: int):
        """Offset-addressed parallel writer on level 0.

        The backpressure gate runs here, at creation (when the incoming size
        is known and no bytes have landed yet); the returned writer accounts
        its bytes at commit.
        """
        self._gate_commit(tag, incoming_bytes=int(total_bytes))
        inner = self._stores[0].create_shard_writer(tag, shard_name, total_bytes)
        if not self._capacity_aware:
            return inner
        return _AccountingShardWriter(self, tag, inner)

    def write_manifest(self, tag: str, manifest: Dict) -> object:
        """Publish the manifest on level 0 and enqueue the drain.

        The level-0 manifest is the training-visible commit point — the call
        returns as soon as the local publish is durable; replication down
        the chain proceeds in the background.
        """
        receipt = self._stores[0].write_manifest(tag, manifest)
        with self._lock:
            # A re-committed tag supersedes any earlier delete tombstone.
            self._deleted.discard(tag)
            self._jobs[tag] = _DrainJob(tag=tag, sequence=self._next_sequence())
        self._persist_index()
        self._spawn_drain(tag)
        return receipt

    # -- the drain pipeline ---------------------------------------------------
    def _spawn_drain(self, tag: str) -> None:
        thread = threading.Thread(target=self._drain, args=(tag,),
                                  name=f"tiered-drain-{tag}", daemon=True)
        with self._lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
            # Started under the lock so close() can never snapshot (and try
            # to join) a published-but-unstarted thread.
            thread.start()

    def _drain(self, tag: str) -> None:
        """Drain worker: walk the checkpoint down the chain link by link.

        Each link copies every part and publishes the manifest last on the
        target level, retrying transient failures with bounded exponential
        backoff.  The checkpoint stays DRAINING across retries — it only
        leaves the state on success (REPLICATED) or once a link's retries
        are exhausted (back to LOCAL, surfaced in
        ``failed_drains``/``wait_drained`` and re-attempted by the next
        construction's recovery scan).
        """
        with self._lock:
            job = self._jobs.get(tag)
            if job is None or tag in self._deleted:
                return
            job.state = DrainState.DRAINING
        try:
            self._persist_index()
            while True:
                with self._lock:
                    if tag in self._deleted:
                        return
                    source = max(job.residency) if job.residency else -1
                    if source >= self._last:
                        break
                    if source < 0:
                        raise CheckpointError(
                            f"checkpoint {tag!r} is resident on no level")
                with self._link_slots[source]:
                    self._drain_link(tag, job, source, source + 1)
                # Eviction is best-effort housekeeping over *other*
                # checkpoints: its own try so a failed delete is logged and
                # retried by a later drain, never poisoning the
                # just-replicated checkpoint's state.
                try:
                    self._evict_pass()
                except Exception as exc:  # noqa: BLE001 - retried next drain
                    logger.warning("tier eviction failed: %s", exc)
            with self._lock:
                job.state = DrainState.REPLICATED
                self.drains_completed += 1
            self._persist_index()
        except BaseException as exc:  # noqa: BLE001 - surfaced via wait_drained
            with self._lock:
                job.error = exc
                job.state = DrainState.LOCAL
                self.drains_failed += 1
            logger.warning("drain of checkpoint %s failed after %d attempt(s): %s",
                           tag, self.drain_retries + 1, exc)
        finally:
            job.done.set()

    def _drain_link(self, tag: str, job: _DrainJob, source: int, target: int) -> None:
        """One link with retries: copy level ``source`` -> ``target``."""
        for attempt in range(self.drain_retries + 1):
            try:
                self._drain_link_once(tag, job, source, target)
                return
            except BaseException as exc:  # noqa: BLE001 - retried below
                if attempt >= self.drain_retries or tag in self._deleted:
                    raise
                with self._lock:
                    self.drains_retried += 1
                delay = self.drain_backoff_s * (2 ** attempt)
                logger.warning(
                    "drain of checkpoint %s over link %s->%s failed "
                    "(attempt %d/%d), retrying in %.3fs: %s", tag,
                    self._names[source], self._names[target], attempt + 1,
                    self.drain_retries + 1, delay, exc)
                if delay > 0:
                    time.sleep(delay)

    def _drain_link_once(self, tag: str, job: _DrainJob, source: int,
                         target: int) -> None:
        """One link attempt: copy parts, then the manifest (manifest-last).

        Part copies are idempotent (up-to-date target copies are skipped by
        size), so a retry after a mid-copy failure re-uploads only what is
        missing.  Returns silently when a concurrent delete tombstoned the
        tag (the caller's finally block marks the job done).
        """
        started = time.perf_counter()
        manifest = self._stores[source].read_manifest(tag)
        for record in manifest.get("shards", []):
            if tag in self._deleted:
                return
            self._drain_part(tag, job, source, target, str(record["name"]),
                             int(record["nbytes"]))
        if tag in self._deleted:
            return
        # Manifest last: the target level commits only once every part of
        # the tag is durable there — same invariant as a save.
        self._stores[target].write_manifest(tag, manifest)
        with self._lock:
            job.residency.add(target)
            self.drain_seconds_total += time.perf_counter() - started
        self._persist_index()

    def _drain_part(self, tag: str, job: _DrainJob, source: int, target: int,
                    name: str, nbytes: int) -> None:
        """Copy one shard part down a link, skipping up-to-date copies.

        The skip is what makes a resumed drain idempotent *and* cheap: parts
        that already landed before a crash are recognised by size and not
        re-uploaded.
        """
        try:
            if self._stores[target].shard_size(tag, name) == nbytes:
                with self._lock:
                    job.parts_skipped += 1
                return
        except Exception:  # noqa: BLE001 - absent on the target level: copy it
            pass
        self._stores[target].write_shard(
            tag, name, self._part_chunks(source, tag, name, nbytes))
        with self._lock:
            job.parts_copied += 1
            job.bytes_copied += nbytes
            self.bytes_drained += nbytes
        self._account(tag, target, nbytes)

    def _part_chunks(self, source: int, tag: str, name: str, nbytes: int):
        """Stream one shard from a level in bounded chunks (ranged reads when
        the source supports them, one whole read otherwise)."""
        store = self._stores[source]
        if supports_ranged_reads(store) and nbytes > _DRAIN_CHUNK_BYTES:
            for offset in range(0, nbytes, _DRAIN_CHUNK_BYTES):
                length = min(_DRAIN_CHUNK_BYTES, nbytes - offset)
                yield store.read_shard_range(tag, name, offset, length)
        else:
            yield store.read_shard(tag, name)

    # -- eviction ---------------------------------------------------------------
    def _evict_pass(self, level0_headroom: int = 0) -> None:
        """Trim every non-deepest level back below its watermark.

        ``level0_headroom`` is extra space a pending commit needs on level 0
        (the backpressure gate's demand-driven eviction trims past the
        watermark by that much).
        """
        for index in range(self._last):
            self._evict_level(index, headroom=level0_headroom if index == 0 else 0)

    def _evict_level(self, level_index: int, headroom: int = 0) -> None:
        """Evict checkpoints (already resident deeper) from one level.

        Capacity-bounded levels evict oldest-first until the level is back
        below ``watermark * capacity_bytes`` (less ``headroom``); level 0
        without a capacity falls back to the legacy ``keep_local_latest``
        count.  The deepest level is never evicted (it is the durability
        floor).
        """
        level = self.levels[level_index]
        with self._lock:
            candidates = sorted(
                (job for job in self._jobs.values()
                 if level_index in job.residency and job.residency
                 and max(job.residency) > level_index
                 and job.tag not in self._deleted),
                key=lambda job: job.sequence)
            if level.capacity_bytes is not None:
                limit = max(0.0, level.watermark * level.capacity_bytes - headroom)
                projected = self._level_bytes[level_index]
                victims = []
                for job in candidates:
                    if projected <= limit:
                        break
                    victims.append(job)
                    projected -= self._tag_bytes.get((job.tag, level_index), 0)
            elif level_index == 0 and self.keep_local_latest is not None:
                if self.keep_local_latest:
                    victims = candidates[:-self.keep_local_latest]
                else:
                    victims = candidates
            else:
                return
            # Claiming under the lock keeps concurrent drain threads from
            # double-evicting (and double-counting) the same checkpoint.
            for job in victims:
                job.residency.discard(level_index)
        evicted = 0
        try:
            for index, job in enumerate(victims):
                try:
                    self._stores[level_index].delete_checkpoint(job.tag)
                except BaseException:
                    with self._lock:
                        # Unclaim everything not deleted: still resident, a
                        # later drain's eviction pass will retry.
                        for remaining in victims[index:]:
                            remaining.residency.add(level_index)
                    raise
                self._discount(job.tag, level_index)
                evicted += 1
                logger.info("evicted checkpoint %s from tier level %s",
                            job.tag, self._names[level_index])
        finally:
            if evicted:
                with self._lock:
                    self.evicted_checkpoints += evicted
                self._persist_index()

    # -- drain introspection --------------------------------------------------
    def drain_status(self, tag: str) -> Optional[DrainState]:
        """Drain state of one committed checkpoint (None if unknown)."""
        with self._lock:
            job = self._jobs.get(tag)
            return job.state if job is not None else None

    def wait_drained(self, tag: Optional[str] = None,
                     timeout: Optional[float] = None) -> None:
        """Block until ``tag`` (default: every known checkpoint) is drained.

        Raises :class:`~repro.exceptions.CheckpointError` on a drain that
        failed or timed out; a failed drain stays LOCAL and is retried by
        the recovery scan of the next chain over the same stores.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            jobs = ([self._jobs[tag]] if tag is not None and tag in self._jobs
                    else list(self._jobs.values()) if tag is None else [])
        if tag is not None and not jobs:
            raise CheckpointError(f"no drain recorded for checkpoint {tag!r}")
        for job in jobs:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not job.done.wait(remaining):
                raise CheckpointError(
                    f"timed out waiting for checkpoint {job.tag!r} to drain")
            if job.error is not None:
                raise CheckpointError(
                    f"drain of checkpoint {job.tag!r} failed: {job.error}"
                ) from job.error

    def drain_metrics(self) -> Dict[str, float]:
        """Operational counters of the drain pipeline (for reports/benches).

        ``bytes_drained`` counts every link crossing (a checkpoint fully
        drained down an N-level chain contributes N-1 times its size);
        ``drain_wait_ms`` is the total time commits spent blocked on
        level-0 backpressure.
        """
        with self._lock:
            pending = sum(1 for job in self._jobs.values()
                          if job.state is not DrainState.REPLICATED)
            return {
                "drain_workers": self.drain_workers,
                "drain_retries": self.drain_retries,
                "drained_checkpoints": self.drains_completed,
                "resumed_drains": self.drains_resumed,
                "failed_drains": self.drains_failed,
                "retried_drains": self.drains_retried,
                "pending_drains": pending,
                "bytes_drained": self.bytes_drained,
                "evicted_checkpoints": self.evicted_checkpoints,
                "drain_seconds_total": self.drain_seconds_total,
                "promoted_parts": self.promoted_parts,
                "promoted_checkpoints": self.promoted_checkpoints,
                "bytes_promoted": self.bytes_promoted,
                "drain_wait_ms": self.drain_wait_ms,
                "tier_levels": len(self.levels),
            }

    # -- reads (nearest level first) -------------------------------------------
    @property
    def prefers_ranged_reads(self) -> bool:
        """Whether restores should stream sub-shard ranges: inherited from
        the deepest level (shallow hits are local either way, but a miss
        walks toward the remote end, where bounded ranges are what pays)."""
        return bool(getattr(self._stores[-1], "prefers_ranged_reads", False))

    def read_shard(self, tag: str, shard_name: str, out=None):
        """Read one shard from the nearest level holding it (into ``out``,
        when given: the level that is read fills it).

        A deeper-level fallback means the shallower copies are gone (evicted
        or lost); the just-fetched bytes are opportunistically promoted back
        into every level above the hit so the next restore of this
        checkpoint is served nearer again.
        """
        last_error: Optional[BaseException] = None
        for index, store in enumerate(self._stores):
            try:
                payload = store.read_shard(tag, shard_name, out=out)
            except (CheckpointError, OSError) as exc:
                last_error = exc
                continue
            if index:
                self._promote_part(tag, shard_name, payload, index)
            return payload
        raise last_error if last_error is not None else CheckpointError(
            f"shard {shard_name!r} of checkpoint {tag!r} is on no tier level")

    def _promote_part(self, tag: str, shard_name: str, payload: bytes,
                      hit_index: int) -> None:
        """Rehydrate one just-read part into every level above the hit.

        Promotion follows the same commit invariant as a save: a level's
        manifest is republished only once **every** part of the checkpoint
        is back on that level (manifest-last), so a half-promoted checkpoint
        is never visible as committed there.  Best-effort by design — a
        promotion failure on one level is logged, the remaining levels are
        still tried, and the read that triggered it never fails.

        The payload is validated against the hit level's manifest *before*
        it touches any shallower level: a torn deep read must surface to the
        loader's checksum pass, never be cached where later reads (including
        post-incident clean ones) would keep serving it.
        """
        if not self.promote_on_read or hit_index == 0:
            return
        with self._lock:
            if tag in self._deleted:
                return
        try:
            manifest = self._stores[hit_index].read_manifest(tag)
        except Exception as exc:  # noqa: BLE001 - opportunistic housekeeping
            logger.warning("not promoting %s/%s: no manifest on level %s: %s",
                           tag, shard_name, self._names[hit_index], exc)
            return
        expected = next(
            (int(record["nbytes"]) for record in manifest.get("shards", [])
             if str(record["name"]) == shard_name), None)
        if expected is None or len(payload) != expected:
            logger.warning(
                "not promoting %s/%s: payload is %d bytes, manifest says %s "
                "(torn deep-level read?)", tag, shard_name, len(payload),
                expected)
            return
        for target in range(hit_index - 1, -1, -1):
            try:
                self._promote_into_level(tag, shard_name, payload, manifest,
                                         target)
            except Exception as exc:  # noqa: BLE001 - per-level best effort
                logger.warning("promotion of %s/%s into level %s failed: %s",
                               tag, shard_name, self._names[target], exc)

    def _promote_into_level(self, tag: str, shard_name: str, payload: bytes,
                            manifest: Dict, target: int) -> None:
        """Land one part on one level; republish that level's manifest once
        every part of the checkpoint is present there."""
        self._stores[target].write_shard(tag, shard_name, [payload])
        self._account(tag, target, len(payload))
        with self._lock:
            self.promoted_parts += 1
            self.bytes_promoted += len(payload)
        for record in manifest.get("shards", []):
            try:
                present = (self._stores[target].shard_size(tag, str(record["name"]))
                           == int(record["nbytes"]))
            except Exception:  # noqa: BLE001 - part not yet promoted
                present = False
            if not present:
                return  # more parts still to come back
        with self._lock:
            if tag in self._deleted:
                return
        self._stores[target].write_manifest(tag, manifest)
        with self._lock:
            job = self._jobs.get(tag)
            if job is not None:
                job.residency.add(target)
            if target == 0:
                self.promoted_checkpoints += 1
        self._persist_index()
        logger.info("promoted checkpoint %s back to tier level %s", tag,
                    self._names[target])

    def read_shard_range(self, tag: str, shard_name: str,
                         offset: int, length: int) -> bytes:
        """Ranged read from the nearest level that holds the shard and
        supports ranged reads."""
        last_error: Optional[BaseException] = None
        for store in self._stores:
            if not supports_ranged_reads(store):
                continue
            try:
                return store.read_shard_range(tag, shard_name, offset, length)
            except (CheckpointError, OSError) as exc:
                last_error = exc
        raise last_error if last_error is not None else CheckpointError(
            f"no tier level supports ranged reads for {tag!r}/{shard_name!r}")

    def open_shard_mmap(self, tag: str, shard_name: str) -> MappedShard:
        """Zero-copy map from the nearest mappable level; heap fallback.

        The nearest-level contract of the mmap restore path: a shard
        resident on a mappable level is mapped (true zero-copy), one only
        held deeper is fetched and wrapped so the loader's buffer handling
        is identical either way.
        """
        for store in self._stores:
            if not supports_mmap(store):
                continue
            try:
                return store.open_shard_mmap(tag, shard_name)
            except (CheckpointError, OSError):
                continue
        return _HeapShard(self.read_shard(tag, shard_name))

    def read_manifest(self, tag: str) -> Dict:
        """Read the commit manifest from the nearest level holding it."""
        last_error: Optional[BaseException] = None
        for store in self._stores:
            try:
                return store.read_manifest(tag)
            except (CheckpointError, OSError) as exc:
                last_error = exc
        raise last_error if last_error is not None else CheckpointError(
            f"checkpoint {tag!r} has no manifest on any tier level")

    def shard_size(self, tag: str, shard_name: str) -> int:
        """Stored size of one shard, nearest level first."""
        last_error: Optional[BaseException] = None
        for store in self._stores:
            try:
                return store.shard_size(tag, shard_name)
            except Exception as exc:  # noqa: BLE001 - FileStore raises FileNotFoundError
                last_error = exc
        raise last_error if last_error is not None else CheckpointError(
            f"shard {shard_name!r} of checkpoint {tag!r} is on no tier level")

    # -- management (cross-level) ------------------------------------------------
    def list_checkpoints(self) -> List[str]:
        """Tags present on any level (committed or not), sorted."""
        tags = set()
        for store in self._stores:
            tags.update(store.list_checkpoints())
        return sorted(tags)

    def list_committed_checkpoints(self) -> List[str]:
        """Tags committed on any level, sorted.

        A checkpoint is restorable as soon as its level-0 manifest exists
        and stays restorable after eviction (a deeper level's manifest takes
        over), so commit visibility is the union of the levels.
        """
        tags = set()
        for store in self._stores:
            tags.update(store.list_committed_checkpoints())
        return sorted(tags)

    def delete_checkpoint(self, tag: str) -> None:
        """Remove ``tag`` from every level (cross-level GC).

        An in-flight drain of the tag is told to abort (it checks the
        tombstone between parts and links) and waited out, so the delete
        cannot race a late part/manifest PUT into resurrecting the
        checkpoint on a deeper level.
        """
        with self._lock:
            self._deleted.add(tag)
            job = self._jobs.pop(tag, None)
            # Only a drain that already claimed the job will set done; one
            # that finds the job gone returns without touching the event.
            claimed = (job is not None and job.state is DrainState.DRAINING
                       and not job.done.is_set())
        if claimed:
            job.done.wait()
        for store in self._stores:
            store.delete_checkpoint(tag)
        for index in range(len(self._stores)):
            self._discount(tag, index)
        self._persist_index()

    def total_bytes(self, tag: str) -> int:
        """Shard bytes of one checkpoint, from the nearest level holding it."""
        for store in self._stores:
            nbytes = store.total_bytes(tag)
            if nbytes:
                return nbytes
        return 0

    # -- lifecycle --------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Join outstanding drain threads (drains are daemons; this is for
        deterministic teardown in tests and at the end of a run)."""
        if not wait:
            return
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join()

    def __enter__(self) -> "TierChain":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=exc_type is None)

