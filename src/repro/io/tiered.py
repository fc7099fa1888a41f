"""Tiered checkpoint storage: an N-level tier chain with async per-link drains.

The paper frames checkpointing as a lazy multilevel pipeline — GPU -> pinned
host -> node-local storage -> parallel FS -> object store — and
:class:`TierChain` models exactly that: an **ordered list** of
:class:`TierLevel` (each a registered :class:`~repro.io.ShardStore` plus an
optional byte capacity and watermark) where

* **commits land on level 0** — shards, parallel shard writers, and the
  commit manifest all hit the fastest tier, so training unblocks at
  local-disk speed;
* a background **per-link drain pipeline** moves every committed checkpoint
  down the chain one link at a time (level 0 -> 1 -> ... -> N-1).  Each link
  is one ``ThreadPoolExecutor`` of ``drain_workers`` threads; a link task
  copies every shard part first and publishes the manifest *last* on its
  target level, then hands the checkpoint to the next link's executor.  So
  every level inherits the same commit invariant as every backend (a
  checkpoint is restorable from a level if and only if its manifest exists
  there), and a chain never runs more than ``drain_workers`` drain threads
  per link, however many checkpoints are queued;
* restores are **nearest-level-first** — reads walk the chain from level 0
  and serve from the shallowest level holding the data.  A hit on a deeper
  level hands its bytes to the caller and **promotes behind the read, as
  upward links**: once per checkpoint, the same link copy the drain runs
  moves it from the hit level to level 0 one level at a time, on the
  executor of each link it crosses (parts first, manifest last);
* **eviction is watermark-driven per level**: once a checkpoint has reached
  a deeper level, its copy on a capacity-bounded shallower level becomes
  evictable, and levels are trimmed oldest-first back below
  ``watermark * capacity_bytes`` (levels without a capacity fall back to the
  ``keep_local_latest`` count on level 0 only);
* **backpressure** replaces overflow: when level 0 sits above its high
  watermark, ``write_shard`` / ``create_shard_writer`` block (bounded by
  :data:`BACKPRESSURE_TIMEOUT_S`, with the blocked time accumulated in the
  ``drain_wait_ms`` counter surfaced through ``drain_metrics()``) until
  drains + eviction free headroom — the paper's "slow the trainer instead of
  losing the fast tier".

Per-checkpoint progress is tracked as a **residency set** (which levels hold
a committed copy) generalizing the two-tier drain state machine; the legacy
states are derived views of it::

    LOCAL       not (or no longer) being drained, not on the deepest level
    DRAINING    claimed by a drain or a promotion: a link is in flight
    REPLICATED  the deepest level is in the residency set

A crash mid-drain leaves the target level uncommitted (torn parts, no
manifest) while shallower levels still restore; the next construction over
the same stores **resumes idempotently**, skipping parts whose copy on the
target already matches by size.  Residency is mirrored into a small JSON
**tier-index sidecar** (``tier-index.json`` next to level 0's checkpoint
directories, when that backend is directory-backed) for operators; nothing
reads it back — on startup residency is rebuilt from the levels themselves,
which stay the source of truth — and its legacy ``{"state", "sequence",
"local"}`` entry shape is preserved (two-element chains stay byte-layout
compatible with the pre-chain two-tier store).

``delete_checkpoint`` operates **cross-level** (and waits out a claimed
drain or promotion of the tag), so garbage collection never strands keys on
any backend.  ``close()`` stops taking commits, waits every checkpoint's
links out and shuts the link executors down; a process that exits without
it still finishes the links already queued.
"""

from __future__ import annotations

import enum
import json
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..exceptions import CheckpointError
from ..logging_utils import get_logger
from ..units import parse_bytes
from .filestore import MappedShard, WriteReceipt, publish_file
from .store import supports_mmap

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

#: Retries of one link after a transient deeper-level failure — a checkpoint
#: only leaves DRAINING on success or once the retries are exhausted.
DRAIN_RETRIES = 2

#: Base delay (seconds) of a link's exponential backoff: attempt ``k``
#: (0-based) sleeps ``DRAIN_BACKOFF_S * 2**k`` before retrying.
DRAIN_BACKOFF_S = 0.05

#: Default high watermark: a level is trimmed back below this fraction of
#: its capacity, and commits block while level 0 sits above it.
DEFAULT_TIER_WATERMARK = 0.9

#: Upper bound on how long one commit may block on backpressure before the
#: write fails loudly (overflowing the fast tier is never the fallback).
BACKPRESSURE_TIMEOUT_S = 60.0


class DrainState(str, enum.Enum):
    """Where one committed checkpoint sits in the drain pipeline.

    With an N-level chain these are derived views of the per-level residency
    set (see the module docstring); the three-state machine is kept as the
    stable operator-facing summary.
    """

    #: Not on the deepest level and not claimed by the drain: queued for
    #: its first link, or its drain failed.
    LOCAL = "local"
    #: Claimed by a drain or a promotion: a link is copying it (down the
    #: chain, or up toward level 0), or it is queued for the next link.  A
    #: replicated checkpoint reads DRAINING while a promotion holds it.
    DRAINING = "draining"
    #: Fully present (manifest included) on the deepest level, and no
    #: promotion holds it.
    REPLICATED = "replicated"


@dataclass
class TierLevel:
    """One level of a :class:`TierChain`: a store plus its eviction policy.

    ``capacity_bytes`` bounds the level (``None`` = unbounded, never evicted
    by watermark); ``watermark`` is the high-water fraction of that capacity
    eviction trims back below (and, on level 0, the commit-backpressure
    threshold).
    """

    store: object
    name: Optional[str] = None
    capacity_bytes: Optional[int] = None
    watermark: float = DEFAULT_TIER_WATERMARK

    def __post_init__(self) -> None:
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise CheckpointError("TierLevel.capacity_bytes must be positive (or None)")
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

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable sidecar entry.

        The legacy ``state``/``sequence``/``local`` keys keep two-element
        chains byte-layout compatible with the pre-chain sidecar; ``levels``
        is the generalized residency set.
        """
        return {"state": self.state.value, "sequence": self.sequence,
                "local": 0 in self.residency,
                "levels": sorted(self.residency)}


def eviction_victims(jobs: Iterable[_DrainJob], level_index: int, level: TierLevel,
                     used: int, tag_bytes: Mapping[Tuple[str, int], int],
                     keep_local_latest: Optional[int],
                     headroom: int = 0) -> List[_DrainJob]:
    """The checkpoints to evict from one level, oldest first.

    Pure: it reads its arguments and changes nothing.  A candidate is a
    checkpoint resident on ``level_index`` *and* on a deeper level.  A
    capacity-bounded level takes candidates in ``sequence`` order until its
    ``used`` bytes, less each victim's ``tag_bytes[(tag, level_index)]``,
    are at or below
    ``watermark * capacity_bytes - headroom``.  Level 0 without a capacity
    keeps the newest ``keep_local_latest`` candidates (``None``: keeps all).
    Any other level without a capacity evicts nothing, and so does the
    deepest level (the durability floor): nothing is resident below it.
    """
    candidates = sorted((job for job in jobs
                         if level_index in job.residency
                         and max(job.residency) > level_index),
                        key=lambda job: job.sequence)
    if level.capacity_bytes is not None:
        limit = max(0.0, level.watermark * level.capacity_bytes - headroom)
        victims = []
        for job in candidates:
            if used <= limit:
                break
            victims.append(job)
            used -= tag_bytes.get((job.tag, level_index), 0)
        return victims
    if level_index == 0 and keep_local_latest is not None:
        return candidates[:max(0, len(candidates) - keep_local_latest)]
    return []


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
    with defaults); ``drain_workers`` sizes every link's executor.
    ``keep_local_latest`` is the count-based eviction watermark applied to
    level 0 when it has no byte capacity (``None`` disables it).
    """

    def __init__(self, levels: Sequence, drain_workers: int = DEFAULT_DRAIN_WORKERS,
                 keep_local_latest: Optional[int] = DEFAULT_KEEP_LOCAL_LATEST) -> None:
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
        self.levels: List[TierLevel] = wrapped
        self._stores = stores
        self._names = [level.name or f"level{index}"
                       for index, level in enumerate(wrapped)]
        if len(set(self._names)) != len(self._names):
            raise CheckpointError(f"duplicate tier level names: {self._names}")
        self._last = len(wrapped) - 1
        self.drain_workers = int(drain_workers)
        self.keep_local_latest = keep_local_latest
        self._lock = threading.RLock()
        self._index_lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._jobs: Dict[str, _DrainJob] = {}
        self._sequence = 0
        self._closed = False
        #: One executor per link i (between levels i and i+1, both ways).
        self._links = [
            ThreadPoolExecutor(max_workers=self.drain_workers,
                               thread_name_prefix=f"tiered-drain-{name}")
            for name in self._names[:-1]
        ]
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
        root = getattr(stores[0], "root", None)
        self._index_path = Path(root) / TIER_INDEX_NAME if root is not None else None
        # The sidecar is published as durably as level 0's own files.
        self._index_fsync = bool(getattr(stores[0], "fsync", False))
        self._recover()

    # -- chain introspection ---------------------------------------------------
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
    def _persist_sidecar(self) -> None:
        """Atomically rewrite the sidecar (no-op for root-less level 0).

        Best-effort: the sidecar is a *cache* — a persist failure must never
        fail a save that is already committed on level 0 (or a delete that
        already removed every level), so I/O errors are logged and the
        recovery scan rebuilds residency from the levels themselves.
        """
        if self._index_path is None:
            return
        # One writer at a time, each publishing the snapshot it took under
        # this lock: two drains finishing together could otherwise land the
        # older snapshot last (an evicted tag recorded as still local).
        with self._index_lock:
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
                    if self._index_fsync:
                        os.fsync(handle.fileno())
                publish_file(tmp_name, self._index_path, directory,
                             fsync=self._index_fsync)
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
            except (CheckpointError, OSError):  # unreadable manifest: tag order
                iteration = -1
            return (iteration, tag)

        to_drain = []
        with self._lock:
            for tag in sorted(set().union(*committed), key=commit_order):
                residency = {index for index, tags in enumerate(committed)
                             if tag in tags}
                job = _DrainJob(tag=tag, sequence=self._next_sequence(),
                                residency=residency)
                if self._last in residency:
                    job.state = DrainState.REPLICATED
                    job.done.set()
                else:
                    to_drain.append(job)
                self._jobs[tag] = job
        for index, store in enumerate(self._stores):
            try:
                tags = store.list_checkpoints()
            except (CheckpointError, OSError):  # level unavailable: nothing to account
                continue
            for tag in tags:
                try:
                    self._account(tag, index, int(store.total_bytes(tag)))
                except (CheckpointError, OSError):  # gone since the listing
                    continue
        for job in to_drain:
            self.drains_resumed += 1
            source = max(job.residency)
            self._submit(job, source, source + 1)
        if self._jobs:
            self._persist_sidecar()

    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    # -- capacity accounting and backpressure ----------------------------------
    def _account(self, tag: str, level_index: int, nbytes: int) -> None:
        if nbytes <= 0:
            return
        with self._lock:
            key = (tag, level_index)
            self._tag_bytes[key] = self._tag_bytes.get(key, 0) + nbytes
            self._level_bytes[level_index] += nbytes

    def _discount(self, tag: str, level_index: int) -> None:
        with self._lock:
            freed = self._tag_bytes.pop((tag, level_index), 0)
            self._level_bytes[level_index] -= freed
            if freed:
                self._space.notify_all()

    def level_used_bytes(self, level_index: int = 0) -> int:
        """Accounted bytes currently resident on one level."""
        with self._lock:
            return self._level_bytes[level_index]

    def _check_open(self) -> None:
        if self._closed:
            raise CheckpointError("the tier chain is closed: it takes no more commits")

    def _gate_commit(self, tag: str, incoming_bytes: int = 0) -> None:
        """Block a level-0 write while the level sits above its watermark.

        The "slow the trainer instead of losing the fast tier" behavior:
        waiting gives in-flight drains time to replicate checkpoints deeper
        so eviction can free headroom.  Bounded by
        :data:`BACKPRESSURE_TIMEOUT_S` — on timeout the write fails loudly
        rather than overflowing the level.  Blocked time accumulates in
        ``drain_wait_ms``.  A closed chain refuses every write here.
        """
        self._check_open()
        level = self.levels[0]
        if level.capacity_bytes is None:
            return
        limit = level.watermark * level.capacity_bytes
        timeout = BACKPRESSURE_TIMEOUT_S
        started = None
        deadline = time.monotonic() + timeout
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
            except (CheckpointError, OSError) as exc:  # a level unavailable: wait
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
                        f"{int(limit)} for {timeout:.1f}s "
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
        return _AccountingShardWriter(self, tag, inner)

    def write_manifest(self, tag: str, manifest: Dict) -> object:
        """Publish the manifest on level 0 and queue the tag's first link.

        The level-0 manifest is the training-visible commit point — the call
        returns as soon as the local publish is durable; replication down
        the chain proceeds in the background.
        """
        self._check_open()
        receipt = self._stores[0].write_manifest(tag, manifest)
        with self._lock:
            job = _DrainJob(tag=tag, sequence=self._next_sequence())
            self._jobs[tag] = job
        try:
            self._submit(job, 0, 1)
        except CheckpointError as exc:  # closed between the check and here
            self._fail(job, exc)
            raise
        return receipt

    # -- the drain pipeline ---------------------------------------------------
    def _submit(self, job: _DrainJob, source: int, target: int) -> None:
        """Queue link ``source`` -> ``target`` (adjacent levels, either way)
        of ``job`` on the executor of the link between them."""
        try:
            self._links[min(source, target)].submit(self._run_link, job, source, target)
        except RuntimeError as exc:  # the executor is shut down
            raise CheckpointError(
                f"the tier chain is closed: checkpoint {job.tag!r} stays on "
                f"level {self._names[source]!r}") from exc

    def _current(self, job: _DrainJob) -> bool:
        """Whether ``job`` is still the tag's live job (not deleted or
        superseded by a re-commit)."""
        return self._jobs.get(job.tag) is job

    def _fail(self, job: _DrainJob, exc: BaseException, upward: bool = False) -> None:
        """End a drain (LOCAL, with ``exc`` surfaced by ``wait_drained``) or
        a promotion (logged only: the job's state follows its residency)."""
        with self._lock:
            if upward:
                job.state = self._settled(job)
            else:
                job.error = exc
                job.state = DrainState.LOCAL
                self.drains_failed += 1
        job.done.set()
        logger.warning("%s of checkpoint %s failed: %s",
                       "promotion" if upward else "drain", job.tag, exc)

    def _settled(self, job: _DrainJob) -> DrainState:
        """The state of a job no link holds, from its residency."""
        return (DrainState.REPLICATED if self._last in job.residency
                else DrainState.LOCAL)

    def _run_link(self, job: _DrainJob, source: int, target: int) -> None:
        """One link of a checkpoint's drain or promotion, on its executor.

        The link copies every part and publishes the manifest last on level
        ``target``, retrying transient failures with bounded exponential
        backoff.  Every exit either hands the checkpoint to the next link in
        the same direction or sets ``job.done``.  A drain (``target >
        source``) ends REPLICATED on the deepest level; on a failure that
        outlives the retries it goes back to LOCAL (surfaced in
        ``failed_drains``/``wait_drained`` and retried by the next
        construction's recovery scan).  A promotion ends on level 0, and a
        failed one is only logged.  A deleted tag just stops.
        """
        upward = target < source
        try:
            with self._lock:
                if not self._current(job):
                    job.done.set()
                    return
                claiming = job.state is not DrainState.DRAINING
                job.state = DrainState.DRAINING
            if claiming:
                self._persist_sidecar()
            if not self._drain_link(job, source, target):
                job.done.set()
                return
            if not upward:
                # Eviction is best-effort housekeeping over *other* copies:
                # its own try so a failed delete is logged and retried by a
                # later link, never poisoning the just-copied checkpoint.
                try:
                    self._evict_pass()
                except Exception as exc:  # noqa: BLE001 - retried next link
                    logger.warning("tier eviction failed: %s", exc)
            following = 2 * target - source  # the next level, same way
            if 0 <= following <= self._last:
                self._submit(job, target, following)
                return
            with self._lock:
                if upward:
                    self.promoted_checkpoints += 1
                else:
                    self.drains_completed += 1
                job.state = self._settled(job)
            self._persist_sidecar()
            job.done.set()
        except BaseException as exc:  # noqa: BLE001 - surfaced via wait_drained
            self._fail(job, exc, upward)

    def _drain_link(self, job: _DrainJob, source: int, target: int) -> bool:
        """One link with retries: copy level ``source`` -> ``target``.
        False when the tag was deleted meanwhile."""
        for attempt in range(DRAIN_RETRIES):
            try:
                return self._drain_link_once(job, source, target)
            except BaseException as exc:  # noqa: BLE001 - retried below
                if not self._current(job):
                    raise
                if target > source:
                    with self._lock:
                        self.drains_retried += 1
                delay = DRAIN_BACKOFF_S * (2 ** attempt)
                logger.warning(
                    "copy of checkpoint %s over link %s->%s failed "
                    "(attempt %d/%d), retrying in %.3fs: %s", job.tag,
                    self._names[source], self._names[target], attempt + 1,
                    DRAIN_RETRIES + 1, delay, exc)
                if delay > 0:
                    time.sleep(delay)
        return self._drain_link_once(job, source, target)

    def _drain_link_once(self, job: _DrainJob, source: int, target: int) -> bool:
        """One link attempt: copy parts, then the manifest (manifest-last).

        Part copies are idempotent (up-to-date target copies are skipped by
        size), so a retry after a mid-copy failure re-uploads only what is
        missing.  Returns False, publishing nothing more, once a concurrent
        delete has removed the tag's job.
        """
        tag = job.tag
        started = time.perf_counter()
        manifest = self._stores[source].read_manifest(tag)
        for record in manifest.get("shards", []):
            if not self._current(job):
                return False
            self._drain_part(job, source, target, str(record["name"]),
                             int(record["nbytes"]))
        if not self._current(job):
            return False
        # Manifest last: the target level commits only once every part of
        # the tag is durable there — same invariant as a save.
        self._stores[target].write_manifest(tag, manifest)
        with self._lock:
            job.residency.add(target)
            if target > source:
                self.drain_seconds_total += time.perf_counter() - started
        self._persist_sidecar()
        return True

    def _drain_part(self, job: _DrainJob, source: int, target: int, name: str,
                    nbytes: int) -> None:
        """Copy one shard part over a link, skipping up-to-date copies.

        The skip is what makes a resumed drain idempotent *and* cheap: parts
        that already landed before a crash are recognised by size and not
        re-uploaded.  Only what a store raises for a missing part
        (:class:`CheckpointError`, ``OSError``) reads as "absent"; any other
        error in the target level fails the link.  A copy of the wrong size
        fails the link before its manifest is published: a short read raises
        before the part lands, and a short write leaves no part on a level
        it promotes into (a torn part above a good copy is served first).
        """
        tag = job.tag
        try:
            if self._stores[target].shard_size(tag, name) == nbytes:
                return
        except (CheckpointError, OSError):  # absent on the target level: copy it
            pass
        receipt = self._stores[target].write_shard(
            tag, name, self._part_chunks(source, tag, name, nbytes))
        if receipt.nbytes != nbytes:
            # Only this link adds ``target`` to the residency it reads here.
            if target < source and target not in job.residency:
                self._stores[target].delete_checkpoint(tag)
                self._discount(tag, target)
            raise CheckpointError(
                f"copy of {tag}/{name} to level {self._names[target]!r} wrote "
                f"{receipt.nbytes} of {nbytes} bytes")
        with self._lock:
            if target < source:
                self.promoted_parts += 1
                self.bytes_promoted += nbytes
            else:
                self.bytes_drained += nbytes
        self._account(tag, target, nbytes)

    def _part_chunks(self, source: int, tag: str, name: str, nbytes: int):
        """Stream one shard from a level: bounded ranged reads for a large
        part, one whole read otherwise.  A short stream raises after its
        last chunk, so the target's write publishes nothing."""
        store = self._stores[source]
        if nbytes > _DRAIN_CHUNK_BYTES:
            chunks = (store.read_shard_range(tag, name, offset,
                                             min(_DRAIN_CHUNK_BYTES, nbytes - offset))
                      for offset in range(0, nbytes, _DRAIN_CHUNK_BYTES))
        else:
            chunks = [store.read_shard(tag, name)]
        copied = 0
        for chunk in chunks:
            copied += memoryview(chunk).nbytes
            yield chunk
        if copied != nbytes:
            raise CheckpointError(
                f"copy of {tag}/{name} from level {self._names[source]!r} "
                f"read {copied} of {nbytes} bytes")

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
        """Delete :func:`eviction_victims`' choice from one level."""
        with self._lock:
            victims = eviction_victims(
                self._jobs.values(), level_index, self.levels[level_index],
                self._level_bytes[level_index], self._tag_bytes,
                self.keep_local_latest, headroom)
            # Claiming under the lock keeps concurrent link workers from
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
                        # later link's eviction pass will retry.
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
                self._persist_sidecar()

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

        The drain counters count downward links only: ``bytes_drained``
        every crossing (a checkpoint fully drained down an N-level chain
        contributes N-1 times its size), and ``pending_drains`` the
        checkpoints not yet on the deepest level.  ``promoted_parts`` /
        ``bytes_promoted`` count upward crossings.  ``drain_wait_ms`` is the
        total time commits spent blocked on level-0 backpressure.
        """
        with self._lock:
            pending = sum(1 for job in self._jobs.values()
                          if self._last not in job.residency)
            return {
                "drain_workers": self.drain_workers,
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
    def _nearest(self, read: Callable[[object], object]) -> Tuple[int, object]:
        """``(level index, read(store))`` from the shallowest level that
        answers.  A level raising :class:`CheckpointError` or ``OSError`` —
        what every store raises for a missing part or manifest — is skipped;
        anything else propagates.  When no level answers, the deepest
        level's error is raised."""
        for index, store in enumerate(self._stores[:-1]):
            try:
                return index, read(store)
            except (CheckpointError, OSError):
                continue
        return self._last, read(self._stores[-1])

    def read_shard(self, tag: str, shard_name: str, out=None):
        """Read one shard from the nearest level holding it (into ``out``,
        when given: the level that is read fills it).

        A deeper-level hit means the shallower copies are gone (evicted or
        lost): the bytes go back to the caller at once, and the checkpoint
        is promoted behind the read (see :meth:`_promote`) so the next
        restore of it is served nearer again.
        """
        index, payload = self._nearest(
            lambda store: store.read_shard(tag, shard_name, out=out))
        if index:
            self._promote(tag, index)
        return payload

    def _promote(self, tag: str, source: int) -> None:
        """Queue the promotion of ``tag`` from level ``source`` to level 0.

        A promotion is a chain of upward links: the drain's own link copy
        (parts, each checked by size, then the manifest) from ``source`` to
        ``source - 1``, handed on until level 0 holds the checkpoint.  It
        claims the tag's job as a drain does, so a job a drain or another
        promotion holds queues nothing: a checkpoint is promoted once
        however many of its parts are read deep.  (A deep read that outlives
        a whole promotion queues another, which finds every part in place
        and only republishes the manifests.)  Best effort: a promotion that
        fails is logged, and the read that queued it never fails.
        """
        with self._lock:
            job = self._jobs.get(tag)
            if self._closed or job is None or not job.done.is_set():
                return
            job.state = DrainState.DRAINING
            job.done.clear()
        try:
            self._submit(job, source, source - 1)
        except CheckpointError as exc:  # closed between the check and here
            self._fail(job, exc, upward=True)

    def read_shard_range(self, tag: str, shard_name: str,
                         offset: int, length: int) -> bytes:
        """Ranged read from the nearest level that holds the shard."""
        return self._nearest(lambda store: store.read_shard_range(
            tag, shard_name, offset, length))[1]

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
        return self._nearest(lambda store: store.read_manifest(tag))[1]

    def shard_size(self, tag: str, shard_name: str) -> int:
        """Stored size of one shard, nearest level first."""
        return self._nearest(lambda store: store.shard_size(tag, shard_name))[1]

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

        A claimed drain or promotion of the tag — a link copying it, or the
        tag queued for its next link — is told to stop (it checks between
        parts and links) and waited out, so the delete cannot race a late
        part or manifest PUT into resurrecting the checkpoint on any level.
        """
        with self._lock:
            job = self._jobs.pop(tag, None)
            # A job still queued for its first link was never claimed: that
            # link finds it gone and publishes nothing.
            claimed = (job is not None and job.state is DrainState.DRAINING
                       and not job.done.is_set())
        if claimed:
            job.done.wait()
        for store in self._stores:
            store.delete_checkpoint(tag)
        for index in range(len(self._stores)):
            self._discount(tag, index)
        self._persist_sidecar()

    def total_bytes(self, tag: str) -> int:
        """Shard bytes of one checkpoint, from the nearest level holding it."""
        for store in self._stores:
            nbytes = store.total_bytes(tag)
            if nbytes:
                return nbytes
        return 0

    # -- lifecycle --------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Take no more commits or promotions and shut the link executors
        down.

        With ``wait`` every checkpoint's drain or promotion first runs to
        its end, so every queued checkpoint still reaches the deepest level
        (or level 0) and no drain thread is left.  Without it, a link that
        finishes after its next link's executor is shut down fails the
        checkpoint's drain (it stays LOCAL; the next chain resumes it).
        """
        with self._lock:
            self._closed = True
            jobs = list(self._jobs.values())
        if wait:
            for job in jobs:
                job.done.wait()
        for executor in self._links:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "TierChain":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=exc_type is None)
