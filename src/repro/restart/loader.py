"""Restart path: discovering, validating, and loading committed checkpoints.

Only checkpoints with a published manifest are restorable; anything else is a
torn checkpoint left behind by a crash mid-flush and is ignored (or can be
garbage-collected with :meth:`CheckpointLoader.prune_uncommitted`).  Shard
files are validated against the manifest's size and CRC32 before their
contents are handed back to the trainer.

By default shards are restored through a read-only mmap (``use_mmap=True``,
on stores that can map): the CRC32 is verified by streaming over the buffer in
bounded chunks and the arrays are rebuilt as ``np.frombuffer`` views straight
out of it, so a multi-hundred-MB shard is validated and loaded without ever
holding a second full copy of it in heap memory.  Every other part — on a
store that cannot map (an object store, a CAS store) or with
``use_mmap=False`` — is landed by one ``read_shard(out=)`` call in one
buffer owned by the restore, and checked in place in the prefetch worker.

One rule decides what is copied: *copy only when materialising out of a
read-only buffer*.  ``materialize=True`` (the default) copies each array out
of a map one tensor at a time, so the result is writable and the map can be
released, and returns the arrays of a landing buffer as the writable, aligned
views they already are (only an array whose slot is misaligned for its dtype
is copied — mixed dtypes pack without padding).  ``materialize=False`` hands
back zero-copy views either way; those of a map are read-only and keep it
alive.

Restores are described by a :class:`~repro.restart.RestoreSpec` and executed
by :meth:`CheckpointLoader.restore` — one entry point covering a single shard,
one rank, every rank, and (with ``spec.target_topology``) an elastic restore
into a different parallel layout, which fetches only the source ranks the
requested target slices are made of and copies each source slice, out of a
view of its shard buffer, straight into the target arrays
(:meth:`CheckpointLoader._restore_reshaped`, :mod:`repro.restart.reshape`).

Restores are **prefetched**: a bounded-worker stage (``prefetch_depth``
workers, set on the loader or per call through
:attr:`RestoreSpec.prefetch_depth <repro.restart.RestoreSpec.prefetch_depth>`,
and by ``repro reshape --prefetch-depth``) fetches and CRC-validates shard parts
ahead of deserialization, so a one-rank restore overlaps I/O with reassembly
across a multi-shard set and an all-ranks restore additionally overlaps
across ranks — while rank N's state is being rebuilt, rank N+1's parts are
already being fetched and checksummed.  A mapped part's CRC32 pass runs on a
worker while its arrays are copied out, so even one part checks and copies
at once.  ``prefetch_depth=1`` keeps the strictly serial fetch -> validate
-> deserialize path;
``prefetch_depth=0`` selects **auto mode**: the loader records per-part
fetch and deserialize wall times and picks the depth from the measured
overlap ratio (a fetch-bound restore gets a deeper pipeline, a
deserialize-bound one stays shallow — see :func:`choose_prefetch_depth`).

Validation and loading happen in one pass over each shard —
``restore(spec)`` with ``validate=True`` never reads a shard twice, returns
nothing (and closes no map) before its parts' checks have passed, and
reports a failed check over any decode error its corrupt bytes caused.
``validate=False`` skips the per-shard size/CRC checks entirely (manifest
completeness is still enforced).
"""

from __future__ import annotations

import copy
import math
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CheckpointError, ConsistencyError, RestartError, SerializationError
from ..io import MappedShard, ShardStore, supports_mmap
from ..logging_utils import get_logger
from ..serialization import (
    CheckpointManifest,
    CheckpointTopology,
    ShardRecord,
    checksum_stream,
    decode_preamble,
    decode_rank_state,
)
from ..tensor import unflatten_state_dict
from .spec import RestoreSpec

logger = get_logger(__name__)

#: Upper bound on concurrent per-shard validation threads.
_MAX_VALIDATE_WORKERS = 8

#: A non-mapped part is landed so that its payload starts on this boundary.
_PAYLOAD_ALIGN = 64

#: One logical shard to restore: a set key and the records of its parts.
_SetItem = Tuple[Any, List[ShardRecord]]

#: Prefetch depth of a loader constructed without one.
DEFAULT_PREFETCH_DEPTH = 4

#: Deepest pipeline auto mode will pick, and how many of the most recent
#: per-part timing samples it keeps (older restores stop steering new ones).
MAX_AUTO_PREFETCH_DEPTH = 8
_TIMING_WINDOW = 256


def choose_prefetch_depth(fetch_seconds: Sequence[float],
                          deserialize_seconds: Sequence[float],
                          max_depth: int = MAX_AUTO_PREFETCH_DEPTH) -> int:
    """Pick a prefetch depth from measured per-part timings (auto mode).

    The pipeline overlaps fetch+validate of upcoming parts with the
    deserialization of the current one, so the depth that keeps the consumer
    fed is the fetch/deserialize time ratio: while one part deserializes,
    about ``mean_fetch / mean_deserialize`` fetches must be in flight for the
    next part to be ready on time (plus one part of slack for jitter).  A
    fetch-bound restore (remote object store) gets a deep pipeline; a
    deserialize-bound one (local mmap) stays at the minimum useful depth of
    2.  With too few samples (< 3 of either kind) or degenerate timings the
    default depth is returned — measuring must never make a cold restore
    worse than the static default.
    """
    if len(fetch_seconds) < 3 or len(deserialize_seconds) < 3:
        return DEFAULT_PREFETCH_DEPTH
    mean_fetch = sum(fetch_seconds) / len(fetch_seconds)
    mean_deserialize = sum(deserialize_seconds) / len(deserialize_seconds)
    if mean_fetch <= 0 or mean_deserialize <= 0:
        return DEFAULT_PREFETCH_DEPTH
    depth = math.ceil(mean_fetch / mean_deserialize) + 1
    return max(2, min(int(max_depth), depth))


@dataclass(frozen=True)
class CheckpointInfo:
    """Summary of one committed checkpoint."""

    tag: str
    iteration: int
    world_size: int
    total_bytes: int
    num_shards: int
    #: Save-time parallel layout (manifest schema v4); ``None`` for
    #: checkpoints written before topology stamping.
    topology: Optional[CheckpointTopology] = None
    #: Manifest schema version the checkpoint was written with.
    version: int = 1


class CheckpointLoader:
    """Reads committed checkpoints back from any :class:`~repro.io.ShardStore`."""

    def __init__(self, store: ShardStore, verify_checksums: bool = True,
                 use_mmap: bool = True, materialize: bool = True,
                 prefetch_depth: Optional[int] = None) -> None:
        self.store = store
        self.verify_checksums = verify_checksums
        self.use_mmap = bool(use_mmap and supports_mmap(store))
        self.materialize = materialize
        depth = DEFAULT_PREFETCH_DEPTH if prefetch_depth is None else int(prefetch_depth)
        if depth < 0:
            raise RestartError("prefetch_depth must be >= 0")
        self.prefetch_depth = depth
        # Per-part timing samples feeding auto mode (prefetch_depth=0).
        # Mutable containers, deliberately shared by _with_options clones so
        # every restore through this loader trains the same estimate.
        self._timing_lock = threading.Lock()
        self._fetch_seconds: deque = deque(maxlen=_TIMING_WINDOW)
        self._deserialize_seconds: deque = deque(maxlen=_TIMING_WINDOW)

    # -- discovery ---------------------------------------------------------
    def committed_checkpoints(self) -> List[CheckpointInfo]:
        """All committed checkpoints, oldest first."""
        infos: List[CheckpointInfo] = []
        for tag in self.store.list_committed_checkpoints():
            manifest = self.manifest(tag)
            infos.append(
                CheckpointInfo(
                    tag=tag,
                    iteration=manifest.iteration,
                    world_size=manifest.world_size,
                    total_bytes=manifest.total_bytes,
                    num_shards=len(manifest.shards),
                    topology=manifest.topology,
                    version=manifest.version,
                )
            )
        infos.sort(key=lambda info: (info.iteration, info.tag))
        return infos

    def latest(self) -> Optional[CheckpointInfo]:
        """The most recent committed checkpoint (by iteration, then tag)."""
        infos = self.committed_checkpoints()
        return infos[-1] if infos else None

    def manifest(self, tag: str) -> CheckpointManifest:
        """Parsed manifest of one committed checkpoint."""
        try:
            return CheckpointManifest.from_json(self.store.read_manifest(tag))
        except Exception as exc:
            raise RestartError(f"cannot read manifest of checkpoint {tag!r}: {exc}") from exc

    # -- validation ---------------------------------------------------------------
    def validate(self, tag: str) -> CheckpointManifest:
        """Check that every shard listed in the manifest is present and intact.

        Shards are validated concurrently (one mmap/read per shard), which is
        what makes a multi-shard-per-rank checkpoint faster to vet than one
        monolithic file: the CRC32 passes over the set run in parallel.
        """
        manifest = self.manifest(tag)
        manifest.validate_complete()
        self._validate_records(tag, manifest.shards)
        return manifest

    @staticmethod
    def _parallel_each(items: Sequence, check) -> None:
        """Run ``check`` over ``items``, in parallel when there are several.

        ``list()`` over the map re-raises the first failure, so callers see
        the same exception type/path as the serial fallback.
        """
        if len(items) <= 1:
            for item in items:
                check(item)
            return
        workers = min(len(items), _MAX_VALIDATE_WORKERS)
        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="ckpt-validate") as pool:
            list(pool.map(check, items))

    def _validate_records(self, tag: str, records: Sequence[ShardRecord]) -> None:
        """Size + CRC32 validation of several shards, in parallel when >1."""
        def check(record: ShardRecord) -> None:
            buffer = self._fetch_part(tag, record, validate=True)
            self._close_buffer(buffer)

        self._parallel_each(records, check)

    def _check_record(self, tag: str, record: ShardRecord, buffer, crc: bool = True) -> None:
        """Size + CRC32 validation of one shard against its manifest record
        (``crc=False``: the size alone).

        ``buffer`` may be heap bytes or an mmap; the checksum pass streams
        over it in bounded chunks either way.
        """
        if len(buffer) != record.nbytes:
            raise ConsistencyError(
                f"shard {record.name!r} of {tag!r} has {len(buffer)} bytes, "
                f"manifest says {record.nbytes}"
            )
        if crc and self.verify_checksums and record.checksum is not None:
            if checksum_stream(buffer) != record.checksum:
                raise ConsistencyError(
                    f"shard {record.name!r} of {tag!r} failed its checksum"
                )

    def verify_tensor_checksums(self, tag: str, record: ShardRecord) -> None:
        """Validate each tensor payload against the per-tensor CRC32 records
        written by the parallel flush path, pinpointing corruption to a key."""
        if record.tensor_checksums is None:
            raise RestartError(
                f"shard {record.name!r} of {tag!r} carries no per-tensor checksums"
            )
        buffer = self._fetch_part(tag, record, validate=False)
        try:
            self._verify_entries(tag, record, self._buffer_data(buffer))
        finally:
            self._close_buffer(buffer)

    def _verify_entries(self, tag: str, record: ShardRecord, buffer) -> None:
        view = memoryview(buffer)
        header, _skeleton, payload_start = decode_preamble(buffer)
        if len(header.entries) != len(record.tensor_checksums):
            raise ConsistencyError(
                f"shard {record.name!r} of {tag!r} has {len(header.entries)} tensors "
                f"but {len(record.tensor_checksums)} checksum records"
            )
        for entry, expected in zip(header.entries, record.tensor_checksums):
            start = payload_start + entry.offset
            actual = checksum_stream(view[start : start + entry.nbytes])
            if actual != expected:
                raise ConsistencyError(
                    f"tensor {entry.key!r} of shard {record.name!r} ({tag!r}) "
                    f"failed its checksum"
                )

    # -- the fetch + validate stage ----------------------------------------------
    @staticmethod
    def _buffer_data(buffer):
        """The bytes-like payload of a fetched part (unwraps a MappedShard)."""
        return buffer.data if isinstance(buffer, MappedShard) else buffer

    @staticmethod
    def _close_buffer(buffer) -> None:
        """Release a fetched part (no-op for heap bytes)."""
        if isinstance(buffer, MappedShard):
            buffer.close()

    def _release(self, buffers: Sequence[Any], checks: Sequence[Future]) -> None:
        """Close fetched parts once the pending checks on them have finished:
        a map closed while its check still reads it would stay mapped."""
        wait(checks)
        for buffer in buffers:
            self._close_buffer(buffer)

    @staticmethod
    def _join_checks(checks: Sequence[Future]) -> None:
        """Wait for every pending check, then raise the first that failed."""
        wait(checks)
        for check in checks:
            check.result()

    def _fetch_part(self, tag: str, record: ShardRecord, validate: bool):
        """Fetch and check one shard part, recording its wall time for auto mode."""
        buffer, seconds = self._fetch_timed(tag, record, validate)
        try:
            self._finish_fetch(tag, record, validate, buffer, seconds)
        except BaseException:
            self._close_buffer(buffer)
            raise
        return buffer

    def _fetch_timed(self, tag: str, record: ShardRecord, validate: bool) -> Tuple[Any, float]:
        """``(part, seconds taken)`` of one :meth:`_fetch_part_untimed`."""
        started = time.perf_counter()
        buffer = self._fetch_part_untimed(tag, record, validate)
        return buffer, time.perf_counter() - started

    def _finish_fetch(self, tag: str, record: ShardRecord, validate: bool,
                      buffer, seconds: float) -> None:
        """Run a fetched map's CRC32 pass, then record the part's fetch time
        for auto mode: ``seconds`` plus the pass, not any wait before it."""
        started = time.perf_counter()
        if validate and isinstance(buffer, MappedShard):
            self._check_record(tag, record, buffer.data)
        with self._timing_lock:
            self._fetch_seconds.append(seconds + time.perf_counter() - started)

    def _fetch_part_untimed(self, tag: str, record: ShardRecord, validate: bool):
        """Fetch one shard part (mmap or whole read) and optionally validate
        it (a map's size only: :meth:`_finish_fetch` runs its CRC32 pass);
        never leaks the mapping on a validation failure.

        Store-level read failures (an outage, a flaky device, a vanished
        object) surface as :class:`~repro.exceptions.CheckpointError` rather
        than raw ``OSError`` — the restore path's loud-failure contract."""
        if self.use_mmap:
            try:
                mapped = self.store.open_shard_mmap(tag, record.name)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot map shard {record.name!r} of {tag!r}: {exc}") from exc
            try:
                if validate:
                    self._check_record(tag, record, mapped.data, crc=False)
            except BaseException:
                mapped.close()
                raise
            return mapped
        try:
            return self._read_part(tag, record, validate)
        except OSError as exc:
            raise CheckpointError(
                f"cannot read shard {record.name!r} of {tag!r}: {exc}") from exc

    def _read_part(self, tag: str, record: ShardRecord, validate: bool) -> memoryview:
        """Land one shard part, without mapping it, in a buffer this restore owns.

        Every store fills the buffer with one ``read_shard(out=)`` call, sized
        from the manifest (a store holding a different size fails it).  The
        size + CRC32 check runs on the landed bytes here, in the prefetch
        worker, and the checked shard image is then moved up by the < 64
        bytes that put its payload on a 64-byte boundary: every consumer
        decodes the returned view like any shard buffer, and a materialising
        restore returns aligned views of it.
        """
        nbytes = record.nbytes
        # Not np.empty: NumPy requests huge pages from 4 MiB up, and where the
        # kernel grants them on request only, first touches stall in compaction
        # (incr_cas restores 75-113 ms_ref, 50-54 with this zero fill instead).
        landing = np.frombuffer(bytearray(nbytes + _PAYLOAD_ALIGN - 1), dtype=np.uint8)
        whole = memoryview(landing)
        image = self.store.read_shard(tag, record.name, out=whole[:nbytes])
        if validate:
            self._check_record(tag, record, image)
        try:
            payload_start = decode_preamble(image)[2]
        except SerializationError:
            return image  # whoever decodes it next reports it
        shift = -(landing.ctypes.data + payload_start) % _PAYLOAD_ALIGN
        if shift:
            moved = whole[shift:shift + len(image)]
            moved[:] = image  # overlapping: a memmove inside just-checked memory
            image = moved
        return image

    def _iter_prefetched_sets(self, tag: str, sets: Sequence[_SetItem], validate: bool
                              ) -> Iterator[Tuple[Any, List[ShardRecord], List[Any], List[Future]]]:
        """Yield ``(key, records, buffers, checks)`` per logical shard, prefetching ahead.

        The fetch+validate stage runs on ``prefetch_depth`` bounded workers
        with at most ``prefetch_depth`` parts in flight, so while the consumer
        deserializes one shard-set the next parts (of this set, and of later
        sets/ranks) are already being read and checksummed.  ``checks`` are
        the CRC32 passes of the set's maps, still running, for the consumer
        to join.  Ownership of the yielded buffers and checks passes to the
        consumer; those of sets never yielded (because a fetch or the
        consumer failed) are released here, so no mmap handle outlives an
        aborted restore.

        ``prefetch_depth`` 1 is the strictly serial path (every check done
        before its set is yielded, ``checks`` empty); 0 resolves to a
        measured depth (see :attr:`effective_prefetch_depth`).
        """
        parts = [(set_index, record)
                 for set_index, (_key, records) in enumerate(sets)
                 for record in records]
        resolved_depth = self.effective_prefetch_depth
        if resolved_depth <= 1:
            for key, records in sets:
                yield key, records, self._fetch_set(tag, records, validate), []
            return

        depth = min(resolved_depth, len(parts))
        pending: deque = deque()      # (set_index, record, future), submission order
        ready: Dict[int, List[Any]] = {}
        checking: Dict[int, List[Future]] = {}
        next_part = 0
        emitted = 0
        with ThreadPoolExecutor(max_workers=depth,
                                thread_name_prefix="ckpt-prefetch") as pool:
            try:
                while emitted < len(sets):
                    while next_part < len(parts) and len(pending) < resolved_depth:
                        set_index, record = parts[next_part]
                        pending.append((set_index, record,
                                        pool.submit(self._fetch_timed, tag, record, validate)))
                        next_part += 1
                    set_index, record, future = pending.popleft()
                    # Futures retire in submission order here, so each set's
                    # buffers accumulate in part order.
                    buffer, seconds = future.result()
                    ready.setdefault(set_index, []).append(buffer)
                    if validate and isinstance(buffer, MappedShard):
                        # Its CRC32 pass runs beside the consumer's copy out of it.
                        checking.setdefault(set_index, []).append(pool.submit(
                            self._finish_fetch, tag, record, validate, buffer, seconds))
                    else:
                        self._finish_fetch(tag, record, validate, buffer, seconds)
                    while (emitted < len(sets)
                           and len(ready.get(emitted, ())) == len(sets[emitted][1])):
                        key, records = sets[emitted]
                        buffers, checks = ready.pop(emitted), checking.pop(emitted, [])
                        emitted += 1
                        yield key, records, buffers, checks
            except BaseException:
                # A fetch failed or the consumer bailed (including
                # GeneratorExit): drain the in-flight fetches and release
                # every buffer still owned by the pipeline.
                owned = [buffer for buffers in ready.values() for buffer in buffers]
                for _set_index, _record, future in pending:
                    try:
                        owned.append(future.result()[0])
                    except Exception:  # noqa: BLE001 - already failing
                        pass
                self._release(owned, [check for checks in checking.values()
                                      for check in checks])
                raise

    @property
    def effective_prefetch_depth(self) -> int:
        """The depth the next restore will run at.

        A positive ``prefetch_depth`` is used as-is; 0 (auto) resolves from
        the timing samples of earlier parts via
        :func:`choose_prefetch_depth` — so the first restore of a session
        starts at the default depth and later ones track the measured
        fetch/deserialize overlap ratio.
        """
        if self.prefetch_depth > 0:
            return self.prefetch_depth
        with self._timing_lock:
            fetch = list(self._fetch_seconds)
            deserialize = list(self._deserialize_seconds)
        return choose_prefetch_depth(fetch, deserialize)

    def prefetch_timings(self) -> Dict[str, List[float]]:
        """The per-part timing samples behind auto mode (newest last)."""
        with self._timing_lock:
            return {"fetch_seconds": list(self._fetch_seconds),
                    "deserialize_seconds": list(self._deserialize_seconds)}

    def _fetch_set(self, tag: str, records: Sequence[ShardRecord],
                   validate: bool) -> List[Any]:
        """Serially fetch one logical shard's parts; on any failure every
        already-opened buffer is closed before the error propagates (the
        mmap-handle leak the prefetch pipeline must also never reintroduce)."""
        buffers: List[Any] = []
        try:
            for record in records:
                buffers.append(self._fetch_part(tag, record, validate))
        except BaseException:
            for buffer in buffers:
                self._close_buffer(buffer)
            raise
        return buffers

    # -- loading ----------------------------------------------------------------------
    def restore(self, spec: Optional[RestoreSpec] = None) -> Any:
        """Execute one restore request — the single restore entry point.

        ``spec`` describes the checkpoint (``tag``, defaulting to the latest
        committed), the slice (``rank`` / ``shard`` / ``all_ranks``; a bare
        loader with no selector restores all ranks), an optional
        ``target_topology`` for an elastic (reshaping) restore, and per-call
        overrides of the loader's validate/materialize/mmap/prefetch
        defaults.  :meth:`repro.core.CheckpointEngine.load` routes through
        here, so every engine's restores share one validation +
        deserialization path.
        """
        spec = spec if spec is not None else RestoreSpec()
        loader = self._with_options(spec)
        tag = spec.tag if spec.tag is not None else loader._latest_tag()
        if spec.target_topology is not None:
            return loader._restore_reshaped(tag, spec)
        if spec.shard is not None:
            return loader._load_shard(tag, spec.shard, validate=spec.validate)
        if spec.rank is not None:
            return loader._load_rank(tag, spec.rank, validate=spec.validate)
        return loader._load_all(tag, validate=spec.validate)

    def _with_options(self, spec: RestoreSpec) -> "CheckpointLoader":
        """A shallow clone with the spec's option overrides applied."""
        if (spec.materialize is None and spec.use_mmap is None
                and spec.prefetch_depth is None):
            return self
        clone = copy.copy(self)
        if spec.materialize is not None:
            clone.materialize = spec.materialize
        if spec.use_mmap is not None:
            clone.use_mmap = bool(spec.use_mmap and supports_mmap(self.store))
        if spec.prefetch_depth is not None:
            clone.prefetch_depth = spec.prefetch_depth
        return clone

    def _latest_tag(self) -> str:
        """Tag of the latest committed checkpoint; loud when there is none."""
        info = self.latest()
        if info is None:
            raise RestartError("no committed checkpoints to restore")
        return info.tag

    def _restore_reshaped(self, tag: str, spec: RestoreSpec) -> Any:
        """Elastic restore of ``spec.rank`` (default: every rank) of the target
        grid.  :class:`~repro.restart.reshape.Remap` plans from the manifest
        alone which source ranks the requested slices are made of; only their
        shard-sets are fetched (like any restore: mapped or read, size/CRC
        checked, prefetched), decoded to views and copied straight into the
        target arrays.  What ``spec.validate`` cross-checks is described there.
        The arrays returned are owned and writable, and every buffer is
        released on return, not by a later GC."""
        from .reshape import Remap

        manifest = self.manifest(tag)
        if manifest.topology is None:
            raise RestartError(
                f"checkpoint {tag!r} carries no save-time topology block "
                "(manifest schema < 4); it can only be restored into the "
                "layout that saved it")
        plan = Remap(manifest.topology, spec.target_topology, spec.rank)
        sets = [item for rank in sorted(plan.source_ranks)
                for item in manifest.shard_sets_of_rank(rank).items()]
        if len(sets) != len(plan.source_ranks):
            raise RestartError(
                f"checkpoint {tag!r} does not hold exactly one logical shard for "
                f"each of the source ranks {sorted(plan.source_ranks)[:8]}")
        held: List[Any] = []
        checks: List[Future] = []
        sources: Dict[int, Any] = {}
        busy = 0.0  # decode + remap wall time, fetch and check waits excluded
        try:
            for name, records, buffers, set_checks in self._iter_prefetched_sets(
                    tag, sets, spec.validate):
                held.extend(buffers)
                checks.extend(set_checks)
                started, rank = time.perf_counter(), records[0].rank
                try:
                    skeleton, arrays = decode_rank_state(
                        [self._buffer_data(buffer) for buffer in buffers], copy=False)
                    try:
                        # Kept in no local: this frame outlives a failed restore
                        # in its traceback, and must not pin a view of a map.
                        sources[rank] = unflatten_state_dict(skeleton, arrays)
                    finally:
                        # unflatten's closure cycle owns this list until the
                        # cyclic GC runs; emptied, it pins no view either.
                        del arrays[:]
                except Exception as exc:
                    traceback.clear_frames(exc.__traceback__)  # they hold views of the maps
                    raise RestartError(
                        f"cannot deserialize shard {name!r} of {tag!r}: {exc}") from exc
                if isinstance(sources[rank], dict) and sources[rank].get("extra") is not None:
                    sources[rank]["extra"] = copy.deepcopy(sources[rank]["extra"])
                busy += time.perf_counter() - started
            started = time.perf_counter()
            states = plan.run(sources, validate=spec.validate)
            busy += time.perf_counter() - started
        except BaseException as exc:
            # The frames below this one still hold views of the buffers; a failed
            # check outranks what its bytes broke (a decode, a coordinate, a twin).
            traceback.clear_frames(exc.__traceback__)
            self._join_checks(checks)
            raise
        finally:
            sources.clear()
            self._release(held, checks)
        self._join_checks(checks)
        # Auto mode's per-part deserialize cost, amortised as in _deserialize_set.
        with self._timing_lock:
            self._deserialize_seconds.extend([busy / max(1, len(held))] * len(held))
        return states[spec.rank] if spec.rank is not None else states

    def _load_shard(self, tag: str, shard_name: str, validate: bool = True) -> Any:
        """Load one logical shard by name, validated against the manifest.

        ``shard_name`` may be a shard file's name (v1 layout) or the *group*
        name of a rank's multi-shard set (e.g. ``rank0`` when the files are
        ``rank0-s00`` ... ``rank0-s03``) — the set is then validated and
        reassembled into the rank's state.
        """
        manifest = self.manifest(tag)
        for record in manifest.shards:
            if record.name == shard_name:
                if record.in_shard_set:
                    # A single part of a set cannot be unflattened alone; the
                    # caller almost certainly wants the whole logical shard.
                    raise RestartError(
                        f"{shard_name!r} is part {record.part_index} of shard-set "
                        f"{record.group!r} in checkpoint {tag!r}; load the set by "
                        f"its group name: RestoreSpec.of_shard({record.group!r})"
                    )
                return self._load_shard_set(tag, [record], validate=validate)
        group_rank = next((record.rank for record in manifest.shards
                           if record.in_shard_set and record.group == shard_name), None)
        if group_rank is not None:
            # shard_sets_of_rank validates set completeness (every part_index
            # present), so this path diagnoses a pruned/corrupt manifest the
            # same way a rank restore does.
            records = manifest.shard_sets_of_rank(group_rank)[shard_name]
            return self._load_shard_set(tag, records, validate=validate)
        recorded = sorted({record.group or record.name for record in manifest.shards})
        raise RestartError(
            f"checkpoint {tag!r} has no shard {shard_name!r} (has: {recorded[:4]} ...)"
        )

    def _load_rank(self, tag: str, rank: int, validate: bool = True) -> Any:
        """Load the state of one rank from its shard(s).

        Handles both layouts: a v1 single shard is loaded directly; a v2
        multi-shard set is fetched + validated through the prefetch pipeline
        and reassembled.  A rank that wrote several *independent* logical
        shards (distinct custom shard names) comes back as a dict keyed by
        logical name, as before.  ``validate=False`` skips the per-shard
        size/CRC checks (set completeness is still enforced).
        """
        manifest = self.manifest(tag)
        shard_sets = manifest.shard_sets_of_rank(rank)
        if not shard_sets:
            raise RestartError(f"checkpoint {tag!r} holds no shards for rank {rank}")
        # Not a comprehension: its frame, in a failure's traceback, pins the pipeline.
        loaded = {}
        for name, records, buffers, checks in self._iter_prefetched_sets(
                tag, list(shard_sets.items()), validate):
            loaded[name] = self._deserialize_set(tag, records, buffers, checks)
        if len(loaded) == 1:
            return next(iter(loaded.values()))
        return loaded

    def _load_all(self, tag: str, validate: bool = True) -> Dict[int, Any]:
        """Load the state of every rank; per-shard validation is optional.

        Validation is folded into the load: each shard's size/CRC32 is
        verified on the same buffer the arrays are rebuilt from, so every
        shard is read (or mapped) exactly once — and the prefetch pipeline
        overlaps the fetch+validate of upcoming shards (across ranks) with
        the deserialization of the current one.

        ``validate=False`` skips the per-shard size/CRC32 checks entirely —
        use it when the medium is trusted and restore latency matters.
        Manifest completeness (every rank present, every shard-set whole) is
        checked either way; torn or pruned checkpoints are still rejected.
        """
        manifest = self.manifest(tag)
        manifest.validate_complete()
        sets: List[_SetItem] = []
        for rank in sorted({record.rank for record in manifest.shards}):
            for name, records in manifest.shard_sets_of_rank(rank).items():
                sets.append(((rank, name), records))
        per_rank: Dict[int, Dict[str, Any]] = {}
        for (rank, name), records, buffers, checks in self._iter_prefetched_sets(
                tag, sets, validate):
            per_rank.setdefault(rank, {})[name] = \
                self._deserialize_set(tag, records, buffers, checks)
        return {rank: next(iter(loaded.values())) if len(loaded) == 1 else loaded
                for rank, loaded in per_rank.items()}

    def _load_shard_set(self, tag: str, records: List[ShardRecord],
                        validate: bool = True) -> Any:
        """Fetch + validate + reassemble one logical shard (1..N parts)."""
        for _key, recs, buffers, checks in self._iter_prefetched_sets(
                tag, [(records[0].group or records[0].name, list(records))], validate):
            return self._deserialize_set(tag, recs, buffers, checks)
        raise RestartError(f"checkpoint {tag!r} shard-set is empty")  # pragma: no cover

    def _deserialize_set(self, tag: str, records: Sequence[ShardRecord],
                         buffers: List[Any], checks: Sequence[Future]) -> Any:
        """Rebuild one logical shard's state; always releases the buffers.

        The one copy rule: copy only when materialising out of a read-only
        buffer (a map, a ``bytes``).  The arrays of a landing buffer are
        writable views of memory this restore owns; materialising copies
        just those whose slot is misaligned for their dtype.  With
        ``materialize=False`` the arrays are views into the maps: close()
        defers to garbage collection while any view lives.

        ``checks`` (the maps' pending CRC32 passes) run beside the copy and
        are joined before anything is returned; a failed one outranks a
        decode error.  Views are built only once their map has passed.
        """
        try:
            datas = [self._buffer_data(buffer) for buffer in buffers]
            copy = self.materialize and memoryview(datas[0]).readonly
            if not copy:
                self._join_checks(checks)
            started = time.perf_counter()
            try:
                skeleton, arrays = decode_rank_state(datas, copy=copy)
                if self.materialize and not copy:
                    arrays = [array if array.flags.aligned else array.copy()
                              for array in arrays]
                state = unflatten_state_dict(skeleton, arrays)
            except Exception as exc:
                self._join_checks(checks)
                raise RestartError(
                    f"cannot deserialize shard "
                    f"{records[0].group or records[0].name!r} of {tag!r}: {exc}"
                ) from exc
            # Per-part deserialize cost for auto mode: the set is rebuilt as
            # one unit, so the wall time is amortised over its parts.
            per_part = (time.perf_counter() - started) / max(1, len(records))
            self._join_checks(checks)
            with self._timing_lock:
                self._deserialize_seconds.extend([per_part] * len(records))
            return state
        finally:
            self._release(buffers, checks)

    # -- housekeeping --------------------------------------------------------------------
    def prune_uncommitted(self) -> List[str]:
        """Delete torn (manifest-less) checkpoint directories; returns the tags removed.

        Safe to run concurrently with an in-flight save: an uncommitted
        writer whose checkpoint is pruned from under it fails its publish
        with a :class:`~repro.exceptions.CheckpointError` instead of
        resurrecting the deleted checkpoint.
        """
        committed = set(self.store.list_committed_checkpoints())
        removed = []
        for tag in self.store.list_checkpoints():
            if tag not in committed:
                self.store.delete_checkpoint(tag)
                removed.append(tag)
                logger.info("pruned uncommitted checkpoint %s", tag)
        return removed

    def keep_latest(self, count: int) -> List[str]:
        """Delete all but the newest ``count`` committed checkpoints.

        ``keep_latest(0)`` deliberately deletes *every* committed checkpoint
        — the "wipe the history" form callers use when retiring a run.
        """
        if count < 0:
            raise RestartError("count must be >= 0")
        infos = self.committed_checkpoints()
        to_remove = infos[:-count] if count else infos
        removed = []
        for info in to_remove:
            self.store.delete_checkpoint(info.tag)
            removed.append(info.tag)
        return removed
