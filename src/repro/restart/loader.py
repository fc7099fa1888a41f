"""Restart path: discovering, validating, and loading committed checkpoints.

Only checkpoints with a published manifest are restorable; anything else is a
torn checkpoint left behind by a crash mid-flush and is ignored (or can be
garbage-collected with :meth:`CheckpointLoader.prune_uncommitted`).  Shard
files are validated against the manifest's size and CRC32 before their
contents are handed back to the trainer.

A loader takes a store and nothing else; each restore is configured by its
:class:`~repro.restart.RestoreSpec`, whose two options are ``validate`` and
``use_mmap``.  By default shards are restored through a read-only mmap (on
stores that can map): the CRC32 is verified by streaming over the buffer in
bounded chunks, so a multi-hundred-MB shard is validated and loaded without
ever holding a second full copy of it in heap memory.  Every other part — on
a store that cannot map (an object store, a CAS store) or with
``RestoreSpec(use_mmap=False)`` — is landed by one ``read_shard(out=)`` call
in one buffer owned by the restore, and checked in place in the prefetch
worker.

Every restore — a single shard, one rank, every rank, or (with
``spec.target_topology``) an elastic restore into another parallel layout —
is one **executor** over one **plan** (:meth:`CheckpointLoader._execute`).
Each fetched set is decoded to views of its buffers and handed to the plan;
when the plan answers ``(states, moves)``, its ``(target, source)`` moves run
through :func:`copy_grouped`, the checks of the buffers they read are joined
and those buffers are released.  Two plans exist:

* the **identity plan** of a plain restore answers per set: a map's arrays
  each get a target and one whole-tensor move, so the result is writable and
  the map can be released; a landing buffer's arrays are returned as the
  views they already are, save one misaligned for its dtype (mixed dtypes
  pack without padding);
* the **reshape plan** is :class:`~repro.restart.reshape.Remap`: it reads
  only the source ranks the requested target slices are made of and answers
  once the last is decoded, copying each source window straight into the
  target arrays.

Targets come from one helper, :func:`empty_arrays`: a rank's large arrays
share one slab, faulted in huge pages where per-array allocations would each
be a fresh mapping faulted 4 KiB at a time.  The copies are bound by those
first-touch faults, not by memcpy, so :func:`copy_grouped` splits the moves
into :data:`PREFETCH_DEPTH` groups balanced by bytes: the consumer copies one
and the prefetch workers the others.  A restore returns writable, aligned
views of memory it allocated itself, never of a map.

Every fetch — a restore, :meth:`CheckpointLoader.validate` and
:meth:`CheckpointLoader.verify_tensor_checksums` — runs through one
**prefetch pipeline** (:meth:`CheckpointLoader._iter_prefetched_sets`):
:data:`PREFETCH_DEPTH` bounded workers fetch and CRC-validate shard parts
ahead of the decode, across the parts of a set and across ranks.  A mapped
part's CRC32 pass runs on a worker while its arrays are copied out.  A
restore with ``validate=True`` never reads a shard twice, returns nothing
(and closes no map) before its parts' checks have passed, and reports a
failed check over any decode, compare or copy error its corrupt bytes
caused.  ``validate=False`` skips the per-shard size/CRC checks entirely
(manifest completeness is still enforced).
"""

from __future__ import annotations

import math
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
from ..serialization.shard_plan import _binned_indices
from ..tensor import unflatten_state_dict
from .spec import RestoreSpec

logger = get_logger(__name__)

#: Shard parts fetched and checked ahead of deserialization, the workers
#: doing it, and the groups a restore's copies run in (:func:`copy_grouped`).
PREFETCH_DEPTH = 4

#: A non-mapped part is landed so that its payload starts on this boundary,
#: and every slab array of :func:`empty_arrays` starts on it too.
_PAYLOAD_ALIGN = 64

#: Arrays of at least this many bytes share their restore's slab
#: (:func:`empty_arrays`).  It is glibc's default ``M_MMAP_THRESHOLD``: from
#: it up every allocation is a fresh mapping, faulted 4 KiB at a time on
#: first touch (NumPy asks for huge pages only from 4 MiB), while one slab
#: that large is faulted in huge pages.  Below it malloc recycles heap memory
#: that is already faulted, so those arrays keep their own allocations.
SLAB_MIN_BYTES = 128 * 1024

#: How many of the most recent per-part timing samples are kept.
_TIMING_WINDOW = 256

#: One logical shard to restore: a set key and the records of its parts.
_SetItem = Tuple[Any, List[ShardRecord]]

#: One copy of a restore: ``(target window, source window)``.
CopyPair = Tuple[np.ndarray, np.ndarray]

#: A restore's plan (:meth:`CheckpointLoader._execute`) is given each set
#: decoded to ``(skeleton, views of its buffers)`` and not yet answered for,
#: by key, and answers ``None`` (wait for more) or ``(states by key, moves)``.
_Decoded = Tuple[Any, List[np.ndarray]]
_Answer = Tuple[Dict[Any, Any], List[CopyPair]]
_Plan = Callable[[Dict[Any, _Decoded]], Optional[_Answer]]


def copy_pairs(pairs: Sequence[CopyPair], indices: Iterable[int]) -> None:
    """Copy each source window into its target window, for the ``pairs`` at
    ``indices``: one group of :func:`copy_grouped`."""
    for index in indices:
        np.copyto(*pairs[index])


def copy_grouped(pairs: List[CopyPair], pool: Optional[ThreadPoolExecutor] = None) -> None:
    """Run every ``(target, source)`` copy of ``pairs``: the one copy step of
    every restore (:meth:`CheckpointLoader._execute`) and in-memory reshape.

    With a ``pool`` (a restore's prefetch workers) the pairs are split into
    :data:`PREFETCH_DEPTH` groups balanced by bytes: this thread copies the
    first, ``pool`` the others.  The copy is bound by first-touch page
    faults on the fresh targets, and faults taken on different threads run
    in parallel.  Without one, this thread copies every pair.

    Every group has finished, and ``pairs`` is emptied, before this returns
    or raises: a finished task still pins its arguments for a moment, and
    must not pin a view of a map that is about to close.
    """
    futures: List[Future] = []
    try:
        groups = ([range(len(pairs))] if pool is None else
                  [group for group in _binned_indices([target.nbytes for target, _ in pairs],
                                                      PREFETCH_DEPTH) if group])
        for group in groups[1:]:
            futures.append(pool.submit(copy_pairs, pairs, group))
        for group in groups[:1]:
            copy_pairs(pairs, group)
    finally:
        wait(futures)
        del pairs[:]
    for future in futures:
        future.result()


def empty_arrays(specs: Sequence[Tuple[Tuple[int, ...], np.dtype]]) -> List[np.ndarray]:
    """Fresh, writable arrays of the ``(shape, dtype)`` of each of ``specs``:
    the destinations of one restored rank's copies.

    Every array of at least :data:`SLAB_MIN_BYTES` is a view of one
    ``np.empty`` slab, starting on a 64-byte boundary; a smaller one is its
    own ``np.empty``.  One live slab array keeps the whole slab alive.
    """
    sized = [(shape, dtype, math.prod(shape) * dtype.itemsize) for shape, dtype in specs]
    offsets: List[Optional[int]] = []
    total = 0
    for _shape, _dtype, nbytes in sized:
        if nbytes < SLAB_MIN_BYTES:
            offsets.append(None)
        else:
            offsets.append(total)
            total += nbytes + -nbytes % _PAYLOAD_ALIGN
    slab = np.empty(total + _PAYLOAD_ALIGN - 1, np.uint8)
    slab = slab[-slab.ctypes.data % _PAYLOAD_ALIGN:]
    return [np.empty(shape, dtype) if offset is None else
            slab[offset:offset + nbytes].view(dtype).reshape(shape)
            for (shape, dtype, nbytes), offset in zip(sized, offsets)]


def _identity_plan(decoded: Dict[Any, _Decoded]) -> _Answer:
    """The plan of a plain restore: each set answered as soon as it is
    decoded, as its own state, so an all-ranks restore releases each rank's
    buffers once they are copied.

    One rule decides what is copied: a view that is read-only (of a map) or
    misaligned for its dtype gets an :func:`empty_arrays` target and one
    whole-tensor move; every other view (of a landing buffer) is returned
    as it is.
    """
    ((key, (skeleton, views)),) = decoded.items()
    copied = [index for index, view in enumerate(views)
              if not (view.flags.writeable and view.flags.aligned)]
    targets = list(views)
    for index, target in zip(copied, empty_arrays([(views[index].shape, views[index].dtype)
                                                   for index in copied])):
        targets[index] = target
    return ({key: unflatten_state_dict(skeleton, targets)},
            [(targets[index], views[index]) for index in copied])


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

    def __init__(self, store: ShardStore) -> None:
        self.store = store
        # Per-part wall times of this loader's restores (prefetch_timings()).
        self._timing_lock = threading.Lock()
        self._fetch_seconds: deque = deque(maxlen=_TIMING_WINDOW)
        self._deserialize_seconds: deque = deque(maxlen=_TIMING_WINDOW)

    # -- discovery ---------------------------------------------------------
    def committed_checkpoints(self) -> List[CheckpointInfo]:
        """All committed checkpoints, oldest (by iteration, then tag) first."""
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

        The parts are fetched and checked through the restore's prefetch
        pipeline, so the CRC32 passes over a multi-part checkpoint overlap.
        """
        manifest = self.manifest(tag)
        manifest.validate_complete()
        sets = [(record.name, [record]) for record in manifest.shards]
        for _name, _records, buffers, checks, _pool in self._iter_prefetched_sets(
                tag, sets, validate=True, mmap=supports_mmap(self.store)):
            try:
                self._join_checks(checks)
            finally:
                self._release(buffers, checks)
        return manifest

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
        if crc and record.checksum is not None:
            if checksum_stream(buffer) != record.checksum:
                raise ConsistencyError(
                    f"shard {record.name!r} of {tag!r} failed its checksum"
                )

    def verify_tensor_checksums(self, tag: str, record: ShardRecord) -> None:
        """Validate each tensor payload against the record's per-tensor
        CRC32s, pinpointing corruption to a key.  Every record written now
        carries them; a record of an older manifest without them raises
        :class:`RestartError`."""
        if record.tensor_checksums is None:
            raise RestartError(
                f"shard {record.name!r} of {tag!r} carries no per-tensor checksums"
            )
        for _name, _records, buffers, checks, _pool in self._iter_prefetched_sets(
                tag, [(record.name, [record])], validate=False,
                mmap=supports_mmap(self.store)):
            try:
                self._verify_entries(tag, record, self._buffer_data(buffers[0]))
            finally:
                self._release(buffers, checks)

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

    def _fetch(self, tag: str, record: ShardRecord, validate: bool,
               mmap: bool) -> Tuple[Any, float]:
        """``(part, seconds taken)``: one shard part mapped or landed, and
        optionally validated (a map's size only: its CRC32 pass runs in
        :meth:`_check_mapped`); never leaks the mapping on a failure.

        Store-level read failures (an outage, a flaky device, a vanished
        object) surface as :class:`~repro.exceptions.CheckpointError` rather
        than raw ``OSError`` — the restore path's loud-failure contract."""
        started = time.perf_counter()
        if mmap:
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
            return mapped, time.perf_counter() - started
        try:
            return self._read_part(tag, record, validate), time.perf_counter() - started
        except OSError as exc:
            raise CheckpointError(
                f"cannot read shard {record.name!r} of {tag!r}: {exc}") from exc

    def _check_mapped(self, tag: str, record: ShardRecord, buffer: MappedShard,
                      seconds: float) -> None:
        """A fetched map's CRC32 pass; its time counts toward the part's fetch."""
        started = time.perf_counter()
        self._check_record(tag, record, buffer.data)
        self._record_fetch(seconds + time.perf_counter() - started)

    def _record_fetch(self, seconds: float) -> None:
        with self._timing_lock:
            self._fetch_seconds.append(seconds)

    def _read_part(self, tag: str, record: ShardRecord, validate: bool) -> memoryview:
        """Land one shard part, without mapping it, in a buffer this restore owns.

        Every store fills the buffer with one ``read_shard(out=)`` call, sized
        from the manifest (a store holding a different size fails it).  The
        size + CRC32 check runs on the landed bytes here, in the prefetch
        worker, and the checked shard image is then moved up by the < 64
        bytes that put its payload on a 64-byte boundary: every consumer
        decodes the returned view like any shard buffer, and a restore
        returns aligned views of it.
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

    def _iter_prefetched_sets(self, tag: str, sets: Sequence[_SetItem], validate: bool,
                              mmap: bool
                              ) -> Iterator[Tuple[Any, List[ShardRecord], List[Any], List[Future],
                                                  ThreadPoolExecutor]]:
        """Yield ``(key, records, buffers, checks, pool)`` per logical shard,
        prefetching ahead.

        The fetch+validate stage runs on :data:`PREFETCH_DEPTH` bounded
        workers with at most that many parts in flight, so while the consumer
        deserializes one shard-set the next parts (of this set, and of later
        sets/ranks) are already being read and checksummed.  ``checks`` are
        the CRC32 passes of the set's maps, still running, for the consumer
        to join; ``pool`` is the workers themselves, for the consumer to run
        its copies on (:func:`copy_grouped`; it has :data:`PREFETCH_DEPTH`
        workers even for one part) before it asks for the next set: the pool
        is shut down once the last set has been consumed.  Ownership of the
        yielded buffers and checks passes to the consumer; those of sets
        never yielded (because a fetch or the consumer failed) are released
        here, so no mmap handle outlives an aborted restore.
        """
        parts = [(set_index, record)
                 for set_index, (_key, records) in enumerate(sets)
                 for record in records]
        pending: deque = deque()      # (set_index, record, future), submission order
        ready: Dict[int, List[Any]] = {}
        checking: Dict[int, List[Future]] = {}
        next_part = 0
        emitted = 0
        with ThreadPoolExecutor(max_workers=PREFETCH_DEPTH,
                                thread_name_prefix="ckpt-prefetch") as pool:
            try:
                while emitted < len(sets):
                    while next_part < len(parts) and len(pending) < PREFETCH_DEPTH:
                        set_index, record = parts[next_part]
                        pending.append((set_index, record,
                                        pool.submit(self._fetch, tag, record, validate, mmap)))
                        next_part += 1
                    set_index, record, future = pending.popleft()
                    # Futures retire in submission order here, so each set's
                    # buffers accumulate in part order.
                    buffer, seconds = future.result()
                    ready.setdefault(set_index, []).append(buffer)
                    if validate and isinstance(buffer, MappedShard):
                        # Its CRC32 pass runs beside the consumer's copy out of it.
                        checking.setdefault(set_index, []).append(pool.submit(
                            self._check_mapped, tag, record, buffer, seconds))
                    else:
                        self._record_fetch(seconds)
                    while (emitted < len(sets)
                           and len(ready.get(emitted, ())) == len(sets[emitted][1])):
                        key, records = sets[emitted]
                        buffers, checks = ready.pop(emitted), checking.pop(emitted, [])
                        emitted += 1
                        yield key, records, buffers, checks, pool
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
        """The depth every restore runs at: :data:`PREFETCH_DEPTH`."""
        return PREFETCH_DEPTH

    def prefetch_timings(self) -> Dict[str, List[float]]:
        """Per-part fetch (+ check) and deserialize wall times of this
        loader's restores, newest last."""
        with self._timing_lock:
            return {"fetch_seconds": list(self._fetch_seconds),
                    "deserialize_seconds": list(self._deserialize_seconds)}

    # -- loading ----------------------------------------------------------------------
    def restore(self, spec: Optional[RestoreSpec] = None) -> Any:
        """Execute one restore request — the single restore entry point.

        ``spec`` describes the checkpoint (``tag``, defaulting to the latest
        committed), the slice (``rank`` / ``shard`` / ``all_ranks``; a bare
        loader with no selector restores all ranks), an optional
        ``target_topology`` for an elastic (reshaping) restore, and the two
        options ``validate`` and ``use_mmap``.  Every engine's
        :meth:`~repro.core.CheckpointEngine.load` routes through here.

        A shard or a rank comes back as its state — a rank that wrote
        several *independent* logical shards (distinct custom shard names)
        as a dict keyed by logical name; every rank as ``{rank: state}``.
        """
        spec = spec if spec is not None else RestoreSpec()
        tag = spec.tag if spec.tag is not None else self._latest_tag()
        mmap = spec.use_mmap and supports_mmap(self.store)
        manifest = self.manifest(tag)
        plan = self._plain_plan if spec.target_topology is None else self._reshape_plan
        states = self._execute(tag, *plan(tag, manifest, spec), spec.validate, mmap)
        if spec.target_topology is None:
            per_rank: Dict[int, Dict[str, Any]] = {}
            for (rank, name), state in states.items():
                per_rank.setdefault(rank, {})[name] = state
            states = {rank: next(iter(named.values())) if len(named) == 1 else named
                      for rank, named in per_rank.items()}
        if spec.shard is not None or spec.rank is not None:
            return next(iter(states.values()))
        return states

    def _latest_tag(self) -> str:
        """Tag of the latest committed checkpoint; loud when there is none."""
        info = self.latest()
        if info is None:
            raise RestartError("no committed checkpoints to restore")
        return info.tag

    def _plain_plan(self, tag: str, manifest: CheckpointManifest,
                    spec: RestoreSpec) -> Tuple[List[_SetItem], _Plan]:
        """``(sets, plan)`` of a plain restore: every logical shard of
        ``spec``'s selection, keyed ``(rank, name)``, and the identity plan."""
        if spec.shard is not None:
            return [self._shard_set(tag, manifest, spec.shard)], _identity_plan
        if spec.rank is not None:
            sets = [((spec.rank, name), records) for name, records
                    in manifest.shard_sets_of_rank(spec.rank).items()]
            if not sets:
                raise RestartError(f"checkpoint {tag!r} holds no shards for rank {spec.rank}")
            return sets, _identity_plan
        # Every rank present and every shard-set whole, validated or not.
        manifest.validate_complete()
        return [((rank, name), records)
                for rank in sorted({record.rank for record in manifest.shards})
                for name, records in manifest.shard_sets_of_rank(rank).items()], _identity_plan

    @staticmethod
    def _shard_set(tag: str, manifest: CheckpointManifest, shard_name: str) -> _SetItem:
        """The ``((rank, name), records)`` of one logical shard by name.

        ``shard_name`` may be a shard file's name (v1 layout) or the *group*
        name of a rank's multi-shard set (e.g. ``rank0`` when the files are
        ``rank0-s00`` ... ``rank0-s03``) — the set is then validated and
        reassembled into the rank's state.
        """
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
                return (record.rank, shard_name), [record]
        group_rank = next((record.rank for record in manifest.shards
                           if record.in_shard_set and record.group == shard_name), None)
        if group_rank is not None:
            # shard_sets_of_rank validates set completeness (every part_index
            # present), so this path diagnoses a pruned/corrupt manifest the
            # same way a rank restore does.
            return ((group_rank, shard_name),
                    manifest.shard_sets_of_rank(group_rank)[shard_name])
        recorded = sorted({record.group or record.name for record in manifest.shards})
        raise RestartError(
            f"checkpoint {tag!r} has no shard {shard_name!r} (has: {recorded[:4]} ...)"
        )

    @staticmethod
    def _reshape_plan(tag: str, manifest: CheckpointManifest,
                      spec: RestoreSpec) -> Tuple[List[_SetItem], _Plan]:
        """``(sets, plan)`` of an elastic restore of ``spec.rank`` (default:
        every rank) of the target grid: the shard-sets of the source ranks
        :class:`~repro.restart.reshape.Remap` finds, from the manifest alone,
        the slices are made of, and a plan that answers with
        :meth:`~repro.restart.reshape.Remap.run` (``{target rank: state}``,
        where ``spec.validate``'s cross-checks are described) once the last
        of them is decoded."""
        from .reshape import Remap

        if manifest.topology is None:
            raise RestartError(
                f"checkpoint {tag!r} carries no save-time topology block "
                "(manifest schema < 4); it can only be restored into the "
                "layout that saved it")
        remap = Remap(manifest.topology, spec.target_topology, spec.rank)
        sets = [((rank, name), records) for rank in sorted(remap.source_ranks)
                for name, records in manifest.shard_sets_of_rank(rank).items()]
        if len(sets) != len(remap.source_ranks):
            raise RestartError(
                f"checkpoint {tag!r} does not hold exactly one logical shard for "
                f"each of the source ranks {sorted(remap.source_ranks)[:8]}")

        def plan(decoded: Dict[Any, _Decoded]) -> Optional[_Answer]:
            if len(decoded) < len(sets):
                return None
            sources = {}
            for (rank, _name), (skeleton, views) in decoded.items():
                try:
                    sources[rank] = unflatten_state_dict(skeleton, views)
                finally:
                    # unflatten's closure cycle owns this list until the
                    # cyclic GC runs; emptied, it pins no view of a map.
                    del views[:]
            return remap.run(sources, validate=spec.validate)

        return sets, plan

    def _execute(self, tag: str, sets: Sequence[_SetItem], plan: _Plan, validate: bool,
                 mmap: bool) -> Dict[Any, Any]:
        """The states of every answer of ``plan``, merged: each set of
        ``sets`` fetched (:meth:`_iter_prefetched_sets`), decoded and handed
        to ``plan``.  On each answer its moves run on this thread and the
        prefetch workers (:func:`copy_grouped`), the checks of the buffers
        they read are joined — a failed one outranks a decode, plan or copy
        error — those buffers are released, and the timing is recorded.  No
        buffer outlives the call: a failure clears the frames holding views.
        """
        out: Dict[Any, Any] = {}
        decoded: Dict[Any, _Decoded] = {}
        held: List[Any] = []           # the buffers of the sets not yet answered
        checks: List[Future] = []
        busy = 0.0  # decode + plan + copy wall time, fetch and check waits excluded
        try:
            for key, records, buffers, set_checks, pool in self._iter_prefetched_sets(
                    tag, sets, validate, mmap):
                held.extend(buffers)
                checks.extend(set_checks)
                started = time.perf_counter()
                try:
                    states = self._answer(plan, decoded, key, buffers, pool)
                except Exception as exc:
                    traceback.clear_frames(exc.__traceback__)  # they hold views of the maps
                    if isinstance(exc, RestartError):
                        raise
                    raise RestartError(
                        f"cannot deserialize shard "
                        f"{records[0].group or records[0].name!r} of {tag!r}: {exc}"
                    ) from exc
                busy += time.perf_counter() - started
                if states is not None:
                    self._join_checks(checks)
                    self._release(held, checks)
                    with self._timing_lock:  # one sample per part it read
                        self._deserialize_seconds.extend([busy / len(held)] * len(held))
                    out.update(states)
                    held, checks, busy = [], [], 0.0
        except BaseException as exc:
            # A failed check outranks what its corrupt bytes broke.
            traceback.clear_frames(exc.__traceback__)
            self._join_checks(checks)
            raise
        finally:
            decoded.clear()
            self._release(held, checks)
        return out

    @staticmethod
    def _answer(plan: _Plan, decoded: Dict[Any, _Decoded], key: Any, buffers: Sequence[Any],
                pool: ThreadPoolExecutor) -> Optional[Dict[Any, Any]]:
        """One set decoded to views into ``decoded``, then ``plan`` asked;
        once it answers, its moves are run and its states returned.  A frame
        of its own: until the copies, its locals hold views of the buffers,
        and a failed restore's traceback clears this frame."""
        decoded[key] = decode_rank_state(
            [CheckpointLoader._buffer_data(buffer) for buffer in buffers], copy=False)
        answer = plan(decoded)
        if answer is None:
            return None
        decoded.clear()
        states, moves = answer
        copy_grouped(moves, pool)
        return states

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
