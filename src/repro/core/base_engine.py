"""The formal checkpoint-engine protocol shared by every real-mode engine.

:class:`CheckpointEngine` is the one interface the real NumPy pipeline
programs against — the real-mode mirror of the simulator's
:class:`~repro.checkpoint.SimCheckpointEngine`.  All four paper baselines
(§6.2: DeepSpeed-synchronous, CheckFreq-style asynchronous, TorchSnapshot,
DataStates-LLM) implement it, so the trainer, the restart path, the CLI, and
the benchmarks can swap engines by name through
:func:`~repro.core.create_real_engine` without touching any call site.

The protocol (mirroring DeepSpeed's checkpoint-engine interface plus the one
extra call the paper adds):

``save(state, tag, iteration=-1, shard_name=None) -> CheckpointHandle``
    Request a checkpoint of ``state``.  ``save`` is concrete — one template
    in :class:`CheckpointEngine` flattens, plans, resolves the incremental
    base, registers the :class:`CheckpointHandle` and casts the rank's
    single vote once every part is durable.  An engine implements only
    ``_write_parts(handle, plan, parts, inc)``: how every part's bytes reach
    the store and on which thread, reporting each through ``_part_written``
    (or ``handle.part_done``).  It runs the incremental dirty scan,
    ``_scan_part``, where it reads a part's tensors — inside ``save`` for the
    three engines that read them there, on the copy thread behind the
    ``wait_for_snapshot`` gate for DataStates — and skips a part the scan
    recorded by reference.  How much happens before ``save`` returns is the
    engine's defining property: an engine with ``blocking = True``
    (synchronous, TorchSnapshot) returns only once the checkpoint is
    globally committed, while DataStates returns after the cheap
    parse/header phases — nothing proportional to the state's bytes.

    *Failed-tag rule.*  Whatever fails on a rank — a write, a capture, a
    reference, the vote — reaches ``handle.fail``, which tells the
    coordinator: the tag is then failed for **every** rank (their waits
    raise ``ConsistencyError`` naming the failing rank instead of blocking
    for a vote that will never come), and the next attempt uses a new tag.
    One exception, the *pruned-base rule*: a reference that fails because
    its base checkpoint was deleted under the in-flight save only makes the
    part dirty — it is written like any changed part.

``wait_for_snapshot(timeout=None)``
    The consistency gate: blocks while any previous snapshot capture is still
    pending.  Must be honoured before the training loop mutates tensors
    referenced by an outstanding ``save`` (right before ``optimizer.step()``).
    Engines that capture synchronously inside ``save`` implement it as a
    no-op — the gate is still honoured, just trivially.

``wait_all(timeout=None)``
    Drain everything: captures, flushes, and the commit protocol for every
    tag this rank initiated.  Called after the final save of a run.  A
    failed request, or a tag another rank failed, is raised here — and again
    at every later wait point.

``load(spec=None)``
    Restore from a committed checkpoint, described by a
    :class:`~repro.restart.RestoreSpec` (tag + rank/shard selector +
    optional target topology + validate/materialize/prefetch options).
    With no spec the engine restores its own shard of the latest committed
    checkpoint.  Routed through
    :class:`~repro.restart.CheckpointLoader.restore`, so every engine
    shares one validated (size + CRC32, optionally mmap) restore path.

``list_checkpoints() / latest_checkpoint()``
    Discovery of committed checkpoints.

``shutdown(wait=True)``
    Idempotent teardown of background resources; with ``wait=True`` the
    engine drains outstanding work first.  Engines are context managers:
    ``__exit__`` shuts down, draining only on a clean exit.
"""

from __future__ import annotations

import abc
import dataclasses
import threading
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from ..config import CheckpointPolicy
from ..exceptions import CheckpointError
from ..io import ShardStore, supports_shard_reference
from ..logging_utils import get_logger
from ..serialization import (
    CheckpointManifest,
    CheckpointTopology,
    ShardHeader,
    ShardPart,
    ShardPlan,
    ShardRecord,
    encode_preamble,
    fold_section_checksums,
    iter_part_payloads,
    iter_shard_chunks,
    plan_shards,
)
from ..tensor import FlattenedState, flatten_state_dict
from .consolidation import TwoPhaseCommitCoordinator
from .flush_pipeline import FlushResult
from .lazy_snapshot import SnapshotJob, deadline_iter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (restart imports core)
    from ..restart import RestoreSpec

logger = get_logger(__name__)

#: Default host staging budget when neither a policy nor an explicit size is given.
DEFAULT_HOST_BUFFER_SIZE = 256 * 1024 * 1024


class CheckpointHandle:
    """One checkpoint request of one rank, from ``save`` to its vote.

    Every engine returns this.  The request is *settled* once each of its
    parts has reported in through :meth:`part_done` and the rank's vote has
    been cast, or once anything failed (:meth:`fail`) — the two places a tag
    is voted for or failed at the coordinator.
    """

    def __init__(self, engine: "CheckpointEngine", tag: str, shard_name: str,
                 iteration: int, num_parts: int) -> None:
        self.tag = tag
        self.shard_name = shard_name
        self.iteration = iteration
        #: The lazy captures of this request; empty for engines that capture
        #: inside ``save``.
        self.snapshots: List[SnapshotJob] = []
        self.settled = threading.Event()
        self.error: Optional[BaseException] = None
        self._engine = engine
        self._records: List[Optional[ShardRecord]] = [None] * num_parts
        self._results: List[Optional[FlushResult]] = [None] * num_parts
        self._remaining = num_parts
        self._lock = threading.Lock()

    def part_done(self, index: int, record: ShardRecord, result: FlushResult) -> None:
        """Part ``index`` (plan order) is durable.  The call that completes
        the set casts the rank's one vote, with all of its records."""
        with self._lock:
            self._records[index] = record
            self._results[index] = result
            self._remaining -= 1
            if self._remaining:
                return
        engine = self._engine
        try:
            engine.coordinator.vote(self.tag, engine.rank, list(self._records),
                                    iteration=self.iteration)
        except Exception as exc:  # noqa: BLE001 - surfaced via the handle
            self.fail(exc)
            return
        with engine._lock:
            engine._voted_tags.add(self.tag)
        # Voted BEFORE anyone is woken: a waiter may go straight on to wait
        # on the coordinator for this tag.
        self.settled.set()

    def fail(self, error: BaseException) -> None:
        """Fail the request and, through the coordinator, the tag on every
        rank.  The first error wins; a no-op once settled."""
        with self._lock:
            if self.error is not None or self.settled.is_set():
                return
            self.error = error
        engine = self._engine
        logger.error("checkpoint %s/%s of rank %d failed: %s",
                     self.tag, self.shard_name, engine.rank, error)
        try:
            engine.coordinator.fail(self.tag, engine.rank, str(error))
        except Exception:  # noqa: BLE001 - best effort
            pass
        self.settled.set()

    def wait_captured(self, timeout: Optional[float] = None) -> bool:
        """Wait for every part's device-to-host capture (consistency gate).

        ``timeout`` bounds the whole wait (a shared deadline), not each part.
        """
        for snapshot, remaining in deadline_iter(self.snapshots, timeout):
            if not snapshot.wait_captured(timeout=remaining):
                return False
        return True

    def wait_durable(self, timeout: Optional[float] = None) -> FlushResult:
        """Wait until every shard file of the set is durably written (and
        this rank's vote is cast); re-raise a failure."""
        if not self.settled.wait(timeout=timeout):
            raise CheckpointError(
                f"timed out waiting for flush of {self.tag}/{self.shard_name}")
        if self.error is not None:
            raise CheckpointError(
                f"flush of {self.tag}/{self.shard_name} failed: {self.error}"
            ) from self.error
        return CheckpointEngine._combine_results(self.tag, self.shard_name,
                                                 self._results)


@dataclass
class IncrementalPlan:
    """One incremental save's base, and what its dirty scan has found so far.

    ``base`` maps part names to the base checkpoint's manifest records of
    this rank.  :meth:`CheckpointEngine._scan_part` compares a part against
    its record and leaves the part's freshly computed per-tensor CRC32s in
    ``checksums`` — clean or dirty, so every record of the new manifest
    carries them and the next save can run the same comparison.
    """

    base_tag: str
    base: Dict[str, ShardRecord]
    checksums: Dict[str, Tuple[int, ...]]

    def tensor_checksums(self, part_name: str) -> Optional[Tuple[int, ...]]:
        return self.checksums.get(part_name)


class CheckpointEngine(abc.ABC):
    """Abstract base of the real-mode checkpoint engines.

    Hoists the plumbing every engine shares: store/rank/world validation,
    policy resolution, the two-phase-commit coordinator, default shard
    naming, the loader-backed restore path, checkpoint discovery, stats, and
    the idempotent shutdown / context-manager lifecycle — and the one save
    path (:meth:`save`), its handles, votes and wait points.  Subclasses
    implement :meth:`_write_parts`, plus :meth:`wait_for_snapshot` when they
    capture lazily and :meth:`_release_resources` for teardown.
    """

    #: Canonical engine name (matches the registry and the figure legends).
    name: str = "base"
    #: ``True``: ``save`` returns only once the tag is globally committed.
    blocking: bool = False

    def __init__(
        self,
        store: ShardStore,
        rank: int = 0,
        world_size: int = 1,
        coordinator: Optional[TwoPhaseCommitCoordinator] = None,
        policy: Optional[CheckpointPolicy] = None,
        host_buffer_size: Optional[int] = None,
        topology: Optional[CheckpointTopology] = None,
        commit_timeout: Optional[float] = None,
    ) -> None:
        if not (0 <= rank < world_size):
            raise CheckpointError(f"rank {rank} outside world of size {world_size}")
        if topology is not None and topology.world_size != world_size:
            raise CheckpointError(
                f"topology {topology.describe()} spans {topology.world_size} "
                f"ranks but the engine's world size is {world_size}")
        self.store = store
        self.rank = rank
        self.world_size = world_size
        self.topology = topology
        resolved = policy or CheckpointPolicy(
            host_buffer_size=host_buffer_size or DEFAULT_HOST_BUFFER_SIZE
        )
        if host_buffer_size is not None:
            # An explicit host_buffer_size always wins, including over a
            # simultaneously-passed policy.
            resolved = resolved.with_overrides(host_buffer_size=host_buffer_size)
        self.policy = resolved
        if coordinator is None:
            coordinator = TwoPhaseCommitCoordinator(world_size, store, topology=topology)
        elif topology is not None:
            # A shared coordinator is the authority on the save-time layout:
            # adopt ours if it has none, otherwise all ranks must agree.
            if coordinator.topology is None:
                coordinator.topology = topology
            elif coordinator.topology != topology:
                raise CheckpointError(
                    f"engine topology {topology.describe()} conflicts with the "
                    f"shared coordinator's {coordinator.topology.describe()}")
        self.coordinator = coordinator
        #: Upper bound on how long a ``blocking`` engine's ``save`` waits for
        #: the collective commit (``None`` = wait forever, matching a
        #: blocking collective).
        self.commit_timeout = commit_timeout
        self._lock = threading.Lock()
        #: Outstanding (or failed) requests; successfully retired handles are
        #: pruned on the next save so a long run does not accumulate history.
        self._handles: List[CheckpointHandle] = []
        #: Tags this rank has voted for and not yet seen committed (wait_all
        #: awaits their commits, including those of already-pruned handles).
        self._voted_tags: Set[str] = set()
        self._closed = False
        self._checkpoints_requested = 0
        self._parts_referenced = 0
        self._bytes_referenced = 0
        #: ``(structure key, parts stripped of their tensors)`` of the last
        #: plan: the one-entry cache behind :meth:`plan_shards`.
        self._last_plan: Optional[Tuple[tuple, Tuple[ShardPart, ...]]] = None

    # ------------------------------------------------------------------ save
    def save(self, state: Any, tag: str, iteration: int = -1,
             shard_name: Optional[str] = None) -> CheckpointHandle:
        """Checkpoint ``state`` under ``tag``.

        A ``blocking`` engine returns with the checkpoint durable *and*
        globally committed.  Any other returns once :meth:`_write_parts`
        does; the caller must then honour :meth:`wait_for_snapshot` before
        mutating any tensor referenced by ``state`` — that gate covers a
        lazy engine's incremental dirty scan as well as its copies.
        """
        self._ensure_open()
        with self._lock:
            self._checkpoints_requested += 1
        shard = shard_name or self.default_shard_name()
        plan = self.plan_shards(flatten_state_dict(state), shard)
        # Only the base is resolved here; each part's CRC scan runs where the
        # engine reads that part's tensors (_scan_part).
        inc = self._plan_incremental()
        handle = CheckpointHandle(self, tag, shard, iteration, len(plan.parts))
        with self._lock:
            # Retired-and-successful handles are done with; failed ones are
            # kept so the next wait point surfaces their error.
            self._handles = [h for h in self._handles
                             if not h.settled.is_set() or h.error is not None]
            self._handles.append(handle)
        try:
            self._write_parts(handle, plan, list(enumerate(plan.parts)), inc)
        except BaseException as exc:
            handle.fail(exc)
            raise
        if self.blocking:
            handle.wait_durable()
            if not self.coordinator.wait_committed(tag, timeout=self.commit_timeout):
                raise CheckpointError(
                    f"timed out waiting for checkpoint {tag!r} to commit "
                    f"(world_size={self.world_size}; every rank must save the same tag)"
                )
        return handle

    @abc.abstractmethod
    def _write_parts(self, handle: CheckpointHandle, plan: ShardPlan,
                     parts: List[Tuple[int, ShardPart]],
                     inc: Optional[IncrementalPlan]) -> None:
        """Move every part — ``(index in plan.parts, part)`` pairs — to the
        store, here or on a background thread.  Where the engine reads a
        part's tensors it first calls :meth:`_scan_part` and skips the part
        when that returns true.  Each part that becomes durable is reported
        through :meth:`_part_written`; a failure is raised (on this thread)
        or handed to ``handle.fail`` (off it)."""

    def _part_written(self, handle: CheckpointHandle, plan: ShardPlan, index: int,
                      nbytes: int, checksum: int,
                      tensor_checksums: Optional[Tuple[Optional[int], ...]] = None,
                      ) -> None:
        """Report part ``index`` of ``plan`` as durably written."""
        part = plan.parts[index]
        record = self._part_record(plan, part, nbytes, checksum,
                                   tensor_checksums=tensor_checksums)
        handle.part_done(index, record, FlushResult(
            tag=handle.tag, shard_name=part.name, nbytes=nbytes,
            checksum=checksum, record=record))

    # ------------------------------------------------------------ wait points
    def wait_for_snapshot(self, timeout: Optional[float] = None) -> None:
        """Consistency gate before the optimizer update.

        Default: no-op, for engines whose capture completes inside ``save``.
        """

    def wait_for_flushes(self, timeout: Optional[float] = None) -> List[FlushResult]:
        """Block until every outstanding shard write of this rank is durable."""
        with self._lock:
            handles = list(self._handles)
        return [handle.wait_durable(timeout=timeout) for handle in handles]

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Drain everything: captures, flushes, and commits of this rank's tags."""
        self.wait_for_snapshot(timeout=timeout)
        self.wait_for_flushes(timeout=timeout)
        with self._lock:
            tags = sorted(self._voted_tags)
        for tag in tags:
            if not self.coordinator.wait_committed(tag, timeout=timeout):
                raise CheckpointError(f"timed out waiting for commit of {tag!r}")
            with self._lock:
                self._voted_tags.discard(tag)

    # ------------------------------------------------------------------ load
    def load(self, spec: Optional["RestoreSpec"] = None) -> Any:
        """Restore from a committed checkpoint per ``spec``.

        Every engine restores through the same
        :meth:`~repro.restart.CheckpointLoader.restore` path: shards are
        validated against the manifest (size + CRC32), fetched through the
        prefetching pipeline (``policy.prefetch_depth`` bounded workers) and,
        with ``policy.mmap_restore`` on a store that can map, rebuilt
        straight out of a read-only memory map.

        When the spec names no rank/shard selector the engine fills in its
        own: this rank's default shard, or — for a reshaping restore
        (``spec.target_topology``) — this rank's slice of the target layout.
        ``load()`` with no arguments restores the engine's shard of the
        latest committed checkpoint.
        """
        from ..restart import CheckpointLoader, RestoreSpec

        resolved = spec if spec is not None else RestoreSpec()
        if resolved.selects_everything:
            if resolved.target_topology is not None:
                resolved = dataclasses.replace(resolved, rank=self.rank)
            else:
                resolved = dataclasses.replace(
                    resolved, shard=self.default_shard_name())
        loader = CheckpointLoader(self.store, use_mmap=self.policy.mmap_restore,
                                  prefetch_depth=self.policy.prefetch_depth)
        return loader.restore(resolved)

    def list_checkpoints(self) -> List[str]:
        """Tags of committed checkpoints, oldest first."""
        return self.store.list_committed_checkpoints()

    def latest_checkpoint(self) -> Optional[str]:
        """Most recent committed checkpoint tag, if any."""
        tags = self.list_checkpoints()
        return tags[-1] if tags else None

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, float]:
        """Operational counters (engines extend this with their own)."""
        with self._lock:
            counters = {
                "engine": self.name,
                "rank": self.rank,
                "checkpoints_requested": self._checkpoints_requested,
                "parts_referenced": self._parts_referenced,
                "bytes_referenced": self._bytes_referenced,
                "pending_flushes": sum(
                    1 for handle in self._handles if not handle.settled.is_set()),
            }
        # Tier-chain backpressure: total ms this engine's commits spent
        # blocked at the fast tier's capacity watermark.
        drain_wait_ms = getattr(self.store, "drain_wait_ms", None)
        if drain_wait_ms is not None:
            counters["drain_wait_ms"] = float(drain_wait_ms)
        return counters

    # ---------------------------------------------------------------- helpers
    def default_shard_name(self) -> str:
        """This rank's logical shard name (the shard-set base name)."""
        return f"rank{self.rank}"

    def plan_shards(self, flattened: FlattenedState, base_name: str) -> ShardPlan:
        """Partition this rank's state per ``policy.shards_per_rank``.

        Every engine saves through the resulting plan: one part with the
        default policy (byte-identical to the original layout), several
        size-balanced parts otherwise.

        Binning, offsets and the encoded headers depend only on the state's
        structure, which training loops repeat from save to save: the last
        plan's parts are kept (one entry, replaced on any change) and a save
        of the same structure only rebinds the fresh tensor references and
        re-pickles the skeleton (it carries the non-tensor leaves).
        """
        tensors = flattened.tensors
        key = (base_name, self.policy.shards_per_rank,
               [(ref.path, ref.shape, ref.dtype, ref.nbytes) for ref in tensors])
        last = self._last_plan
        if last is not None and last[0] == key:
            parts = tuple(
                dataclasses.replace(part, tensors=tuple(
                    [tensors[index] for index in part.global_indices]))
                for part in last[1])
            return ShardPlan(base_name=base_name, skeleton=flattened.skeleton_bytes(),
                             num_tensors=len(tensors), parts=parts)
        plan = plan_shards(flattened, base_name,
                           shards_per_rank=self.policy.shards_per_rank)
        # Kept without its tensor references, so the cache never pins a
        # state's arrays.
        self._last_plan = (key, tuple(dataclasses.replace(part, tensors=())
                                      for part in plan.parts))
        return plan

    def _part_record(self, plan: ShardPlan, part: ShardPart, nbytes: int,
                     checksum: Optional[int],
                     tensor_checksums: Optional[Tuple[Optional[int], ...]] = None,
                     ) -> ShardRecord:
        """Manifest record of one written part (set fields only when multi)."""
        multi = not plan.is_single
        return ShardRecord(
            rank=self.rank,
            name=part.name,
            nbytes=nbytes,
            checksum=checksum,
            tensor_checksums=tensor_checksums,
            group=plan.base_name if multi else None,
            part_index=part.part_index if multi else None,
            num_parts=plan.num_parts if multi else None,
        )

    def _plan_incremental(self) -> Optional[IncrementalPlan]:
        """Resolve the base of an incremental save (``policy.incremental``):
        the latest committed checkpoint and this rank's records in it.
        ``None`` when incremental saves are off, the store cannot record
        references, or there is no committed base."""
        if not self.policy.incremental or not supports_shard_reference(self.store):
            return None
        tags = self.store.list_committed_checkpoints()
        if not tags:
            return None
        try:
            manifest = CheckpointManifest.from_json(self.store.read_manifest(tags[-1]))
        except (CheckpointError, OSError):
            return None
        return IncrementalPlan(
            base_tag=tags[-1], checksums={},
            base={record.name: record for record in manifest.shards_of_rank(self.rank)})

    def _scan_part(self, handle: CheckpointHandle, plan: ShardPlan, index: int,
                   inc: Optional[IncrementalPlan]) -> bool:
        """Dirty scan of part ``index``, on the thread that reads its tensors.

        The part is *clean* only when its exact byte stream would repeat:
        the serialized size matches the base record's and the whole-part
        CRC32 (freshly-encoded preamble folded with fresh per-tensor payload
        CRCs by ``fold_section_checksums``) equals the recorded checksum.  The
        preamble fold matters: the skeleton embeds non-tensor leaves
        (iteration counters, optimizer step), so per-tensor CRCs alone would
        reuse stale metadata.  A clean part is recorded by reference and
        reported to ``handle``; ``True`` then tells the caller to skip it.
        Either way the fresh per-tensor CRCs are left in ``inc.checksums``.
        """
        if inc is None:
            return False
        part = plan.parts[index]
        preamble = encode_preamble(part.header, plan.skeleton)
        crcs = tuple(zlib.crc32(payload) & 0xFFFFFFFF
                     for _entry, payload in iter_part_payloads(part))
        folded = fold_section_checksums(
            zip(crcs, [entry.nbytes for entry in part.header.entries]),
            initial=zlib.crc32(preamble))
        inc.checksums[part.name] = crcs
        base = inc.base.get(part.name)
        if not (base is not None
                and base.checksum is not None
                and base.nbytes == len(preamble) + part.header.payload_bytes
                and base.checksum == folded
                and (base.tensor_checksums is None
                     or tuple(base.tensor_checksums) == crcs)):
            return False
        try:
            # Zero payload bytes move: the store pins the base's chunk list
            # into the new checkpoint's pending manifest.
            nbytes = self.store.record_shard_reference(handle.tag, part.name, inc.base_tag)
        except (CheckpointError, OSError) as exc:
            # Pruned-base rule: the base went away under the save (a lazy
            # scan can run after the caller retired it) — the part is dirty.
            if inc.base_tag not in self.store.list_committed_checkpoints():
                return False
            raise CheckpointError(
                f"recording shard reference {handle.tag}/{part.name} -> "
                f"{inc.base_tag} failed: {exc}") from exc
        record = self._part_record(plan, part, nbytes, base.checksum,
                                   tensor_checksums=crcs)
        with self._lock:
            self._parts_referenced += 1
            self._bytes_referenced += nbytes
        handle.part_done(index, record, FlushResult(
            tag=handle.tag, shard_name=part.name, nbytes=nbytes,
            checksum=base.checksum, record=record))
        return True

    @staticmethod
    def _combine_results(tag: str, base_name: str,
                         results: Sequence[FlushResult]) -> FlushResult:
        """Aggregate per-part flush results into one rank-level result."""
        if len(results) == 1:
            return results[0]
        return FlushResult(
            tag=tag,
            shard_name=base_name,
            nbytes=sum(result.nbytes for result in results),
            checksum=results[0].checksum,
            record=results[0].record,
            parts=tuple(results),
        )

    def _ensure_open(self) -> None:
        if self._closed:
            raise CheckpointError("checkpoint engine is shut down")

    def _write_streaming_shard(self, tag: str, shard_name: str, header: ShardHeader,
                               skeleton: bytes,
                               views: Sequence[memoryview]) -> Tuple[int, int]:
        """Sequentially stream a captured shard to the store, accumulating the
        whole-file CRC32 chunk by chunk; returns ``(nbytes, checksum)``."""
        checksum = 0

        def chunks():
            nonlocal checksum
            for chunk in iter_shard_chunks(header, skeleton, views,
                                           chunk_size=self.policy.chunk_size):
                checksum = zlib.crc32(chunk, checksum) & 0xFFFFFFFF
                yield chunk

        try:
            receipt = self.store.write_shard(tag, shard_name, chunks())
        except CheckpointError:
            raise
        except OSError as exc:
            # Store-level I/O failures (full disk, dead OST, injected faults)
            # surface as CheckpointError everywhere — the save contract is
            # "committed or loud", never a raw errno escaping the engine.
            raise CheckpointError(
                f"shard write of {tag}/{shard_name} failed: {exc}") from exc
        return receipt.nbytes, checksum

    # ---------------------------------------------------------------- shutdown
    def shutdown(self, wait: bool = True) -> None:
        """Stop background resources; idempotent.

        With ``wait=True`` outstanding captures/flushes/commits are drained
        first (failures are logged, not raised, so teardown always completes).
        """
        if self._closed:
            return
        if wait:
            try:
                self.wait_all()
            except CheckpointError:
                logger.warning("engine shut down with failed outstanding checkpoints")
        self._closed = True
        self._release_resources(wait=wait)

    def _release_resources(self, wait: bool = True) -> None:
        """Tear down engine-specific background resources (default: none)."""

    def __enter__(self) -> "CheckpointEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)
