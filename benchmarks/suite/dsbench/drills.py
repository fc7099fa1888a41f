"""Drills: timed direct calls into single layers, with the engine idle.

Each drill exercises one layer function on the workload's own state (what one
rank hands to ``save()``), between two probes of the reference kernel, and
reports a median of a few repetitions.  Drills that need a layer the workload
does not use are skipped and their metrics stay 0.
"""

from __future__ import annotations

import json
import shutil
import time
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core import CopyStream, FlushPipeline, SnapshotJob, create_real_engine
from repro.io import FileStore
from repro.memory import PinnedHostPool
from repro.restart import (
    CheckpointLoader,
    RestoreSpec,
    merge_full_state,
    shard_full_state,
)
from repro.serialization import (
    CheckpointManifest,
    ShardRecord,
    checksum_stream,
    crc32_combine,
    deserialize_state,
    encode_preamble,
    iter_shard_chunks,
    plan_shards,
    serialize_part,
)
from repro.tensor import flatten_state_dict, tensor_payload_array

from .metrics import p50
from .probes import ReferenceKernel
from .state import BenchState, first_difference
from .tracing import Faults, Ledger, Recorder
from .workloads import Compute, Context, Workload, tag_of

_now = time.perf_counter
MiB = 1 << 20


def _times(reps: int, run: Callable[[], Any]) -> List[float]:
    """Wall ms of ``reps`` calls of ``run``."""
    samples = []
    for _ in range(reps):
        started = _now()
        run()
        samples.append((_now() - started) * 1e3)
    return samples


class Drills:
    """Runs the drills of one workload; ``metrics`` accumulates the results."""

    def __init__(self, workload: Workload, state: BenchState, work_dir: Path,
                 kernel: ReferenceKernel) -> None:
        self.workload = workload
        self.state = state
        self.dir = work_dir / "drills"
        self.kernel = kernel
        self.reps = 2 if workload.is_tiny else 3
        self.metrics: Dict[str, float] = {}
        self.failures: List[str] = []
        self.attempted = 0
        #: Wall seconds each drill group took (where a traced run's time went).
        self.seconds: Dict[str, float] = {}
        #: What one rank saves: the tree itself, or rank 0's elastic slice.
        topology = getattr(workload, "topology", None)
        self.tree = (state.tree if topology is None
                     else shard_full_state(state.tree, topology)[0])
        self.shards_per_rank = workload.policy(state).shards_per_rank \
            if topology is None else topology.shards_per_rank

    def _group(self, run: Callable[[], Dict[str, Tuple[str, float]]]) -> None:
        """Run one drill group between two probes and normalise what it
        returns: ``{metric: (kind, raw)}`` with kind ``ms`` / ``us`` (scaled
        up on a slow host), ``MBps`` (scaled down) or ``raw``."""
        before = self.kernel.probe()
        started = _now()
        results = run()
        self.seconds[run.__name__.lstrip("_")] = _now() - started
        scale = ReferenceKernel.scale([before, self.kernel.probe()])
        for name, (kind, value) in results.items():
            if kind in ("ms", "us"):
                value *= scale
            elif kind == "MBps":
                value /= scale
            self.metrics[name] = value

    def run_all(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        # One staging pool for every drill that needs one (reset between
        # uses): each fresh pool would be cut from cold pages.
        payload = flatten_state_dict(self.tree).total_tensor_bytes
        self.pool = PinnedHostPool(max(payload, 16 * MiB) + MiB)
        try:
            self._group(self._serialization_write_side)
            self._group(self._serialization_read_side)
            self._group(self._memory_and_capture)
            self._group(self._flush)
            self._group(self._flush_per_tensor)
            self._group(self._filestore)
            self._group(self._loader_read_path)
            if self.workload.name == "overlap_tiers":
                self._group(self._tiered)
            if self.workload.name == "sync_elastic":
                self._group(self._reshape)
            if self.workload.name == "hifreq_file":
                self._group(self._engine_sweep)
        finally:
            self.pool.close()
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- tensor + serialization ------------------------------------------------
    def _serialization_write_side(self):
        tree, reps = self.tree, self.reps
        out = {"tensor.flatten_ms_p50": ("ms", p50(_times(reps, lambda: flatten_state_dict(tree))))}
        flattened = flatten_state_dict(tree)
        spr = self.shards_per_rank
        out["serialization.plan_ms_p50"] = ("ms", p50(_times(
            reps, lambda: plan_shards(flattened, "rank0", shards_per_rank=spr))))
        plan = plan_shards(flattened, "rank0", shards_per_rank=spr)
        out["serialization.preamble_ms_p50"] = ("ms", p50(_times(
            reps, lambda: [encode_preamble(part.header, plan.skeleton) for part in plan.parts])))

        manifest = CheckpointManifest(tag="drill", world_size=1, iteration=1)
        for part in plan.parts:
            manifest.add_shard(ShardRecord(
                rank=0, name=part.name, nbytes=part.payload_bytes, checksum=1,
                tensor_checksums=tuple(range(len(part.tensors))),
                group="rank0", part_index=part.part_index, num_parts=plan.num_parts))

        def round_trip() -> None:
            text = json.dumps(manifest.to_json(), indent=2, sort_keys=True)
            CheckpointManifest.from_json(json.loads(text))

        out["serialization.manifest_ms_p50"] = ("ms", p50(_times(reps, round_trip)))

        sizes = [ref.nbytes for ref in flattened.tensors]

        def fold() -> None:
            crc = 0
            for nbytes in sizes:
                crc = crc32_combine(crc, 0x1234ABCD, nbytes)

        out["serialization.crc_combine_us_p50"] = (
            "us", p50(_times(reps, fold)) * 1e3 / max(1, len(sizes)))

        part = plan.parts[0]
        views = [memoryview(np.ascontiguousarray(tensor_payload_array(ref))
                            .view(np.uint8).reshape(-1)) for ref in part.tensors]
        streamed = len(encode_preamble(part.header, plan.skeleton)) + part.payload_bytes

        def stream() -> None:
            crc = 0
            for chunk in iter_shard_chunks(part.header, plan.skeleton, views):
                crc = zlib.crc32(chunk, crc)

        out["serialization.stream_MBps"] = (
            "MBps", streamed / (p50(_times(reps, stream)) / 1e3) / 1e6)
        return out

    def _serialization_read_side(self):
        reps = self.reps
        plan = plan_shards(flatten_state_dict(self.tree), "rank0")
        raw = serialize_part(plan.parts[0], plan.skeleton)
        self._raw = raw
        out = {}
        out["serialization.checksum_MBps"] = (
            "MBps", len(raw) / (p50(_times(reps, lambda: checksum_stream(raw))) / 1e3) / 1e6)
        out["serialization.deserialize_copy_MBps"] = (
            "MBps", len(raw) / (p50(_times(reps, lambda: deserialize_state(raw))) / 1e3) / 1e6)
        out["serialization.deserialize_view_ms_p50"] = (
            "ms", p50(_times(reps, lambda: deserialize_state(raw, copy=False))))
        return out

    # -- memory + lazy snapshot ----------------------------------------------------
    def _snapshot_job(self, tree: Any, tag: str) -> SnapshotJob:
        plan = plan_shards(flatten_state_dict(tree), "rank0")
        part = plan.parts[0]
        return SnapshotJob(tag=tag, shard_name=part.name, header=part.header,
                           skeleton=plan.skeleton, tensors=part.tensors)

    def _memory_and_capture(self):
        flattened = flatten_state_dict(self.tree)
        payload = flattened.total_tensor_bytes
        pool = self.pool
        typical = sorted(ref.nbytes for ref in flattened.tensors)[len(flattened.tensors) // 2]
        cycles = 200 if self.workload.is_tiny else 2000

        def cycle() -> None:
            for _ in range(cycles):
                pool.free(pool.allocate(typical))

        out = {"memory.pool_cycle_us_p50": ("us", p50(_times(self.reps, cycle)) * 1e3 / cycles)}
        stream = CopyStream(pool, name="drill-copy")
        samples = []
        try:
            for rep in range(self.reps + 1):  # the first touches the pool's pages
                job = self._snapshot_job(self.tree, f"capture-{rep}")
                started = _now()
                stream.submit(job)
                job.wait_captured()
                samples.append((_now() - started) * 1e3)
                while True:
                    staged = job.staged.get()
                    if staged is None:
                        break
                    pool.free(staged.allocation)
        finally:
            stream.shutdown()
        capture = p50(samples[1:])
        out["core.lazy_snapshot.capture_ms_p50"] = ("ms", capture)
        out["core.lazy_snapshot.capture_MBps"] = ("MBps", payload / (capture / 1e3) / 1e6)
        return out

    # -- flush pipeline ---------------------------------------------------------------
    def _flush_ms(self, tree: Any, label: str) -> float:
        """``FlushPipeline.submit`` to durable (capture feeding it), median ms."""
        store = FileStore(self.dir / f"flush-{label}")
        pool = self.pool
        pool.reset()
        stream = CopyStream(pool, name="drill-copy")
        pipeline = FlushPipeline(store, pool, parallel_shard_writes=True)
        samples = []
        try:
            for rep in range(self.reps + 1):
                job = self._snapshot_job(tree, f"flush-{rep}")
                started = _now()
                stream.submit(job)
                pipeline.submit(job).wait(timeout=60.0)
                samples.append((_now() - started) * 1e3)
                store.delete_checkpoint(job.tag)
        finally:
            stream.shutdown()
            pipeline.shutdown()
        return p50(samples[1:])

    def _flush(self):
        payload = flatten_state_dict(self.tree).total_tensor_bytes
        flush = self._flush_ms(self.tree, "own")
        return {"core.flush_pipeline.flush_ms_p50": ("ms", flush),
                "core.flush_pipeline.flush_MBps": ("MBps", payload / (flush / 1e3) / 1e6)}

    def _flush_per_tensor(self):
        """Slope of flush time over the tensor count at equal bytes."""
        total = 1 if self.workload.is_tiny else 16
        few, many = (10, 100) if self.workload.is_tiny else (100, 1000)

        def equal_tensors(count: int) -> Dict[str, np.ndarray]:
            each = total * MiB // 4 // count
            return {f"t{index:04d}": np.full(each, index, dtype=np.float32)
                    for index in range(count)}

        slow = self._flush_ms(equal_tensors(many), "many")
        fast = self._flush_ms(equal_tensors(few), "few")
        return {"core.flush_pipeline.per_tensor_us": ("us", (slow - fast) * 1e3 / (many - few))}

    # -- file store ----------------------------------------------------------------------
    def _filestore(self):
        raw = self._raw
        plan = plan_shards(flatten_state_dict(self.tree), "rank0")
        part = plan.parts[0]
        preamble = encode_preamble(part.header, plan.skeleton)
        views = [memoryview(np.ascontiguousarray(tensor_payload_array(ref))
                            .view(np.uint8).reshape(-1)) for ref in part.tensors]
        store = FileStore(self.dir / "filestore")
        # Every write lands under a new name and is deleted before the next:
        # renaming over an existing file makes ext4 flush the new one to disk
        # (auto_da_alloc), which no save of a fresh tag ever does.
        names = (f"drill-{index:03d}" for index in range(1000))

        def write_shard() -> None:
            tag = next(names)
            store.write_shard(tag, "rank0", [raw])
            store.delete_checkpoint(tag)

        def pwrite_commit(target: FileStore = store) -> None:
            tag = next(names)
            total = len(preamble) + part.payload_bytes
            with target.create_shard_writer(tag, "rank0", total) as writer:
                writer.pwrite(0, preamble)
                for entry, view in zip(part.header.entries, views):
                    writer.pwrite(len(preamble) + entry.offset, view)
                writer.commit()
            target.delete_checkpoint(tag)

        out = {}
        out["io.filestore.write_shard_MBps"] = (
            "MBps", len(raw) / (p50(_times(self.reps, write_shard)) / 1e3) / 1e6)
        out["io.filestore.pwrite_commit_MBps"] = (
            "MBps", len(raw) / (p50(_times(self.reps, pwrite_commit)) / 1e3) / 1e6)
        # The fsync cost of one shard publish on this disk (raw ms: a device
        # property, not a CPU one): same writer, fsync on minus fsync off.
        durable = FileStore(self.dir / "filestore-fsync", fsync=True)
        synced = p50(_times(2, lambda: pwrite_commit(durable)))
        plain = p50(_times(2, pwrite_commit))
        out["io.filestore.fsync_publish_ms_p50"] = ("raw", max(0.0, synced - plain))
        return out

    # -- loader read path ------------------------------------------------------------------
    def _loader_read_path(self):
        store = FileStore(self.dir / "loader")
        store.write_shard("drill", "rank0", [self._raw])
        manifest = CheckpointManifest(tag="drill", world_size=1, iteration=1)
        manifest.add_shard(ShardRecord(rank=0, name="rank0", nbytes=len(self._raw),
                                       checksum=checksum_stream(self._raw)))
        store.write_manifest("drill", manifest.to_json())
        spec = RestoreSpec.of_rank(0, tag="drill", use_mmap=False)
        samples = _times(self.reps, lambda: CheckpointLoader(store).restore(spec))
        store.delete_checkpoint("drill")
        return {"restart.loader.restore_read_ms_p50": ("ms", p50(samples))}

    # -- tier chain: deep and local restores --------------------------------------------------
    def _tiered(self):
        workload, state = self.workload, self.state
        root = self.dir / "tiered"
        ctx = Context(Ledger(), Recorder(), Faults())
        stack = workload.open(root, ctx)
        engine = workload.make_engine(stack, state)
        saved = []
        try:
            for iteration in (900001, 900002, 900003):
                state.mutate(iteration)
                engine.save(state.tree, tag_of(iteration), iteration=iteration)
                engine.wait_for_snapshot()
                saved.append(iteration)
            workload.quiesce(engine, stack)
        finally:
            engine.shutdown()
            stack.close()
        # Make the two older tags deep-only, as watermark eviction would.
        deep = saved[:2]
        for level in ("nvme", "pfs"):
            for iteration in deep:
                FileStore(root / level).delete_checkpoint(tag_of(iteration))
        deep_ms = []
        for iteration in deep:  # one sample per tag: the read promotes it
            self.attempted += 1
            stack = workload.open(root, ctx)
            try:
                started = _now()
                restored = CheckpointLoader(stack.top).restore(
                    RestoreSpec.of_rank(0, tag=tag_of(iteration)))
                deep_ms.append((_now() - started) * 1e3)
                difference = first_difference(restored, state.at(iteration))
                if difference:
                    self.failures.append(f"deep restore of {tag_of(iteration)}: {difference}")
            finally:
                stack.close()
        latest = RestoreSpec.of_rank(0, tag=tag_of(saved[-1]))

        def through_chain() -> None:
            stack = workload.open(root, ctx)
            try:
                CheckpointLoader(stack.top).restore(latest)
            finally:
                stack.close()

        def through_file() -> None:
            CheckpointLoader(FileStore(root / "nvme")).restore(latest)

        chain_ms = p50(_times(self.reps, through_chain))
        file_ms = p50(_times(self.reps, through_file))
        workload.release(root)
        return {"io.tiered.restore_deep_ms_p50": ("ms", p50(deep_ms)),
                "io.tiered.restore_local_over_file": ("raw", chain_ms / file_ms)}

    # -- reshape ---------------------------------------------------------------------------------
    def _reshape(self):
        workload, state = self.workload, self.state
        root = self.dir / "reshape"
        ctx = Context(Ledger(), Recorder(), Faults())
        stack = workload.open(root, ctx)
        workload.save(None, stack, state, "drill", 1)
        loader = CheckpointLoader(stack.top)
        plain = _times(self.reps, lambda: loader.restore(RestoreSpec.full(tag="drill")))
        reshaped = _times(self.reps, lambda: loader.restore(
            RestoreSpec.full(tag="drill").reshaped(workload.target)))
        states = loader.restore(RestoreSpec.full(tag="drill"))
        merge = _times(self.reps, lambda: merge_full_state(states, workload.topology))
        full = merge_full_state(states, workload.topology)
        resplit = _times(self.reps, lambda: shard_full_state(full, workload.target))
        split = _times(self.reps, lambda: shard_full_state(state.tree, workload.topology))
        return {"restart.reshape.restore_plain_ms_p50": ("ms", p50(plain)),
                "restart.reshape.merge_ms_p50": ("ms", p50(merge)),
                "restart.reshape.resplit_ms_p50": ("ms", p50(resplit)),
                "restart.reshape.shard_full_state_ms_p50": ("ms", p50(split)),
                "restart.reshape.reshape_over_plain": ("raw", p50(reshaped) / p50(plain))}

    # -- the four engines on one state (the paper's Fig. 7/8 ordering) ----------------------------
    def _engine_sweep(self):
        state = self.state
        # The first two saves of an engine grow its footprint into cold pages
        # (the blocking engines then measure the host, not themselves).
        warm, saves = (1, 3) if self.workload.is_tiny else (2, 5)
        # Long enough for a lazy capture + flush of this state to hide behind.
        compute = Compute(2 if self.workload.is_tiny else 40)
        stalls: Dict[str, float] = {}
        for name in ("datastates", "async", "torchsnapshot", "deepspeed"):
            store = FileStore(self.dir / f"sweep-{name}")
            engine = create_real_engine(name, store, host_buffer_size=2 * state.nbytes + MiB)
            samples = []
            try:
                for index in range(saves):
                    iteration = 800000 + index
                    compute.run()
                    started = _now()
                    engine.wait_for_snapshot()
                    gated = _now()
                    state.mutate(iteration)
                    resumed = _now()
                    engine.save(state.tree, tag_of(iteration), iteration=iteration)
                    samples.append((gated - started + _now() - resumed) * 1e3)
                    # Keep two: files that are deleted give their (warm) pages
                    # to the next save instead of it faulting in cold ones.
                    for tag in store.list_committed_checkpoints()[:-2]:
                        store.delete_checkpoint(tag)
                engine.wait_all()
            finally:
                engine.shutdown()
            stalls[name] = p50(samples[warm:])
            shutil.rmtree(store.root, ignore_errors=True)
        self.attempted += 1
        if not self.workload.is_tiny and min(stalls, key=stalls.get) != "datastates":
            self.failures.append(f"datastates does not have the lowest stall: {stalls}")
        return {f"core.sweep.{name}_stall_ms_p50": ("ms", value)
                for name, value in stalls.items()}
