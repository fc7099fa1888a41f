"""The four checkpoint-lifecycle workloads and the segment that measures them.

Every workload is a closed loop with one client thread that follows
``RealTrainer.train``'s contract — fixed-work compute, ``wait_for_snapshot()``,
in-place mutation, ``save()``, retention — and drives the library through its
public API only.  A run is a fixed number of *segments*; a segment is::

    probe . set-up . probe . train loop + quiesce . probe . restores . probe . teardown

with fresh store objects, a fresh engine and a fresh pinned pool per segment,
reopened over the checkpoints the previous segment retained — every set-up is
a restart.  Counts are fixed (the run's length in seconds is converted to a
segment count once), so every byte and call count is identical on both sides
of a comparison.
"""

from __future__ import annotations

import gc
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.config import CheckpointPolicy
from repro.core import create_real_engine
from repro.io import CASStore, ObjectStore, TierChain, TierLevel, create_store
from repro.restart import (
    CheckpointLoader,
    RestoreSpec,
    elastic_topology,
    save_elastic_checkpoint,
    shard_full_state,
)
from repro.serialization import plan_shards
from repro.tensor import flatten_state_dict

from .probes import ReferenceKernel
from .state import BenchState, elastic_state, first_difference, transformer_state
from .tracing import Faults, Ledger, Recorder, StoreProxy

_now = time.perf_counter
MiB = 1 << 20

#: Side of the square float32 matrices of one compute call (~2 ms of
#: single-thread, GIL-releasing BLAS on the calibration host).
COMPUTE_N = 480
#: Wall seconds one full-size segment of any workload takes on the calibration
#: host; converts ``--seconds`` into a segment count (:func:`segment_count`).
SEGMENT_SECONDS = 2.75
#: Upper bound on any single wait; keeps a wedged run inside the contract's
#: 180 s instead of hanging.
WAIT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Sizes:
    """What one segment of a workload does."""

    total_mib: float
    tensors: int
    iters: int
    restores: int
    compute_calls: int
    keep: int


class Compute:
    """The client's "forward/backward": a fixed number of BLAS calls."""

    def __init__(self, calls: int) -> None:
        self.calls = calls
        rng = np.random.default_rng(0)
        self._a = rng.random((COMPUTE_N, COMPUTE_N), dtype=np.float32)
        self._b = rng.random((COMPUTE_N, COMPUTE_N), dtype=np.float32)
        self._out = np.empty_like(self._a)

    def run(self) -> None:
        for _ in range(self.calls):
            np.dot(self._a, self._b, out=self._out)


@dataclass
class Context:
    """What a segment's proxies report to."""

    ledger: Ledger
    recorder: Recorder
    faults: Faults


@dataclass
class Stack:
    """One set of freshly constructed store objects over a segment's root."""

    #: What the engine and the loader talk to.
    top: Any
    #: The proxies around the stores that hold bytes, by level.
    bottoms: List[StoreProxy]
    #: The ``TierChain`` / ``CASStore`` object itself, when there is one.
    composite: Any = None

    @property
    def deepest(self) -> int:
        return len(self.bottoms) - 1

    def close(self) -> None:
        close = getattr(self.composite, "close", None)
        if callable(close):
            close()


def _bottom(store, layer: str, ctx: Context, level: int = 0) -> StoreProxy:
    return StoreProxy(store, layer, ctx.ledger, ctx.recorder, bottom=True,
                      level=level, faults=ctx.faults)


def _upper(store, layer: str, ctx: Context):
    """Composite stores are proxied only while spans are being recorded."""
    if not ctx.recorder.enabled:
        return store
    return StoreProxy(store, layer, ctx.ledger, ctx.recorder, bottom=False)


class Workload:
    """Base of the four workloads; subclasses say what the stack is."""

    name = ""
    sizes: Sizes
    tiny: Sizes
    engine_name = "datastates"
    #: Levels of the store stack (the deepest one defines ``commit``).
    levels = 1

    def __init__(self, tiny: bool = False) -> None:
        self.is_tiny = tiny
        self.size = self.tiny if tiny else self.sizes

    # -- what subclasses define ------------------------------------------------
    def build_state(self, seed: int) -> BenchState:
        return transformer_state(seed, self.size.total_mib, self.size.tensors)

    def open(self, root: Path, ctx: Context) -> Stack:
        raise NotImplementedError

    def policy(self, state: BenchState) -> CheckpointPolicy:
        # Room for two checkpoints in flight: the one being flushed and the
        # one being captured.
        return CheckpointPolicy(host_buffer_size=2 * state.nbytes + MiB)

    def restore_spec(self) -> RestoreSpec:
        return RestoreSpec.of_rank(0)

    def expected(self, state: BenchState) -> Any:
        """What a restore of the latest tag must equal, bit for bit."""
        return state.tree

    # -- the lifecycle calls, identical for the three datastates workloads --------
    def make_engine(self, stack: Stack, state: BenchState):
        return create_real_engine(self.engine_name, stack.top, policy=self.policy(state))

    def save(self, engine, stack: Stack, state: BenchState, tag: str, iteration: int) -> None:
        engine.save(state.tree, tag, iteration=iteration)

    def gate(self, engine) -> None:
        engine.wait_for_snapshot(timeout=WAIT_TIMEOUT_S)

    def quiesce(self, engine, stack: Stack) -> None:
        engine.wait_all(timeout=WAIT_TIMEOUT_S)

    def retire(self, stack: Stack, tag: str) -> None:
        """Retention: drop one checkpoint that fell out of the keep window."""
        stack.top.delete_checkpoint(tag)

    def release(self, root: Path) -> None:
        """Drop whatever the workload keeps per segment root besides files."""

    def segment_failures(self, engine, stack: Stack, segment: "Segment") -> List[str]:
        """Workload-specific conditions that count as failed operations."""
        return []

    def layer_counters(self, engine, stack: Stack) -> Dict[str, float]:
        """Counters the library itself keeps, read at the end of the train loop."""
        if engine is None:
            return {}
        stats = engine.stats()
        return {
            "memory.pool_blocked_waits": stats.get("host_buffer_blocked_waits", 0),
            "memory.pool_peak_frac": (stats.get("host_buffer_peak_bytes", 0)
                                      / max(1, stats.get("host_buffer_bytes", 1))),
            "core.engine.parts_referenced": stats.get("parts_referenced", 0),
            "core.engine.bytes_referenced": stats.get("bytes_referenced", 0),
        }


class HifreqFile(Workload):
    name = "hifreq_file"
    sizes = Sizes(total_mib=64, tensors=200, iters=16, restores=3,
                  compute_calls=0, keep=4)
    tiny = Sizes(total_mib=2, tensors=40, iters=3, restores=1,
                 compute_calls=0, keep=2)

    def open(self, root: Path, ctx: Context) -> Stack:
        bottom = _bottom(create_store("file", root=root), "io.filestore", ctx)
        return Stack(top=bottom, bottoms=[bottom])


class OverlapTiers(Workload):
    name = "overlap_tiers"
    sizes = Sizes(total_mib=16, tensors=500, iters=5, restores=2,
                  compute_calls=120, keep=8)
    tiny = Sizes(total_mib=2, tensors=60, iters=3, restores=1,
                 compute_calls=2, keep=8)
    levels = 3

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self._buckets: Dict[Path, ObjectStore] = {}
        self._checkpoint_bytes = int(self.size.total_mib * MiB * 1.02)

    def open(self, root: Path, ctx: Context) -> Stack:
        # The object level lives in memory: a "restart" keeps the bucket and
        # reopens the two directory-backed levels.
        bucket = self._buckets.setdefault(root, ObjectStore(bucket=root.name))
        stores = [create_store("file", root=root / "nvme"),
                  create_store("file", root=root / "pfs"), bucket]
        layers = ["io.filestore", "io.filestore", "io.objectstore"]
        bottoms = [_bottom(store, layer, ctx, level)
                   for level, (store, layer) in enumerate(zip(stores, layers))]
        chain = TierChain([
            TierLevel(bottoms[0], name="nvme", watermark=0.8,
                      capacity_bytes=4 * self._checkpoint_bytes),
            TierLevel(bottoms[1], name="pfs", watermark=0.8,
                      capacity_bytes=8 * self._checkpoint_bytes),
            TierLevel(bottoms[2], name="object"),
        ], drain_workers=1)
        return Stack(top=_upper(chain, "io.tiered", ctx), bottoms=bottoms, composite=chain)

    def release(self, root: Path) -> None:
        self._buckets.pop(root, None)

    def quiesce(self, engine, stack: Stack) -> None:
        engine.wait_all(timeout=WAIT_TIMEOUT_S)
        stack.composite.wait_drained(timeout=WAIT_TIMEOUT_S)

    def segment_failures(self, engine, stack: Stack, segment: "Segment") -> List[str]:
        metrics = stack.composite.drain_metrics()
        # The drain must keep up.  One segment in which it did not is a stall
        # of this host (a page-fault storm can freeze a drain thread for a
        # second); a run fails when it happens in more than a quarter of its
        # segments (``child.run``), which is what a drain too slow for the
        # compute looks like.
        if metrics["drain_wait_ms"] > 0:
            segment.lagged.append(f"commit backpressure: drain_wait_ms={metrics['drain_wait_ms']:.1f}")
        if segment.pending_drains_at_end > 2:
            segment.lagged.append(f"{segment.pending_drains_at_end} drains pending at loop end")
        if metrics["failed_drains"]:
            return [f"{metrics['failed_drains']} failed drains"]
        return []

    def layer_counters(self, engine, stack: Stack) -> Dict[str, float]:
        counters = super().layer_counters(engine, stack)
        metrics = stack.composite.drain_metrics()
        for key in ("drain_wait_ms", "bytes_drained", "evicted_checkpoints",
                    "promoted_parts", "failed_drains"):
            counters[f"io.tiered.{key}"] = metrics[key]
        return counters


class IncrCas(Workload):
    name = "incr_cas"
    sizes = Sizes(total_mib=32, tensors=64, iters=8, restores=2,
                  compute_calls=60, keep=4)
    tiny = Sizes(total_mib=2, tensors=32, iters=3, restores=1,
                 compute_calls=1, keep=2)
    shards_per_rank = 8

    def build_state(self, seed: int) -> BenchState:
        # 16 weight matrices: two per shard part, so LPT binning balances.
        state = transformer_state(seed, self.size.total_mib, self.size.tensors,
                                  n_big=2 * self.shards_per_rank)
        # Freeze exactly the tensors of half the parts plan_shards yields;
        # the counter changes every iteration, so its part stays hot.
        plan = plan_shards(flatten_state_dict(state.tree), "rank0",
                           shards_per_rank=self.shards_per_rank)
        hot_parity = next(part.part_index for part in plan.parts
                          if any(ref.payload is state.counter for ref in part.tensors)) % 2
        keep = [ref.payload for part in plan.parts
                if part.part_index % 2 == hot_parity for ref in part.tensors]
        state.restrict_hot(keep)
        return state

    def open(self, root: Path, ctx: Context) -> Stack:
        bottom = _bottom(create_store("file", root=root), "io.filestore", ctx)
        cas = CASStore(bottom)
        return Stack(top=_upper(cas, "io.cas", ctx), bottoms=[bottom], composite=cas)

    def policy(self, state: BenchState) -> CheckpointPolicy:
        return CheckpointPolicy(host_buffer_size=2 * state.nbytes + MiB,
                                incremental=True, shards_per_rank=self.shards_per_rank)

    def retire(self, stack: Stack, tag: str) -> None:
        # Delete decrements refcounts; the sweep frees the chunks.  Sweeping
        # with every delete keeps the pool (and the page cache under it) at
        # its steady size instead of growing for a segment and collapsing.
        stack.top.delete_checkpoint(tag)
        stack.top.sweep_unreferenced()

    def segment_failures(self, engine, stack: Stack, segment: "Segment") -> List[str]:
        failures = []
        if engine.stats()["parts_referenced"] <= 0:
            failures.append("no shard part was recorded by reference")
        amp = segment.bottom_bytes / max(1, segment.logical_bytes)
        if not 0.4 < amp < 0.8:
            failures.append(f"write_amp {amp:.3f} outside (0.4, 0.8)")
        return failures

    def layer_counters(self, engine, stack: Stack) -> Dict[str, float]:
        counters = super().layer_counters(engine, stack)
        metrics = stack.composite.dedup_metrics()
        for key in ("chunks_written", "chunks_deduped", "chunks_referenced",
                    "bytes_written", "dedup_ratio"):
            counters[f"io.cas.{key}"] = metrics[key]
        return counters


class SyncElastic(Workload):
    name = "sync_elastic"
    sizes = Sizes(total_mib=48, tensors=24, iters=7, restores=2,
                  compute_calls=25, keep=3)
    tiny = Sizes(total_mib=3, tensors=12, iters=3, restores=1,
                 compute_calls=1, keep=2)
    engine_name = "torchsnapshot"

    def build_state(self, seed: int) -> BenchState:
        state = elastic_state(seed, self.size.total_mib, self.size.tensors)
        model = state.tree["model"]
        self.topology = elastic_topology(model, 1, 1, 2, axes=state.axes, shards_per_rank=2)
        self.target = elastic_topology(model, 2, 1, 1, axes=state.axes)
        return state

    def open(self, root: Path, ctx: Context) -> Stack:
        bottom = _bottom(create_store("file", root=root), "io.filestore", ctx)
        return Stack(top=bottom, bottoms=[bottom])

    def make_engine(self, stack: Stack, state: BenchState):
        return None  # save_elastic_checkpoint builds one engine per rank per call

    def save(self, engine, stack: Stack, state: BenchState, tag: str, iteration: int) -> None:
        save_elastic_checkpoint(stack.top, state.tree, self.topology, tag,
                                engine=self.engine_name, iteration=iteration)

    def gate(self, engine) -> None:
        return None

    def quiesce(self, engine, stack: Stack) -> None:
        return None

    def restore_spec(self) -> RestoreSpec:
        return RestoreSpec.full().reshaped(self.target)

    def expected(self, state: BenchState) -> Any:
        return shard_full_state(state.tree, self.target)


WORKLOADS: Dict[str, type] = {cls.name: cls for cls in
                              (HifreqFile, OverlapTiers, IncrCas, SyncElastic)}


def segment_count(workload: Workload, seconds: float) -> int:
    """``--seconds`` becomes a count once; the work is then fixed.  At least
    eight segments (so every run-level median has eight samples); ``--tiny``
    always runs two."""
    if workload.is_tiny:
        return 2
    return max(8, round(seconds / SEGMENT_SECONDS))


# -- one segment ---------------------------------------------------------------------
@dataclass
class Segment:
    """Everything one segment measured, raw."""

    index: int
    traced: bool
    probes: List[float] = field(default_factory=list)
    setup_s: float = 0.0
    iter_ms: List[float] = field(default_factory=list)
    gate_ms: List[float] = field(default_factory=list)
    save_ms: List[float] = field(default_factory=list)
    compute_ms: List[float] = field(default_factory=list)
    compute_alone_ms: List[float] = field(default_factory=list)
    commit_ms: List[float] = field(default_factory=list)
    restore_ms: List[float] = field(default_factory=list)
    ckpt_cpu_ms: float = 0.0
    peak_rss_mib: float = 0.0
    bottom_bytes: int = 0
    logical_bytes: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Why the background work did not keep up in this segment, if it did not.
    lagged: List[str] = field(default_factory=list)
    leaked_threads: int = 0
    pending_drains_at_end: int = 0
    pending_drains_max: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    #: Traced segments: recorder span indices and phase windows.
    span_range: Tuple[int, int] = (0, 0)
    loop_window: Tuple[float, float] = (0.0, 0.0)
    restore_windows: List[Tuple[float, float]] = field(default_factory=list)
    loop_tags: List[str] = field(default_factory=list)
    fetch_ms: List[float] = field(default_factory=list)
    deserialize_ms: List[float] = field(default_factory=list)
    prefetch_depth: int = 0
    #: ``(busy, stolen)`` tick deltas of the set-up, loop and restore phases.
    ticks: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def stall_ms(self) -> List[float]:
        return [gate + save for gate, save in zip(self.gate_ms, self.save_ms)]


def tag_of(iteration: int) -> str:
    return f"ckpt-{iteration:06d}"


class Runner:
    """Runs segments of one workload in this process."""

    def __init__(self, workload: Workload, state: BenchState, work_dir: Path,
                 kernel: ReferenceKernel, recorder: Recorder, faults: Faults) -> None:
        self.workload = workload
        self.state = state
        self.work_dir = work_dir
        self.kernel = kernel
        self.recorder = recorder
        self.faults = faults
        self.compute = Compute(workload.size.compute_calls)
        self.compute.run()  # first BLAS call initialises the library
        self.iteration = 0
        #: One root and one ledger for the whole run: every segment reopens
        #: the stores over what the previous one left (a restart), so the
        #: retained checkpoints — and the memory under them — stay in steady
        #: state instead of being torn down and regrown per segment.
        self.root = work_dir / "store"
        self.ledger = Ledger()
        self.live: List[str] = []
        self.baseline_threads = threading.active_count()
        self.baseline_fds = _open_fds()

    def close(self) -> None:
        self.workload.release(self.root)
        shutil.rmtree(self.root, ignore_errors=True)

    # -- pieces --------------------------------------------------------------
    def _restore_once(self, root: Path, ctx: Context, segment: Segment,
                      expected: Any, tag: str, timed: bool) -> float:
        """Restart to first step: fresh store objects over the same root, a
        fresh loader, one restore; verification is outside the timed span.
        ``expected=None`` derives the expectation from the live state (after
        the clock stopped).  Returns when the restore ended."""
        workload = self.workload
        segment.attempted += 1
        started = ended = _now()
        stack = None
        try:
            stack = workload.open(root, ctx)
            loader = CheckpointLoader(stack.top)
            with self.recorder.span("restart.loader", "restore", tag):
                restored = loader.restore(workload.restore_spec())
            ended = _now()
            self.faults.corrupt_restored(restored)
            if expected is None:
                expected = workload.expected(self.state)
            difference = first_difference(restored, expected)
            if difference:
                segment.failures.append(f"restore of {tag} is not bit-identical: {difference}")
            del restored
            if timed:
                segment.restore_ms.append((ended - started) * 1e3)
                segment.restore_windows.append((started, ended))
                if segment.traced:
                    timings = loader.prefetch_timings()
                    segment.fetch_ms += [s * 1e3 for s in timings["fetch_seconds"]]
                    segment.deserialize_ms += [s * 1e3 for s in timings["deserialize_seconds"]]
                    segment.prefetch_depth = loader.effective_prefetch_depth
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            segment.failures.append(f"restore of {tag} failed: {exc!r}")
        finally:
            if stack is not None:
                stack.close()
        return ended

    def _retire(self, stack: Stack, force: bool) -> None:
        """Retention: delete the oldest tags beyond ``keep`` — once they have
        committed on the deepest level (deleting under an in-flight flush
        would fail that save)."""
        live, keep = self.live, self.workload.size.keep
        while len(live) > keep and (force or self.ledger.committed(live[0], stack.deepest)):
            self.workload.retire(stack, live.pop(0))

    # -- the segment ---------------------------------------------------------
    def run_segment(self, index: int, traced: bool = False) -> Segment:
        workload, state, size = self.workload, self.state, self.workload.size
        segment = Segment(index=index, traced=traced)
        ledger, root, live = self.ledger, self.root, self.live
        bytes_before = (ledger.bottom_bytes, ledger.logical_bytes)
        self.recorder.enabled = traced
        span_lo = len(self.recorder.spans)
        ctx = Context(ledger=ledger, recorder=self.recorder, faults=self.faults)
        thread_time = time.thread_time
        engine = stack = None
        reset_peak_rss()
        try:
            segment.probes.append(self.kernel.probe())

            # -- set-up: everything before the first measured iteration ------
            ticks = cpu_ticks()
            started = _now()
            stack = workload.open(root, ctx)
            engine = workload.make_engine(stack, state)
            self.iteration += 1
            first_tag = tag_of(self.iteration)
            state.mutate(self.iteration)
            segment.attempted += 1
            ledger.save_called[first_tag] = _now()
            workload.save(engine, stack, state, first_tag, self.iteration)
            workload.quiesce(engine, stack)
            live.append(first_tag)
            segment.setup_s = self._restore_once(
                root, ctx, segment, None, first_tag, timed=False) - started
            ticks = self._phase_ticks(segment, ticks)
            segment.probes.append(self.kernel.probe())

            if traced and size.compute_calls:
                for _ in range(3):
                    t0 = _now()
                    self.compute.run()
                    segment.compute_alone_ms.append((_now() - t0) * 1e3)

            # -- train loop ---------------------------------------------------
            if index == 0:
                self.faults.drop_manifest_tag = tag_of(self.iteration + size.iters)
            client_cpu = 0.0
            ticks = cpu_ticks()
            cpu_started = time.process_time()
            loop_started = _now()
            for _ in range(size.iters):
                self.iteration += 1
                tag = tag_of(self.iteration)
                t0 = _now()
                c0 = thread_time()
                self.compute.run()
                t1 = _now()
                c1 = thread_time()
                with self.recorder.span("core.engine", "wait_for_snapshot", tag):
                    workload.gate(engine)
                t2 = _now()
                c2 = thread_time()
                state.mutate(self.iteration)
                t3 = _now()
                client_cpu += (c1 - c0) + (thread_time() - c2)
                segment.attempted += 1
                ledger.save_called[tag] = t3
                try:
                    with self.recorder.span("core.engine", "save", tag):
                        workload.save(engine, stack, state, tag, self.iteration)
                except Exception as exc:  # noqa: BLE001 - a failed operation, counted
                    segment.failures.append(f"save of {tag} failed: {exc!r}")
                t4 = _now()
                segment.compute_ms.append((t1 - t0) * 1e3)
                segment.gate_ms.append((t2 - t1) * 1e3)
                segment.save_ms.append((t4 - t3) * 1e3)
                segment.iter_ms.append((t4 - t0) * 1e3)
                segment.loop_tags.append(tag)
                live.append(tag)
                self._retire(stack, force=False)
                if traced and workload.levels > 1:
                    segment.pending_drains_max = max(
                        segment.pending_drains_max,
                        stack.composite.drain_metrics()["pending_drains"])
            if workload.levels > 1:
                segment.pending_drains_at_end = \
                    stack.composite.drain_metrics()["pending_drains"]
                segment.pending_drains_max = max(segment.pending_drains_max,
                                                 segment.pending_drains_at_end)
            workload.quiesce(engine, stack)
            self._retire(stack, force=True)
            cpu_used = time.process_time() - cpu_started - client_cpu
            segment.ckpt_cpu_ms = cpu_used * 1e3 / max(1, size.iters)
            segment.loop_window = (loop_started, _now())
            for tag in segment.loop_tags:
                committed = ledger.commit_time(tag, stack.deepest)
                if committed is None:
                    segment.failures.append(f"save of {tag} never committed on the deepest level")
                else:
                    segment.commit_ms.append((committed - ledger.save_called[tag]) * 1e3)
            segment.counters = workload.layer_counters(engine, stack)
            self._phase_ticks(segment, ticks)
            segment.probes.append(self.kernel.probe())

            # -- restores -------------------------------------------------------
            expected = workload.expected(state)
            ticks = cpu_ticks()
            for _ in range(size.restores):
                self._restore_once(root, ctx, segment, expected, live[-1], timed=True)
            del expected
            self._phase_ticks(segment, ticks)
            segment.probes.append(self.kernel.probe())

            # -- segment-end checks -----------------------------------------------
            # Byte counts close here: the residency check below reopens the
            # stack, and what that writes (a chain's recovery) is not the
            # segment's.
            segment.bottom_bytes = ledger.bottom_bytes - bytes_before[0]
            segment.logical_bytes = ledger.logical_bytes - bytes_before[1]
            segment.attempted += 1
            segment.failures += workload.segment_failures(engine, stack, segment)
            segment.failures += self._residency_failures(root, ctx, live)
            segment.peak_rss_mib = peak_rss_mib()
        except Exception as exc:  # noqa: BLE001 - the segment is a failed operation
            segment.attempted += 1
            segment.failures.append(f"segment {index} aborted: {exc!r}")
        finally:
            if engine is not None:
                engine.shutdown(wait=True)
            if stack is not None:
                stack.close()
            self.recorder.enabled = False
            # The engine sits in reference cycles; collect now so its pinned
            # pool is returned before the next segment allocates its own
            # (otherwise the new pool is cut from cold pages at a random time).
            del engine, stack
            gc.collect()
        segment.span_range = (span_lo, len(self.recorder.spans))
        while len(segment.probes) < 4:  # an aborted segment still normalises
            segment.probes.append(self.kernel.history[-1])
        segment.leaked_threads = max(0, threading.active_count() - self.baseline_threads)
        if segment.leaked_threads:
            segment.failures.append(f"{segment.leaked_threads} threads above baseline")
        leaked_fds = _open_fds() - self.baseline_fds
        if leaked_fds > 0:
            segment.failures.append(f"{leaked_fds} file descriptors above baseline")
        return segment

    @staticmethod
    def _phase_ticks(segment: Segment, since: Tuple[int, int]) -> Tuple[int, int]:
        now = cpu_ticks()
        segment.ticks.append((now[0] - since[0], now[1] - since[1]))
        return now

    def _residency_failures(self, root: Path, ctx: Context, live: Sequence[str]) -> List[str]:
        """A fresh stack over the segment's root must list exactly the
        retained tags as committed — on top, and on the deepest level."""
        stack = self.workload.open(root, ctx)
        try:
            failures = []
            expected = sorted(live)
            on_top = sorted(stack.top.list_committed_checkpoints())
            if on_top != expected:
                failures.append(f"committed tags are {on_top}, expected {expected}")
            deepest = sorted(tag for tag in
                             stack.bottoms[-1].list_committed_checkpoints()
                             if not tag.startswith("cas-"))
            if len(deepest) != len(expected):
                failures.append(f"deepest level holds {len(deepest)} committed "
                                f"checkpoints, expected {len(expected)}")
            return failures
        finally:
            stack.close()


def cpu_ticks() -> Tuple[int, int]:
    """``(busy, stolen)`` clock ticks of all CPUs since boot (``/proc/stat``).
    Stolen ticks are time a vCPU was runnable but the hypervisor ran someone
    else: the direct measure of a disturbed phase on a shared host."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    fields += [0] * (8 - len(fields))
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` so every segment reports its own peak
    (a process-lifetime peak is set by whichever segment was unluckiest)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass  # no reset: every segment then reports the peak so far


def peak_rss_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _open_fds() -> int:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return 0
