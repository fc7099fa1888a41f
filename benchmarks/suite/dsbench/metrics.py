"""The one table of metric names, units, directions and bounds.

``run.py`` emits exactly these names, ``compare.py`` judges under exactly
these bounds, ``BENCHMARK.json`` at the repository root repeats them for the
driver, and ``test_suite_smoke.py`` asserts that the three agree.  Adding a
metric or a workload is its own change that claims no gain (README, "Rules").
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Every wall-clock and CPU timing is reported as "time on a host that runs
#: the reference kernel (``probes.ReferenceKernel``) in this many ms".
REF_KERNEL_MS = 3.0

#: What ``--seconds`` defaults to and what BENCHMARK.json's ``run_seconds``
#: says: the measured part of one workload run, converted once to a fixed
#: number of fixed-work segments (``workloads.segment_count``).
RUN_SECONDS = 22


#: The workloads and why each exists (one line; README has the paragraph).
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("hifreq_file",
     "datastates on a file store, 64 MiB in 200 tensors, no compute: capture, pool, "
     "flush, file writes and the mmap restore do all the work; tiers, CAS and reshape none"),
    ("overlap_tiers",
     "datastates on a 3-level file/file/object tier chain, 16 MiB in 500 tensors, compute "
     "hides the capture: stall is the O(tensors) part of save(), commit is drain lag"),
    ("incr_cas",
     "incremental datastates, 8 shard parts, on CAS over a file store, half the parts "
     "frozen: sha256, re-chunking, the dirty-scan CRC pass, refcount GC, chunk-read restores"),
    ("sync_elastic",
     "blocking torchsnapshot saves of a dp1 x pp1 x tp2 grid via save_elastic_checkpoint, "
     "restores reshaped to dp2 x tp1: two-phase commit across ranks, reshape merge/resplit"),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen before a
    #: change counts as a regression; ``None`` for per-layer metrics.
    bound: Optional[float]
    what: str


#: End-to-end metrics: defined on every workload, all lower-is-better, all
#: measured by ``--trace 0``.  Timings are host-normalised (``*_ref`` units;
#: ``setup_s`` too, although the driver's contract fixes its unit as ``s``).
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "store(s) + engine + pool construction, first save to commit, "
           "first restore; median over the run's segments (reference-host s)"),
    Metric("iter_ms_p50", "ms_ref", "lower", 0.25,
           "compute + gate + mutate + save() per iteration"),
    Metric("stall_ms_p50", "ms_ref", "lower", 0.25,
           "training-visible blocked time per checkpoint: "
           "wait_for_snapshot() + save()"),
    Metric("commit_ms_p50", "ms_ref", "lower", 0.25,
           "save() call to manifest published on the deepest store level"),
    Metric("restore_ms_p50", "ms_ref", "lower", 0.25,
           "fresh store + fresh loader + restore(spec) of the latest tag"),
    Metric("ckpt_cpu_ms", "ms_ref", "lower", 0.25,
           "process CPU minus the client's own compute/mutate CPU, per "
           "checkpoint"),
    Metric("write_amp", "ratio", "lower", 0.001,
           "bytes handed to bottom-level stores / logical bytes committed"),
    Metric("peak_rss_mib", "MiB", "lower", 0.15,
           "VmHWM of the workload's child process, per segment"),
)


def _layer(prefix: str, rows: Sequence[Tuple[str, str, str, str]]) -> List[Metric]:
    return [Metric(f"{prefix}.{name}", unit, better, None, what)
            for name, unit, better, what in rows]


#: Per-layer metrics: measured by ``--trace 1``, ungated.  A layer the
#: workload does not use reports 0 (README lists which and why).
PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer("host", [
        ("ref_kernel_ms_p50", "ms", "lower", "median reference-kernel time of the run"),
        ("ref_kernel_spread", "frac", "lower", "(max-min)/median of the run's probes"),
        ("memcpy_MBps", "MB/s", "higher", "single-thread 64 MiB copy"),
        ("crc32_MBps", "MB/s", "higher", "zlib.crc32 over 16 MiB"),
        ("sha256_MBps", "MB/s", "higher", "hashlib.sha256 over 16 MiB"),
        ("pwrite_MBps", "MB/s", "higher", "pwrite of 32 MiB to the work dir, no fsync"),
        ("pwrite_fsync_MBps", "MB/s", "higher", "pwrite + fsync of 32 MiB to the work dir"),
        ("first_touch_MBps", "MB/s", "higher", "first write to freshly mapped pages"),
        ("raw_iter_ms_p50", "ms", "lower", "un-normalised iter_ms_p50"),
        ("raw_stall_ms_p50", "ms", "lower", "un-normalised stall_ms_p50"),
        ("raw_commit_ms_p50", "ms", "lower", "un-normalised commit_ms_p50"),
        ("raw_restore_ms_p50", "ms", "lower", "un-normalised restore_ms_p50"),
    ])
    + _layer("tensor", [
        ("flatten_ms_p50", "ms_ref", "lower", "flatten_state_dict on the workload state"),
    ])
    + _layer("serialization", [
        ("plan_ms_p50", "ms_ref", "lower", "plan_shards at the workload's shards_per_rank"),
        ("preamble_ms_p50", "ms_ref", "lower", "encode_preamble of every part"),
        ("manifest_ms_p50", "ms_ref", "lower", "manifest to_json/dumps/loads/from_json round trip"),
        ("crc_combine_us_p50", "us_ref", "lower", "one crc32_combine fold step"),
        ("checksum_MBps", "MB/s_ref", "higher", "checksum_stream over the serialized state"),
        ("stream_MBps", "MB/s_ref", "higher", "iter_shard_chunks + crc32, the streaming flush's CPU side"),
        ("deserialize_copy_MBps", "MB/s_ref", "higher", "deserialize_state(copy=True)"),
        ("deserialize_view_ms_p50", "ms_ref", "lower", "deserialize_state(copy=False)"),
    ])
    + _layer("memory", [
        ("pool_cycle_us_p50", "us_ref", "lower", "PinnedHostPool allocate + free of one tensor"),
        ("pool_blocked_waits", "count", "lower", "captures that waited for pool space (traced stretch)"),
        ("pool_peak_frac", "frac", "lower", "peak pool bytes / capacity (traced stretch)"),
    ])
    + _layer("core", [
        ("engine.save_call_ms_p50", "ms_ref", "lower", "save() alone"),
        ("engine.gate_ms_p50", "ms_ref", "lower", "wait_for_snapshot() alone"),
        ("engine.stall_ms_p95", "ms_ref", "lower", "p95 of gate + save"),
        ("engine.commit_ms_p95", "ms_ref", "lower", "p95 of save() to deepest commit"),
        ("engine.compute_ms_p50", "ms_ref", "lower", "the client's compute under checkpointing"),
        ("engine.interference_frac", "frac", "lower", "compute under checkpointing / compute alone - 1"),
        ("engine.checkpoints_committed", "count", "higher", "commits seen by the bottom proxies (traced stretch)"),
        ("engine.parts_referenced", "count", "higher", "incremental parts recorded by reference"),
        ("engine.bytes_referenced", "count", "higher", "bytes of those parts"),
        ("lazy_snapshot.capture_ms_p50", "ms_ref", "lower", "CopyStream.submit to wait_captured, engine idle"),
        ("lazy_snapshot.capture_MBps", "MB/s_ref", "higher", "payload bytes / capture time"),
        ("flush_pipeline.flush_ms_p50", "ms_ref", "lower", "FlushPipeline.submit to durable, workload state"),
        ("flush_pipeline.flush_MBps", "MB/s_ref", "higher", "payload bytes / flush time"),
        ("flush_pipeline.per_tensor_us", "us_ref", "lower", "slope of flush time, 1000 vs 100 tensors, same bytes"),
        ("consolidation.vote_to_commit_ms_p50", "ms_ref", "lower", "last part published to manifest published"),
        ("sweep.deepspeed_stall_ms_p50", "ms_ref", "lower", "engine sweep stall (hifreq_file only)"),
        ("sweep.async_stall_ms_p50", "ms_ref", "lower", "engine sweep stall (hifreq_file only)"),
        ("sweep.torchsnapshot_stall_ms_p50", "ms_ref", "lower", "engine sweep stall (hifreq_file only)"),
        ("sweep.datastates_stall_ms_p50", "ms_ref", "lower", "engine sweep stall (hifreq_file only)"),
    ])
    + _layer("io.filestore", [
        ("write_calls", "count", "lower", "write_shard + pwrite + write_manifest calls"),
        ("write_bytes", "count", "lower", "bytes of those calls"),
        ("write_busy_ms", "ms_ref", "lower", "union of write spans, per checkpoint"),
        ("publish_ms_p50", "ms_ref", "lower", "ShardWriter.commit / write_shard tail (rename)"),
        ("manifest_ms_p50", "ms_ref", "lower", "write_manifest"),
        ("read_bytes", "count", "lower", "bytes read or mapped"),
        ("read_busy_ms", "ms_ref", "lower", "union of read spans, per restore"),
        ("mmap_open_ms_p50", "ms_ref", "lower", "open_shard_mmap"),
        ("delete_ms_p50", "ms_ref", "lower", "delete_checkpoint"),
        ("write_shard_MBps", "MB/s_ref", "higher", "drill: write_shard of the serialized state"),
        ("pwrite_commit_MBps", "MB/s_ref", "higher", "drill: ShardWriter pwrite per tensor + commit"),
        ("fsync_publish_ms_p50", "ms", "lower", "drill: the same with fsync=True, minus without (raw ms)"),
    ])
    + _layer("io.objectstore", [
        ("put_calls", "count", "lower", "PUTs"),
        ("put_bytes", "count", "lower", "bytes PUT"),
        ("put_busy_ms", "ms_ref", "lower", "union of PUT spans, per checkpoint"),
        ("get_calls", "count", "lower", "GETs"),
        ("get_bytes", "count", "lower", "bytes returned by GETs"),
        ("get_busy_ms", "ms_ref", "lower", "union of GET spans, per restore"),
    ])
    + _layer("io.tiered", [
        ("self_ms_p50", "ms_ref", "lower", "chain spans minus level-store spans, per checkpoint"),
        ("l0_commit_ms_p50", "ms_ref", "lower", "save() to manifest on level 0"),
        ("drain_link0_ms_p50", "ms_ref", "lower", "manifest on level 0 to manifest on level 1"),
        ("drain_link1_ms_p50", "ms_ref", "lower", "manifest on level 1 to manifest on level 2"),
        ("drain_lag_ms_p50", "ms_ref", "lower", "manifest on level 0 to manifest on the deepest level"),
        ("drain_wait_ms", "ms", "lower", "commit backpressure (must be 0)"),
        ("bytes_drained", "count", "lower", "bytes copied down links"),
        ("evicted_checkpoints", "count", "lower", "watermark evictions"),
        ("promoted_parts", "count", "lower", "parts re-warmed by deep reads"),
        ("failed_drains", "count", "lower", "drains that gave up"),
        ("pending_drains_max", "count", "lower", "largest backlog seen at an iteration end"),
        ("restore_deep_ms_p50", "ms_ref", "lower", "drill: restore of tags resident only on the deepest level"),
        ("restore_local_over_file", "ratio", "lower", "drill: level-0 restore through the chain / through a bare FileStore"),
    ])
    + _layer("io.cas", [
        ("write_self_ms_p50", "ms_ref", "lower", "CAS write spans minus inner store spans, per checkpoint"),
        ("hash_MBps", "MB/s_ref", "higher", "bytes through CAS write_shard / its self time"),
        ("chunks_written", "count", "lower", "chunks uploaded"),
        ("chunks_deduped", "count", "higher", "chunks found in the pool"),
        ("chunks_referenced", "count", "higher", "chunks pinned by reference"),
        ("bytes_written", "count", "lower", "chunk bytes uploaded"),
        ("dedup_ratio", "ratio", "lower", "bytes uploaded / logical bytes"),
        ("read_self_ms_p50", "ms_ref", "lower", "CAS read spans minus inner store spans, per restore"),
        ("sweep_ms_p50", "ms_ref", "lower", "sweep_unreferenced()"),
        ("delete_ms_p50", "ms_ref", "lower", "delete_checkpoint (refcount decrement + index persist)"),
    ])
    + _layer("restart.loader", [
        ("restore_self_ms_p50", "ms_ref", "lower", "restore span minus the store spans it covers"),
        ("restore_MBps", "MB/s_ref", "higher", "logical bytes / restore time"),
        ("restore_ms_p95", "ms_ref", "lower", "p95 of the traced restores"),
        ("fetch_ms_p50", "ms_ref", "lower", "prefetch_timings() fetch samples"),
        ("deserialize_ms_p50", "ms_ref", "lower", "prefetch_timings() deserialize samples"),
        ("effective_prefetch_depth", "count", "lower", "depth the loader ran at"),
        ("restore_read_ms_p50", "ms_ref", "lower", "drill: the same restore with use_mmap=False"),
    ])
    + _layer("restart.reshape", [
        ("merge_ms_p50", "ms_ref", "lower", "drill: merge_full_state"),
        ("resplit_ms_p50", "ms_ref", "lower", "drill: shard_full_state at the target grid"),
        ("shard_full_state_ms_p50", "ms_ref", "lower", "drill: shard_full_state at the save grid"),
        ("restore_plain_ms_p50", "ms_ref", "lower", "drill: RestoreSpec.full() without reshaping"),
        ("reshape_over_plain", "ratio", "lower", "reshaped restore / plain restore"),
    ])
    + _layer("trace", [
        ("overhead_frac", "frac", "lower", "traced iter / reference iter - 1"),
        ("coverage_frac", "frac", "higher", "share of save()-to-deepest-commit covered by boundary spans"),
        ("spans", "count", "lower", "spans recorded"),
    ])
    + _layer("bench", [
        ("import_ms", "ms", "lower", "import numpy + repro in the child"),
        ("leaked_threads", "count", "lower", "threads above baseline at segment ends"),
        ("segments", "count", "higher", "segments run (reference + traced)"),
    ])
)

#: Printed by ``--trace 0`` beside the end-to-end metrics (not part of the
#: contract's result line): the probe and the un-normalised values.
HOST_ECHO = ("host.ref_kernel_ms_p50", "host.ref_kernel_spread",
             "host.raw_iter_ms_p50", "host.raw_stall_ms_p50",
             "host.raw_commit_ms_p50", "host.raw_restore_ms_p50")

BY_NAME: Dict[str, Metric] = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """The content of the repository's BENCHMARK.json."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


# -- statistics used everywhere ------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def typical(values: Sequence[float]) -> float:
    """The run-level value of a per-segment statistic: its lower quartile.

    Disturbances on a shared host only ever slow a segment down (a stolen
    vCPU, a fresh allocation cut from pages the hypervisor has to fault in),
    so the undisturbed value sits at the low end of the per-segment
    distribution.  Over ten runs the lower quartile of the segments repeated
    within half the spread of their median on the noisiest metrics (set-up
    0.07-0.36 vs 0.20-0.84, CPU 0.06-0.11 vs 0.06-0.24) and was never
    meaningfully worse (README, "Measured spreads").  The statistic *inside* a
    segment stays what the metric's name says (a p50 is a median)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = 0.25 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def iqr_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median — the spread
    the driver and ``compare.py`` hold against a metric's bound."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0
