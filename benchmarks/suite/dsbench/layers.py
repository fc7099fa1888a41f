"""Per-layer metrics of one traced segment, derived from its spans and ledger.

Write-side metrics come from the train-loop window (first measured iteration
to quiescence), read-side metrics from the restore rounds; both are
normalised with the run's probe scale.  Counts are totals of
one segment (they repeat exactly from segment to segment); ``per checkpoint``
and ``per restore`` timings divide by the segment's iteration / restore count.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from .metrics import p50, percentile
from .tracing import Ledger, Recorder, Span, union_length
from .workloads import Segment, Workload

_FILE_WRITES = ("write_shard", "pwrite", "write_manifest")
_FILE_WRITE_BUSY = _FILE_WRITES + ("commit", "create_shard_writer")
_READS = ("read_shard", "read_shard_range", "open_shard_mmap")
_READ_BUSY = _READS + ("read_manifest",)
_OBJECT_PUTS = ("write_shard", "commit", "write_manifest")
_OBJECT_GETS = ("read_shard", "read_shard_range", "read_manifest", "shard_size")
_CAS_WRITES = ("write_shard", "write_manifest", "record_shard_reference")
_CAS_READS = ("read_shard", "read_shard_range", "read_manifest", "shard_size")
_PUBLISHES = ("commit", "write_shard")


def _within(spans: Iterable[Span], window: Tuple[float, float]) -> List[Span]:
    return [span for span in spans if window[0] <= span.start < window[1]]


def _in_any(spans: Iterable[Span], windows: Sequence[Tuple[float, float]]) -> List[Span]:
    return [span for span in spans
            if any(lo <= span.start < hi for lo, hi in windows)]


def _ops(spans: Iterable[Span], layer: str, ops: Sequence[str]) -> List[Span]:
    return [span for span in spans if span.layer == layer and span.op in ops]


def _busy(spans: Sequence[Span]) -> float:
    return union_length((span.start, span.end) for span in spans)


def segment_layer_metrics(recorder: Recorder, ledger: Ledger, segment: Segment,
                          workload: Workload, scale: float) -> Dict[str, float]:
    spans = recorder.spans[segment.span_range[0]:segment.span_range[1]]
    loop = _within(spans, segment.loop_window)
    restores = _in_any(spans, segment.restore_windows)
    n_ckpt = max(1, len(segment.loop_tags))
    n_restore = max(1, len(segment.restore_windows))
    deepest = workload.levels - 1
    out: Dict[str, float] = dict(segment.counters)

    def ms(seconds: float) -> float:
        """Seconds of span time as reference-host ms."""
        return seconds * 1e3 * scale

    # -- core.engine ----------------------------------------------------------
    out["core.engine.save_call_ms_p50"] = p50(segment.save_ms) * scale
    out["core.engine.gate_ms_p50"] = p50(segment.gate_ms) * scale
    out["core.engine.stall_ms_p95"] = percentile(segment.stall_ms, 0.95) * scale
    out["core.engine.commit_ms_p95"] = percentile(segment.commit_ms, 0.95) * scale
    out["core.engine.compute_ms_p50"] = p50(segment.compute_ms) * scale
    alone = p50(segment.compute_alone_ms)
    out["core.engine.interference_frac"] = (
        p50(segment.compute_ms) / alone - 1.0 if alone else 0.0)
    out["core.engine.checkpoints_committed"] = len(segment.commit_ms)

    # -- core.consolidation: last part published -> manifest published ---------
    commit_level = [span for span in loop
                    if span.layer in ("io.filestore", "io.objectstore") and span.tag]
    by_tag: Dict[str, List[Span]] = defaultdict(list)
    for span in commit_level:
        by_tag[span.tag].append(span)
    vote_to_commit = []
    for tag in segment.loop_tags:
        level0_commit = ledger.manifest_at.get((0, tag))
        if level0_commit is None:
            continue
        parts = [span.end for span in by_tag.get(tag, ())
                 if span.op in _PUBLISHES and span.end <= level0_commit]
        if parts:
            vote_to_commit.append(level0_commit - max(parts))
    out["core.consolidation.vote_to_commit_ms_p50"] = ms(p50(vote_to_commit))

    # -- io.filestore ------------------------------------------------------------
    file_writes = _ops(loop, "io.filestore", _FILE_WRITES)
    out["io.filestore.write_calls"] = len(file_writes)
    out["io.filestore.write_bytes"] = sum(span.nbytes for span in file_writes)
    out["io.filestore.write_busy_ms"] = ms(
        _busy(_ops(loop, "io.filestore", _FILE_WRITE_BUSY))) / n_ckpt
    out["io.filestore.publish_ms_p50"] = ms(
        p50([s.dur for s in _ops(loop, "io.filestore", ("commit",))]))
    out["io.filestore.manifest_ms_p50"] = ms(
        p50([s.dur for s in _ops(loop, "io.filestore", ("write_manifest",))]))
    out["io.filestore.delete_ms_p50"] = ms(
        p50([s.dur for s in _ops(loop, "io.filestore", ("delete_checkpoint",))]))
    file_reads = _ops(restores, "io.filestore", _READS)
    out["io.filestore.read_bytes"] = sum(span.nbytes for span in file_reads)
    out["io.filestore.read_busy_ms"] = ms(
        _busy(_ops(restores, "io.filestore", _READ_BUSY))) / n_restore
    out["io.filestore.mmap_open_ms_p50"] = ms(
        p50([s.dur for s in _ops(restores, "io.filestore", ("open_shard_mmap",))]))

    # -- io.objectstore ------------------------------------------------------------
    puts = _ops(loop, "io.objectstore", _OBJECT_PUTS)
    gets = _ops(loop + restores, "io.objectstore", _OBJECT_GETS)
    out["io.objectstore.put_calls"] = len(puts)
    out["io.objectstore.put_bytes"] = sum(span.nbytes for span in puts)
    out["io.objectstore.put_busy_ms"] = ms(_busy(puts)) / n_ckpt
    out["io.objectstore.get_calls"] = len(gets)
    out["io.objectstore.get_bytes"] = sum(span.nbytes for span in gets)
    out["io.objectstore.get_busy_ms"] = ms(_busy(gets)) / n_restore

    # -- io.tiered -------------------------------------------------------------------
    if workload.levels > 1:
        stamps = ledger.manifest_at
        called = ledger.save_called
        tags = [tag for tag in segment.loop_tags
                if all((level, tag) in stamps for level in range(workload.levels))]
        out["io.tiered.l0_commit_ms_p50"] = ms(
            p50([stamps[(0, tag)] - called[tag] for tag in tags]))
        out["io.tiered.drain_link0_ms_p50"] = ms(
            p50([stamps[(1, tag)] - stamps[(0, tag)] for tag in tags]))
        out["io.tiered.drain_link1_ms_p50"] = ms(
            p50([stamps[(2, tag)] - stamps[(1, tag)] for tag in tags]))
        out["io.tiered.drain_lag_ms_p50"] = ms(
            p50([stamps[(deepest, tag)] - stamps[(0, tag)] for tag in tags]))
        out["io.tiered.pending_drains_max"] = segment.pending_drains_max
        chain_spans = [span for span in loop if span.layer == "io.tiered" and span.tag]
        own = recorder.self_times(chain_spans)
        per_tag: Dict[str, float] = defaultdict(float)
        for span in chain_spans:
            per_tag[span.tag] += own[span.id]
        out["io.tiered.self_ms_p50"] = ms(
            p50([per_tag[tag] for tag in segment.loop_tags if tag in per_tag]))

    # -- io.cas -------------------------------------------------------------------------
    cas_writes = _ops(loop, "io.cas", _CAS_WRITES)
    if cas_writes:
        own = recorder.self_times(cas_writes)
        per_tag = defaultdict(float)
        for span in cas_writes:
            per_tag[span.tag] += own[span.id]
        out["io.cas.write_self_ms_p50"] = ms(
            p50([per_tag[tag] for tag in segment.loop_tags if tag in per_tag]))
        shard_writes = [span for span in cas_writes if span.op == "write_shard"]
        hashed = sum(own[span.id] for span in shard_writes)
        if hashed > 0:
            out["io.cas.hash_MBps"] = (sum(span.nbytes for span in shard_writes)
                                       / hashed / 1e6 / scale)
        out["io.cas.sweep_ms_p50"] = ms(
            p50([s.dur for s in _ops(loop, "io.cas", ("sweep_unreferenced",))]))
        out["io.cas.delete_ms_p50"] = ms(
            p50([s.dur for s in _ops(loop, "io.cas", ("delete_checkpoint",))]))
        cas_reads = _ops(restores, "io.cas", _CAS_READS)
        own = recorder.self_times(cas_reads)
        out["io.cas.read_self_ms_p50"] = ms(p50([
            sum(own[span.id] for span in _within(cas_reads, window))
            for window in segment.restore_windows]))

    # -- restart.loader ------------------------------------------------------------------
    restore_spans = _ops(restores, "restart.loader", ("restore",))
    store_layers = ("io.filestore", "io.objectstore", "io.tiered", "io.cas")
    self_ms = []
    for span in restore_spans:
        inside = [(other.start, other.end) for other in restores
                  if other.layer in store_layers]
        self_ms.append(span.dur - union_length(inside, (span.start, span.end)))
    durations = [span.dur for span in restore_spans]
    out["restart.loader.restore_self_ms_p50"] = ms(p50(self_ms))
    out["restart.loader.restore_ms_p95"] = ms(percentile(durations, 0.95))
    if durations and segment.loop_tags:
        logical = segment.logical_bytes / (len(segment.loop_tags) + 1)
        out["restart.loader.restore_MBps"] = logical / p50(durations) / 1e6 / scale
    out["restart.loader.fetch_ms_p50"] = p50(segment.fetch_ms) * scale
    out["restart.loader.deserialize_ms_p50"] = p50(segment.deserialize_ms) * scale
    out["restart.loader.effective_prefetch_depth"] = segment.prefetch_depth

    # -- trace.coverage: share of save() -> deepest commit covered by spans ----------------
    tagged: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in loop:
        if span.tag:
            tagged[span.tag].append((span.start, span.end))
    coverage = []
    for tag in segment.loop_tags:
        committed = ledger.commit_time(tag, deepest)
        if committed is None:
            continue
        window = (ledger.save_called[tag], committed)
        if window[1] > window[0]:
            coverage.append(union_length(tagged.get(tag, ()), window)
                            / (window[1] - window[0]))
    out["trace.coverage_frac"] = p50(coverage)
    return out
