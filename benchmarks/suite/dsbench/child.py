"""The per-workload child process: runs the segments, aggregates, reports.

``run.py`` starts one of these per workload with the allocator and BLAS
pinned in its environment; the result travels back as a JSON file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

_STARTED = time.perf_counter()


def _numpy_build(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{numpy.__version__} ({blas.get('name')} {blas.get('version')})"
    except Exception:  # noqa: BLE001 - the layout of show_config is not an API
        return numpy.__version__


def _end_to_end(segments: Sequence[Any]) -> Dict[str, Dict[str, Any]]:
    """A phase's value in a segment is its median over the segment's samples;
    the run's value is the ``typical`` (lower-quartile) segment times the
    run's probe scale.  Returns ``{"metrics", "samples", "raw", "scale"}``."""
    from .metrics import p50, typical
    from .probes import ReferenceKernel

    scale = ReferenceKernel.scale([probe for s in segments for probe in s.probes])
    raw_segments = {
        "setup_s": [s.setup_s for s in segments],
        "iter_ms_p50": [p50(s.iter_ms) for s in segments],
        "stall_ms_p50": [p50(s.stall_ms) for s in segments],
        "commit_ms_p50": [p50(s.commit_ms) for s in segments],
        "restore_ms_p50": [p50(s.restore_ms) for s in segments],
        "ckpt_cpu_ms": [s.ckpt_cpu_ms for s in segments],
    }
    samples = {name: [value * scale for value in values]
               for name, values in raw_segments.items()}
    samples["peak_rss_mib"] = [s.peak_rss_mib for s in segments]
    samples["write_amp"] = [s.bottom_bytes / s.logical_bytes if s.logical_bytes else 0.0
                            for s in segments]
    metrics = {name: typical(values) for name, values in samples.items()}
    bottom = sum(s.bottom_bytes for s in segments)
    logical = sum(s.logical_bytes for s in segments)
    metrics["write_amp"] = bottom / logical if logical else 0.0
    raw = {"host.raw_setup_s": typical(raw_segments["setup_s"])}
    raw.update({f"host.raw_{name}": typical(raw_segments[name]) for name in
                ("iter_ms_p50", "stall_ms_p50", "commit_ms_p50", "restore_ms_p50")})
    return {"metrics": metrics, "samples": samples, "raw": raw, "scale": scale}


def run(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy  # timed: the child's import cost
    import repro  # noqa: F401

    import_ms = (time.perf_counter() - _STARTED) * 1e3

    from .drills import Drills
    from .layers import segment_layer_metrics
    from .metrics import END_TO_END, PER_LAYER, p50
    from .probes import ReferenceKernel, host_ceilings
    from .tracing import Faults, Recorder
    from .workloads import WORKLOADS, Runner, segment_count

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    work_dir = Path(args.dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    state = workload.build_state(args.seed)
    kernel = ReferenceKernel(reps=5 if args.tiny else 15)
    recorder = Recorder()
    runner = Runner(workload, state, work_dir, kernel, recorder, Faults(args.inject))

    measured_from = time.perf_counter()
    result: Dict[str, Any] = {"workload": workload.name, "trace": args.trace,
                              "seed": args.seed, "tiny": args.tiny}
    # The first segment of a process pays for cold pages, cold code and an
    # empty store; it warms the run up and is checked, but not timed.
    warmup = runner.run_segment(-1)
    if not args.trace:
        count = segment_count(workload, args.seconds)
        segments = [runner.run_segment(index) for index in range(count)]
        summary = _end_to_end(segments)
        metrics = {metric.name: summary["metrics"][metric.name] for metric in END_TO_END}
        result["samples"] = summary["samples"]
        result["echo"] = {**kernel.summary(), **summary["raw"]}
        extra_attempted, extra_failures = 0, []
        runner.close()
    else:
        # Reference and traced segments alternate, so host drift hits both.
        pairs = 1 if args.tiny else 2
        segments = [runner.run_segment(index, traced=bool(index % 2))
                    for index in range(2 * pairs)]
        reference = [s for s in segments if not s.traced]
        traced = [s for s in segments if s.traced]
        metrics = {metric.name: 0.0 for metric in PER_LAYER}
        scale = ReferenceKernel.scale([probe for s in segments for probe in s.probes])
        per_segment = [segment_layer_metrics(recorder, runner.ledger, s, workload, scale)
                       for s in traced]
        for name in {name for values in per_segment for name in values}:
            metrics[name] = p50([values.get(name, 0.0) for values in per_segment])
        # Two segments a side: compare the least disturbed of each.
        reference_iter = _end_to_end(reference)["samples"]["iter_ms_p50"]
        traced_e2e = _end_to_end(traced)
        metrics["trace.overhead_frac"] = (
            min(traced_e2e["samples"]["iter_ms_p50"]) / min(reference_iter) - 1.0)
        metrics["trace.spans"] = len(recorder.spans)
        result["samples"] = {"reference_iter_ms_p50": reference_iter,
                             "traced_iter_ms_p50": traced_e2e["samples"]["iter_ms_p50"]}
        metrics.update({name: value for name, value in traced_e2e["raw"].items()
                        if name in metrics})
        # Closing the runner first hands the drills the warm pages of its
        # store and pool; fresh ones cost this host up to 20 ms per MiB.
        runner.close()
        segments_done = time.perf_counter()
        drills = Drills(workload, state, work_dir, kernel)
        drills.run_all()
        metrics.update(drills.metrics)
        drills_done = time.perf_counter()
        metrics.update(host_ceilings(work_dir, tiny=args.tiny))
        result["phase_seconds"] = {
            "segments": segments_done - measured_from, **drills.seconds,
            "host_ceilings": time.perf_counter() - drills_done}
        metrics.update(kernel.summary())
        metrics["bench.import_ms"] = import_ms
        metrics["bench.leaked_threads"] = max(s.leaked_threads for s in segments)
        metrics["bench.segments"] = len(segments)
        assert set(metrics) == {metric.name for metric in PER_LAYER}, \
            sorted(set(metrics) ^ {metric.name for metric in PER_LAYER})
        trace_file = work_dir.parent / f"trace-{workload.name}.json"
        recorder.write_chrome_trace(trace_file, measured_from)
        result["trace_file"] = str(trace_file)
        extra_attempted, extra_failures = drills.attempted, drills.failures

    failures: List[str] = [message for s in [warmup, *segments] for message in s.failures]
    failures += extra_failures
    lagging = [s for s in segments if s.lagged]
    if not args.tiny and len(lagging) > len(segments) / 4:
        failures.append(f"background work fell behind in {len(lagging)} of {len(segments)} "
                        f"segments: {lagging[0].lagged[0]}")
    result.update({
        "metrics": metrics,
        "attempted": sum(s.attempted for s in [warmup, *segments]) + extra_attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "lagged_segments": len(lagging),
        "segments": len(segments),
        "iterations": sum(len(s.iter_ms) for s in segments),
        "measured_seconds": time.perf_counter() - measured_from,
        "import_ms": import_ms,
        "numpy": _numpy_build(numpy),
        # Raw per-segment medians with their probes and (busy, stolen) ticks:
        # what the normalisation worked from.
        "segment_log": [{
            "traced": s.traced, "probes": s.probes, "ticks": s.ticks,
            "setup_s": s.setup_s, "iter_ms": p50(s.iter_ms), "stall_ms": p50(s.stall_ms),
            "commit_ms": p50(s.commit_ms), "restore_ms": p50(s.restore_ms),
            "ckpt_cpu_ms": s.ckpt_cpu_ms, "compute_ms": p50(s.compute_ms),
        } for s in segments],
    })
    return result


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py --child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--inject", default=None)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    finally:
        shutil.rmtree(args.dir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0
