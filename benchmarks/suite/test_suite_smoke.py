"""Tier-1 smoke test of the benchmark suite: all four workloads at ``--tiny``
sizes in both trace modes, the metric table against BENCHMARK.json, and proof
that the verification bites."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run as suite_run
from dsbench import metrics

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
WORKLOADS = [name for name, _why in metrics.WORKLOADS]
UNUSED_LAYERS = {
    "hifreq_file": ("io.tiered.", "io.cas.", "restart.reshape.", "io.objectstore."),
    "overlap_tiers": ("io.cas.", "restart.reshape."),
    "incr_cas": ("io.tiered.", "restart.reshape.", "io.objectstore."),
    "sync_elastic": ("io.tiered.", "io.cas.", "io.objectstore."),
}


def _run(work_dir: Path, *args: str):
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--tiny", "--dir", str(work_dir), *args],
        capture_output=True, text=True, timeout=120, cwd=str(work_dir))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done, result


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """``{(workload, trace): (completed process, result line)}`` plus the two
    sabotaged runs, all started together (this is a smoke test, not a timing)."""
    work_dir = tmp_path_factory.mktemp("dsbench")
    jobs = {(workload, trace): ("--workload", workload, "--trace", str(trace))
            for workload in WORKLOADS for trace in (0, 1)}
    jobs["flip-restored-byte"] = ("--workload", "hifreq_file", "--trace", "0",
                                  "--inject", "flip-restored-byte")
    jobs["drop-manifest"] = ("--workload", "overlap_tiers", "--trace", "0",
                             "--inject", "drop-manifest")
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = {key: pool.submit(_run, work_dir, *args) for key, args in jobs.items()}
        done = {key: future.result() for key, future in futures.items()}
    done["work_dir"] = work_dir
    return done


def test_benchmark_json_repeats_the_metric_table():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared == metrics.benchmark_json()
    assert [m.name for m in metrics.END_TO_END].count("setup_s") == 1
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(0 < m.bound <= 0.25 and m.better == "lower" for m in metrics.END_TO_END)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_pass_reports_every_end_to_end_metric(passes, workload):
    done, result = passes[(workload, 0)]
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]
    for metric in metrics.END_TO_END:
        reported = result["metrics"][metric.name]
        assert reported["unit"] == metric.unit
        assert math.isfinite(reported["value"]) and reported["value"] > 0, metric.name
    # Every metric is also printed by name with its unit, and the probe beside them.
    for metric in metrics.END_TO_END:
        assert f"  {metric.name} " in done.stdout
    for name in metrics.HOST_ECHO:
        assert f"  {name} " in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_every_per_layer_metric(passes, workload):
    done, result = passes[(workload, 1)]
    assert done.returncode == 0, done.stdout + done.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in metrics.PER_LAYER}
    for metric in metrics.PER_LAYER:
        reported = result["metrics"][metric.name]
        assert reported["unit"] == metric.unit
        assert math.isfinite(reported["value"]), metric.name
    values = {name: reported["value"] for name, reported in result["metrics"].items()}
    # Layers the workload does not use are not called at all.
    for name, value in values.items():
        if name.startswith(UNUSED_LAYERS[workload]):
            assert value == 0, name
    assert values["core.engine.checkpoints_committed"] > 0
    assert values["io.filestore.write_calls"] > 0
    assert values["trace.spans"] > 0 and 0 < values["trace.coverage_frac"] <= 1.0
    assert values["bench.leaked_threads"] == 0


def test_chrome_trace_parses(passes):
    trace = json.loads((passes["work_dir"] / "trace-overlap_tiers.json").read_text("utf-8"))
    spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert spans and all(event["dur"] >= 0 and "tag" in event["args"] for event in spans)
    layers = {event["cat"] for event in spans}
    assert {"core.engine", "io.tiered", "io.filestore", "io.objectstore",
            "restart.loader"} <= layers
    # One checkpoint's spans share its tag across threads.
    tag = next(event["args"]["tag"] for event in spans if event["name"] == "core.engine.save")
    assert len({event["tid"] for event in spans if event["args"]["tag"] == tag}) > 1


@pytest.mark.parametrize("sabotage", ["flip-restored-byte", "drop-manifest"])
def test_verification_bites(passes, sabotage):
    done, result = passes[sabotage]
    assert done.returncode != 0
    assert result["failed"] > 0 and result["correct"] is False
    assert "FAILED:" in done.stdout


def test_appending_to_another_shape_of_run_is_refused(tmp_path):
    stamp = {"cpu_count": 2, "segments": {"hifreq_file": 8}}
    out = tmp_path / "set.json"
    suite_run.append_result_set(out, stamp, {"seed": 1})
    suite_run.append_result_set(out, stamp, {"seed": 2})
    assert len(json.loads(out.read_text())["runs"]) == 2
    with pytest.raises(SystemExit, match="cores"):
        suite_run.append_result_set(out, {**stamp, "cpu_count": 8}, {"seed": 3})
    with pytest.raises(SystemExit, match="segments"):
        suite_run.append_result_set(out, {**stamp, "segments": {"hifreq_file": 12}},
                                    {"seed": 3})
    assert len(json.loads(out.read_text())["runs"]) == 2
