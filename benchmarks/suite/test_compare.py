"""compare.py on synthetic result files: the three verdicts and the exit codes."""

from __future__ import annotations

import json
import random

import compare
from dsbench.metrics import END_TO_END

_BASE = {"setup_s": 0.3, "iter_ms_p50": 60.0, "stall_ms_p50": 58.0, "commit_ms_p50": 95.0,
         "restore_ms_p50": 90.0, "ckpt_cpu_ms": 120.0, "write_amp": 1.0, "peak_rss_mib": 400.0}


def _result_file(path, scale=None, jitter=0.01, failed=0, passes=8, seed=7, cores=2):
    """A result file whose metrics are ``_BASE`` times ``scale`` (per metric),
    with +-``jitter`` of uniform noise (``write_amp`` stays exact)."""
    rng = random.Random(seed)
    scale = scale or {}
    runs = []
    for index in range(passes):
        metrics = {}
        for metric in END_TO_END:
            noise = 1.0 if metric.name == "write_amp" else 1.0 + rng.uniform(-jitter, jitter)
            metrics[metric.name] = _BASE[metric.name] * scale.get(metric.name, 1.0) * noise
        runs.append({"seed": index, "trace": 0, "workloads": {
            "hifreq_file": {"metrics": metrics, "attempted": 100,
                            "failed": failed if index == 0 else 0}}})
    path.write_text(json.dumps({
        "stamp": {"cpu_count": cores, "segments": {"hifreq_file": 8}}, "runs": runs}))
    return path


def _verdicts(capsys):
    lines = [line.split() for line in capsys.readouterr().out.splitlines()
             if line.startswith("hifreq_file")]
    return {fields[1]: fields[-1] for fields in lines}


def test_same_code_is_ok(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", seed=1)
    b = _result_file(tmp_path / "b.json", seed=2)
    assert compare.main([str(a), str(b)]) == 0
    assert set(_verdicts(capsys).values()) == {"ok"}


def test_twofold_slowdown_is_a_regression(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", seed=1)
    b = _result_file(tmp_path / "b.json", scale={"stall_ms_p50": 2.0}, seed=2)
    assert compare.main([str(a), str(b)]) == 1
    verdicts = _verdicts(capsys)
    assert verdicts.pop("stall_ms_p50") == "regressed"
    assert set(verdicts.values()) == {"ok"}


def test_improvement_is_ok(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", seed=1)
    b = _result_file(tmp_path / "b.json", scale={"commit_ms_p50": 0.5}, seed=2)
    assert compare.main([str(a), str(b)]) == 0
    assert _verdicts(capsys)["commit_ms_p50"] == "ok"


def test_wide_spread_is_unresolved_not_ok(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", jitter=0.4, seed=1)
    b = _result_file(tmp_path / "b.json", jitter=0.4, seed=2)
    assert compare.main([str(a), str(b)]) == 0
    verdicts = _verdicts(capsys)
    assert verdicts["iter_ms_p50"] == "unresolved"
    assert verdicts["write_amp"] == "ok"  # exact counts resolve at any noise


def test_wide_spread_resolves_when_every_pass_of_one_side_wins(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", jitter=0.2, seed=1)
    b = _result_file(tmp_path / "b.json", jitter=0.2, scale={"restore_ms_p50": 3.0}, seed=2)
    assert compare.main([str(a), str(b)]) == 1
    assert _verdicts(capsys)["restore_ms_p50"] == "regressed"


def test_failed_operations_fail_the_comparison(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", seed=1)
    b = _result_file(tmp_path / "b.json", failed=3, seed=2)
    assert compare.main([str(a), str(b)]) == 1
    assert "3 failed operations" in capsys.readouterr().out


def test_self_comparison_splits_alternate_passes(tmp_path, capsys):
    both = _result_file(tmp_path / "both.json", passes=12)
    assert compare.main(["--self", str(both)]) == 0
    assert "6 vs 6 passes" in capsys.readouterr().out


def test_other_core_count_does_not_compare(tmp_path):
    a = _result_file(tmp_path / "a.json", cores=2)
    b = _result_file(tmp_path / "b.json", cores=8)
    assert compare.main([str(a), str(b)]) == 2
