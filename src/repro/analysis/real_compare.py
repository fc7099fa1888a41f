"""Run the real-mode trainer under each registered engine and compare stalls.

The real-mode counterpart of the Figure 7/8 comparison: the same tiny NumPy
transformer is trained under every engine name, and the training-visible
checkpoint stall (consistency gate + save-request time) is reported per
engine.  Shared by ``repro compare-real`` / ``repro train`` and the
``examples/real_engine_comparison.py`` walkthrough.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..config import CheckpointPolicy
from ..core import ENGINE_LABELS, ENGINE_NAMES, canonical_engine_name, create_real_engine
from ..io import create_store
from ..model import NumpyTransformerLM, tiny_config
from ..restart import RestoreSpec
from ..training import RealTrainer


def _store_location(store, store_backend: str) -> str:
    """Display-friendly location of a store (directory, bucket, tier pair,
    or namespaced chunk pool)."""
    job_id = getattr(store, "job_id", None)
    if job_id is not None and getattr(store, "inner", None) is not None:
        return f"cas://{job_id}@{_store_location(store.inner, 'pool')}"
    levels = getattr(store, "levels", None)
    if levels is not None and getattr(store, "fast", None) is not None:
        return "tiered://" + " -> ".join(
            _store_location(level.store, name)
            for level, name in zip(levels, store.level_names))
    root = getattr(store, "root", None)
    if root is not None:
        return str(root)
    return f"object://{getattr(store, 'bucket', store_backend)}"


def run_real_engine(
    engine_name: str,
    workdir: Union[str, Path],
    iterations: int = 4,
    checkpoint_interval: int = 1,
    hidden_size: int = 128,
    num_layers: int = 2,
    seed: int = 0,
    policy: Optional[CheckpointPolicy] = None,
    store_backend: str = "file",
    store_kwargs: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Train under one engine and measure its per-iteration blocked time.

    ``store_backend`` selects the shard store by registry name (``file``,
    ``object``, ``tiered``, ``cas``, ...); the engine pipeline is identical
    either way.  ``store_kwargs`` are forwarded to
    :func:`repro.io.create_store` (the tiered backend's composition knobs,
    the CAS backend's namespace/chunk-pool knobs).  On a draining store the
    row additionally reports the drain pipeline's counters, measured after
    waiting the background replication out; on a deduplicating store it
    reports the chunk pool's bytes-written / dedup-ratio counters.
    """
    name = canonical_engine_name(engine_name)
    store = create_store(store_backend, root=Path(workdir) / name,
                         **(store_kwargs or {}))
    engine = create_real_engine(name, store, policy=policy)
    with engine:
        model = NumpyTransformerLM(
            tiny_config(hidden_size=hidden_size, num_layers=num_layers), seed=seed
        )
        trainer = RealTrainer(model, engine=engine)
        report = trainer.train(iterations=iterations,
                               checkpoint_interval=checkpoint_interval)
        engine.wait_all()
        committed = engine.list_checkpoints()
        # Restore round trip through the engine protocol (validated, and
        # prefetched per policy.prefetch_depth) — makes the restore-side
        # knobs observable in the comparison, not just the save side.
        restore_seconds = None
        if committed:
            start = time.perf_counter()
            engine.load(RestoreSpec(tag=committed[-1]))
            restore_seconds = time.perf_counter() - start
    # Tiered stores: wait out the background drain so the row reports a
    # settled pipeline (how much the slow tier lagged the training loop).
    drain_metrics = None
    if callable(getattr(store, "wait_drained", None)):
        start = time.perf_counter()
        store.wait_drained()
        drain_metrics = dict(store.drain_metrics())
        drain_metrics["drain_wait_seconds"] = time.perf_counter() - start
    # CAS stores: the chunk pool's dedup economics (bytes actually written
    # vs logical checkpoint bytes) are the headline of the incremental path.
    dedup_metrics = None
    if callable(getattr(store, "dedup_metrics", None)):
        dedup_metrics = dict(store.dedup_metrics())
    return {
        "engine": name,
        "label": ENGINE_LABELS.get(name, name),
        "checkpoint_dir": _store_location(store, store_backend),
        "iterations": len(report.steps),
        "checkpoints": len(report.checkpoints),
        "committed": len(committed),
        "compute_seconds": report.total_compute_seconds,
        "blocked_seconds": report.total_checkpoint_block_seconds,
        # Median per iteration is the headline comparison number: it is
        # robust against scheduler-contention spikes on small hosts, where a
        # single stolen quantum would otherwise dominate the mean.
        "blocked_ms_per_iteration": report.median_blocked_seconds_per_iteration * 1e3,
        "blocked_ms_per_iteration_mean": report.blocked_seconds_per_iteration * 1e3,
        "restore_seconds": restore_seconds,
        "drain": drain_metrics,
        "dedup": dedup_metrics,
    }


def compare_real_engines(
    workdir: Union[str, Path],
    engines: Optional[Sequence[str]] = None,
    iterations: int = 4,
    checkpoint_interval: int = 1,
    hidden_size: int = 128,
    num_layers: int = 2,
    seed: int = 0,
    policy: Optional[CheckpointPolicy] = None,
    store_backend: str = "file",
    store_kwargs: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """Per-engine blocked-time rows for every (or the given) engine name."""
    rows = []
    for engine_name in engines or ENGINE_NAMES:
        rows.append(run_real_engine(
            engine_name, workdir,
            iterations=iterations, checkpoint_interval=checkpoint_interval,
            hidden_size=hidden_size, num_layers=num_layers, seed=seed,
            policy=policy, store_backend=store_backend,
            store_kwargs=store_kwargs,
        ))
    return rows


def comparison_table_rows(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Rounded, display-friendly version of :func:`compare_real_engines` rows."""
    with_drain = any(row.get("drain") for row in rows)
    with_dedup = any(row.get("dedup") for row in rows)
    table = []
    for row in rows:
        entry = {
            "engine": row["engine"],
            "label": row["label"],
            "ckpts": row["checkpoints"],
            "blocked_ms_per_iter": round(float(row["blocked_ms_per_iteration"]), 3),
            "blocked_ms_mean": round(float(row["blocked_ms_per_iteration_mean"]), 3),
            "blocked_total_s": round(float(row["blocked_seconds"]), 4),
            "compute_s": round(float(row["compute_seconds"]), 4),
            "restore_ms": (round(float(row["restore_seconds"]) * 1e3, 3)
                           if row.get("restore_seconds") is not None else None),
        }
        if with_drain:
            drain = row.get("drain") or {}
            entry["drained"] = drain.get("drained_checkpoints")
            entry["evicted"] = drain.get("evicted_checkpoints")
            entry["drain_wait_ms"] = (
                round(float(drain["drain_wait_seconds"]) * 1e3, 3)
                if drain.get("drain_wait_seconds") is not None else None)
            # Backpressure: total time commits spent blocked at the fast
            # tier's watermark (0 unless a level capacity was configured).
            entry["commit_stall_ms"] = (
                round(float(drain["drain_wait_ms"]), 3)
                if drain.get("drain_wait_ms") is not None else None)
        if with_dedup:
            dedup = row.get("dedup") or {}
            entry["bytes_written"] = dedup.get("bytes_written")
            entry["dedup_ratio"] = (
                round(float(dedup["dedup_ratio"]), 4)
                if dedup.get("dedup_ratio") is not None else None)
        table.append(entry)
    return table
