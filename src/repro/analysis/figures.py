"""Generators for every table and figure of the paper's evaluation.

Each ``figureN_*`` function runs the necessary simulations and returns the
same rows/series the corresponding figure plots, in plain dict form so the
benchmark harness can print them and tabulate paper-vs-measured.  Scale knobs (model subsets, iteration counts) exist so
tests can exercise the code paths quickly; the defaults match the paper's
experimental setup.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..checkpoint import ENGINE_NAMES
from ..model import MODEL_SIZES, phase_breakdown_table, runtime_config
from ..parallelism import checkpoint_size_summary
from ..training.runtime import RunResult, simulate_run
from . import paper_data

#: Default engine set, in the paper's legend order.
DEFAULT_ENGINES: List[str] = list(ENGINE_NAMES)


# ---------------------------------------------------------------------------
# Table 1 / Figures 3 and 4 (model accounting, no simulation needed)
# ---------------------------------------------------------------------------

def table1_model_zoo() -> List[Dict[str, object]]:
    """Table 1: model architectures and runtime layouts."""
    rows = []
    for size in MODEL_SIZES:
        runtime = runtime_config(size)
        model = runtime.model
        rows.append(
            {
                "model": size,
                "layers": model.num_layers,
                "hidden_dim": model.hidden_size,
                "attention_heads": model.num_attention_heads,
                "num_nodes": runtime.num_nodes,
                "tensor_parallel": runtime.tensor_parallel,
                "pipeline_parallel": runtime.pipeline_parallel,
                "parameters_billion": model.total_parameters() / 1e9,
            }
        )
    return rows


def figure3_checkpoint_sizes(sizes: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
    """Figure 3: aggregate and per-GPU checkpoint sizes per model."""
    rows = []
    for size in (sizes or MODEL_SIZES):
        summary = checkpoint_size_summary(runtime_config(size))
        summary["paper_aggregate_gb"] = paper_data.FIGURE3_CHECKPOINT_SIZES_GB.get(size)
        summary["paper_num_gpus"] = paper_data.FIGURE3_NUM_GPUS.get(size)
        rows.append(summary)
    return rows


def figure4_iteration_phases() -> Dict[str, Dict[str, float]]:
    """Figure 4: forward/backward/update breakdown per model size."""
    return phase_breakdown_table()


# ---------------------------------------------------------------------------
# Figures 7 and 8 (model-size sweep, DP=1, checkpoint every iteration)
# ---------------------------------------------------------------------------

def figure7_8_model_size_sweep(
    sizes: Optional[Sequence[str]] = None,
    engines: Optional[Sequence[str]] = None,
    iterations: int = 5,
) -> Dict[str, Dict[str, RunResult]]:
    """Run the Figure 7/8 experiment; returns results[model][engine]."""
    results: Dict[str, Dict[str, RunResult]] = {}
    for size in (sizes or MODEL_SIZES):
        results[size] = {}
        for engine in (engines or DEFAULT_ENGINES):
            results[size][engine] = simulate_run(
                size, engine, data_parallel=1, iterations=iterations, checkpoint_interval=1
            )
    return results


def figure7_rows(results: Mapping[str, Mapping[str, RunResult]]) -> List[Dict[str, object]]:
    """Figure 7 rows: checkpoint throughput (GB/s) per model and engine."""
    rows = []
    for size, by_engine in results.items():
        row: Dict[str, object] = {"model": size}
        for engine, result in by_engine.items():
            row[engine] = round(result.checkpoint_throughput_gb_per_second, 1)
            paper = paper_data.FIGURE7_THROUGHPUT_GBPS.get(size, {}).get(engine)
            row[f"paper_{engine}"] = paper
        rows.append(row)
    return rows


def figure8_rows(results: Mapping[str, Mapping[str, RunResult]]) -> List[Dict[str, object]]:
    """Figure 8 rows: average iteration time (s) while checkpointing."""
    rows = []
    for size, by_engine in results.items():
        row: Dict[str, object] = {"model": size}
        for engine, result in by_engine.items():
            row[engine] = round(result.avg_iteration_seconds_with_checkpoint, 2)
            row[f"paper_{engine}"] = paper_data.FIGURE8_ITERATION_TIME_S.get(size, {}).get(engine)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figures 9 and 10 (data-parallel scaling)
# ---------------------------------------------------------------------------

def figure9_10_dp_sweep(
    model_size: str,
    dp_degrees: Sequence[int] = (1, 2, 4, 8, 16),
    engines: Optional[Sequence[str]] = None,
    iterations: int = 5,
) -> Dict[int, Dict[str, RunResult]]:
    """Run the Figure 9 (13B) / Figure 10 (30B) experiment."""
    results: Dict[int, Dict[str, RunResult]] = {}
    for dp in dp_degrees:
        results[dp] = {}
        for engine in (engines or DEFAULT_ENGINES):
            results[dp][engine] = simulate_run(
                model_size, engine, data_parallel=dp, iterations=iterations, checkpoint_interval=1
            )
    return results


def dp_sweep_rows(model_size: str,
                  results: Mapping[int, Mapping[str, RunResult]]) -> List[Dict[str, object]]:
    """Rows for Figures 9/10: throughput and per-GPU checkpoint size per DP degree."""
    reference = (
        paper_data.FIGURE9_DP_THROUGHPUT_13B_GBPS
        if model_size == "13B" else paper_data.FIGURE10_DP_THROUGHPUT_30B_GBPS
    )
    rows = []
    for dp, by_engine in results.items():
        row: Dict[str, object] = {"model": model_size, "data_parallel": dp}
        for engine, result in by_engine.items():
            row[engine] = round(result.checkpoint_throughput_gb_per_second, 1)
            row[f"paper_{engine}"] = reference.get(dp, {}).get(engine)
        any_result = next(iter(by_engine.values()))
        row["ckpt_per_gpu_gb"] = round(any_result.checkpoint_bytes_per_rank / 1e9, 2)
        row["num_gpus"] = any_result.world_size
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figures 11 and 12 (checkpoint frequency sweep)
# ---------------------------------------------------------------------------

def figure11_12_frequency_sweep(
    model_size: str,
    intervals: Sequence[int] = (10, 5, 4, 3, 2, 1),
    engines: Optional[Sequence[str]] = None,
    iterations: int = 50,
) -> Dict[int, Dict[str, RunResult]]:
    """Run the Figure 11 (7B) / Figure 12 (13B) experiment."""
    results: Dict[int, Dict[str, RunResult]] = {}
    for interval in intervals:
        results[interval] = {}
        for engine in (engines or DEFAULT_ENGINES):
            results[interval][engine] = simulate_run(
                model_size, engine, data_parallel=1,
                iterations=iterations, checkpoint_interval=interval,
            )
    return results


def frequency_sweep_rows(model_size: str,
                         results: Mapping[int, Mapping[str, RunResult]]) -> List[Dict[str, object]]:
    """Rows for Figures 11/12 (a: throughput, b: iteration time, c: end-to-end)."""
    reference = paper_data.FIGURE11_7B if model_size == "7B" else paper_data.FIGURE12_13B
    rows = []
    for interval, by_engine in results.items():
        row: Dict[str, object] = {"model": model_size, "checkpoint_interval": interval}
        for engine, result in by_engine.items():
            row[f"throughput_{engine}"] = round(result.checkpoint_throughput_gb_per_second, 1)
            row[f"iter_time_{engine}"] = round(result.avg_iteration_seconds_with_checkpoint, 2)
            row[f"end_to_end_{engine}"] = round(result.end_to_end_seconds, 1)
            row[f"paper_throughput_{engine}"] = reference["throughput_gbps"].get(interval, {}).get(engine)
            row[f"paper_iter_time_{engine}"] = reference["iteration_time_s"].get(interval, {}).get(engine)
            row[f"paper_end_to_end_{engine}"] = reference["end_to_end_s"].get(interval, {}).get(engine)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Headline claims (§6.4 / abstract)
# ---------------------------------------------------------------------------

def headline_speedups(results: Mapping[str, Mapping[str, RunResult]]) -> Dict[str, float]:
    """Min/max DataStates speedups across a model-size sweep's results."""
    throughput_ratios: List[float] = []
    end_to_end_ratios: List[float] = []
    for by_engine in results.values():
        if "datastates" not in by_engine:
            continue
        ds = by_engine["datastates"]
        for name, result in by_engine.items():
            if name == "datastates":
                continue
            if result.checkpoint_throughput_bytes_per_second > 0:
                throughput_ratios.append(
                    ds.checkpoint_throughput_bytes_per_second
                    / result.checkpoint_throughput_bytes_per_second
                )
            if ds.end_to_end_seconds > 0:
                end_to_end_ratios.append(result.end_to_end_seconds / ds.end_to_end_seconds)
    return {
        "min_checkpoint_speedup": min(throughput_ratios) if throughput_ratios else float("nan"),
        "max_checkpoint_speedup": max(throughput_ratios) if throughput_ratios else float("nan"),
        "min_end_to_end_speedup": min(end_to_end_ratios) if end_to_end_ratios else float("nan"),
        "max_end_to_end_speedup": max(end_to_end_ratios) if end_to_end_ratios else float("nan"),
    }
