"""Tests for the four simulated checkpoint engines and their qualitative behaviour."""

import pytest

from repro.checkpoint import (
    ENGINE_NAMES,
    AsynchronousEngine,
    DataStatesEngine,
    SynchronousEngine,
    TorchSnapshotEngine,
    create_engine,
    resolve_engine_class,
)
from repro.cluster import cluster_for_gpus
from repro.config import CheckpointPolicy, PlatformSpec
from repro.exceptions import ConfigurationError
from repro.model import runtime_config
from repro.parallelism import build_checkpoint_plan
from repro.simulator import Environment
from repro.training import simulate_run


# ---------------------------------------------------------------------------
# Factory / registry
# ---------------------------------------------------------------------------

def test_factory_knows_the_four_paper_engines():
    assert ENGINE_NAMES == ["deepspeed", "async", "torchsnapshot", "datastates"]
    assert resolve_engine_class("deepspeed") is SynchronousEngine
    assert resolve_engine_class("async") is AsynchronousEngine
    assert resolve_engine_class("torchsnapshot") is TorchSnapshotEngine
    assert resolve_engine_class("datastates") is DataStatesEngine


def test_factory_accepts_aliases_case_insensitively():
    assert resolve_engine_class("DataStates-LLM") is DataStatesEngine
    assert resolve_engine_class("CheckFreq") is AsynchronousEngine


def test_factory_rejects_unknown_engine():
    with pytest.raises(ConfigurationError):
        resolve_engine_class("nebula")


def test_create_engine_builds_rank_states():
    env = Environment()
    platform = PlatformSpec.polaris()
    runtime = runtime_config("3B")
    plan = build_checkpoint_plan(runtime)
    cluster = cluster_for_gpus(env, platform, plan.topology.world_size)
    engine = create_engine("datastates", env, cluster, plan, CheckpointPolicy())
    assert len(engine.ranks) == 4
    assert engine.describe()["engine"] == "datastates-llm"
    state = engine.ranks[0]
    assert state.plan.total_bytes > 0
    engine.reset()
    assert state.checkpoints_started == 0


def test_engine_rejects_plan_larger_than_cluster():
    env = Environment()
    platform = PlatformSpec.polaris()
    plan = build_checkpoint_plan(runtime_config("7B"))  # needs 8 GPUs
    cluster = cluster_for_gpus(env, platform, 4)
    from repro.exceptions import CheckpointError
    with pytest.raises(CheckpointError):
        SynchronousEngine(env, cluster, plan, CheckpointPolicy())


# ---------------------------------------------------------------------------
# Engine behaviour on the 3B workload (fast: 4 simulated GPUs)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def results_3b():
    return {
        engine: simulate_run("3B", engine, iterations=5, checkpoint_interval=1)
        for engine in ENGINE_NAMES
    }


def test_all_engines_complete_the_requested_checkpoints(results_3b):
    for result in results_3b.values():
        assert result.checkpoints_taken == 5
        assert result.iterations == 5
        assert result.world_size == 4


def test_sync_engine_blocks_for_roughly_the_serialization_time(results_3b):
    result = results_3b["deepspeed"]
    platform = PlatformSpec.polaris()
    per_rank_bytes = result.checkpoint_bytes_per_rank
    expected_block = per_rank_bytes / platform.sync_serialize_bandwidth
    measured_block = sum(result.per_checkpoint_blocked_seconds) / result.checkpoints_taken
    assert measured_block == pytest.approx(expected_block, rel=0.15)


def test_datastates_blocks_far_less_than_sync(results_3b):
    sync_blocked = sum(results_3b["deepspeed"].per_checkpoint_blocked_seconds)
    lazy_blocked = sum(results_3b["datastates"].per_checkpoint_blocked_seconds)
    assert lazy_blocked < sync_blocked / 4


def test_datastates_has_highest_throughput(results_3b):
    datastates = results_3b["datastates"].checkpoint_throughput_bytes_per_second
    for name in ("deepspeed", "async", "torchsnapshot"):
        assert datastates > results_3b[name].checkpoint_throughput_bytes_per_second


def test_datastates_iteration_time_close_to_training_time(results_3b):
    result = results_3b["datastates"]
    assert result.avg_iteration_seconds_with_checkpoint < 2.5 * result.training_iteration_seconds


def test_sync_iteration_time_includes_full_write(results_3b):
    result = results_3b["deepspeed"]
    assert result.avg_iteration_seconds_with_checkpoint > 4 * result.training_iteration_seconds


def test_end_to_end_ordering_matches_paper(results_3b):
    """DataStates finishes first; synchronous and async are the slowest."""
    e2e = {name: result.end_to_end_seconds for name, result in results_3b.items()}
    assert e2e["datastates"] < e2e["torchsnapshot"] < e2e["deepspeed"]
    assert e2e["datastates"] < e2e["async"]


def test_throughput_improvement_meets_paper_claim(results_3b):
    """The abstract claims at least ~3-4x faster checkpointing than baselines."""
    datastates = results_3b["datastates"].checkpoint_throughput_bytes_per_second
    for name in ("deepspeed", "async", "torchsnapshot"):
        assert datastates / results_3b[name].checkpoint_throughput_bytes_per_second >= 3.0


def test_traces_contain_engine_activity(results_3b):
    trace = results_3b["datastates"].trace
    assert trace is not None
    categories = set(trace.categories())
    assert "d2h" in categories
    assert "flush" in categories
    assert "iteration" in categories


# ---------------------------------------------------------------------------
# Ablations of the DataStates design principles
# ---------------------------------------------------------------------------

def _run_datastates(host_buffer_size=64 * 10**9, **switches):
    policy = CheckpointPolicy(host_buffer_size=host_buffer_size)
    return simulate_run("3B", "datastates", iterations=5, checkpoint_interval=1,
                        policy=policy, engine_kwargs=switches)


def test_ablation_eager_snapshot_blocks_more_than_lazy():
    lazy = _run_datastates(lazy_snapshot=True)
    eager = _run_datastates(lazy_snapshot=False)
    assert sum(eager.per_checkpoint_blocked_seconds) > sum(lazy.per_checkpoint_blocked_seconds)
    assert eager.checkpoint_throughput_bytes_per_second < lazy.checkpoint_throughput_bytes_per_second


def test_ablation_per_request_allocation_slower_than_preallocated():
    preallocated = _run_datastates(preallocated_pinned_buffer=True)
    allocate_each_time = _run_datastates(preallocated_pinned_buffer=False)
    assert (
        allocate_each_time.avg_iteration_seconds_with_checkpoint
        > preallocated.avg_iteration_seconds_with_checkpoint
    )


def test_ablation_staged_flush_delays_end_to_end():
    streamlined = _run_datastates(streamlined_flush=True)
    staged = _run_datastates(streamlined_flush=False)
    assert staged.end_to_end_seconds >= streamlined.end_to_end_seconds


def test_ablation_switches_are_not_policy_fields():
    """The switches live on the simulated DataStates engine alone: a policy
    or another engine handed one refuses it instead of ignoring it."""
    with pytest.raises(TypeError):
        CheckpointPolicy(lazy_snapshot=False)
    with pytest.raises(TypeError):
        simulate_run("3B", "deepspeed", iterations=2,
                     engine_kwargs={"lazy_snapshot": False})


def test_small_host_buffer_creates_back_pressure():
    """With a staging buffer barely larger than one checkpoint, flushes gate
    the next checkpoint and the perceived throughput drops (the Figure 11a
    effect)."""
    large = _run_datastates(host_buffer_size=64 * 10**9)
    small = _run_datastates(host_buffer_size=12 * 10**9)
    assert (
        small.checkpoint_throughput_bytes_per_second
        < large.checkpoint_throughput_bytes_per_second
    )
    assert small.host_buffer_peak_bytes <= 12 * 10**9
