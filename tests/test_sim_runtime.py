"""Tests for the simulated training runtime and its metrics."""

import dataclasses

import pytest

from repro.config import CheckpointPolicy, RunConfig
from repro.exceptions import ConfigurationError
from repro.model import phases_for, runtime_config
from repro.training import SimTrainingRun, simulate_run


def test_run_without_frequent_checkpoints_matches_training_time():
    result = simulate_run("3B", "datastates", iterations=10, checkpoint_interval=10)
    phases = phases_for("3B")
    assert result.checkpoints_taken == 1
    # Nine of the ten iterations are pure training.
    pure_iterations = [
        max(r.duration for r in result.iteration_records if r.iteration == i)
        for i in range(9)
    ]
    for duration in pure_iterations[:-1]:
        assert duration == pytest.approx(phases.total, rel=1e-6)


def test_checkpoint_interval_controls_checkpoint_count():
    for interval, expected in [(1, 10), (2, 5), (5, 2), (10, 1)]:
        result = simulate_run("3B", "deepspeed", iterations=10, checkpoint_interval=interval)
        assert result.checkpoints_taken == expected
        assert len(result.per_checkpoint_blocked_seconds) == expected


def test_iteration_records_cover_all_ranks_and_iterations():
    result = simulate_run("3B", "torchsnapshot", iterations=4, checkpoint_interval=2)
    assert len(result.iteration_records) == 4 * result.world_size
    iterations_with_ckpt = {
        r.iteration for r in result.iteration_records if r.had_checkpoint
    }
    assert iterations_with_ckpt == {1, 3}


def test_end_to_end_at_least_sum_of_iterations():
    result = simulate_run("3B", "deepspeed", iterations=5, checkpoint_interval=1)
    assert result.end_to_end_seconds >= 5 * result.training_iteration_seconds


def test_end_to_end_includes_trailing_flushes_for_async_engines():
    lazy = simulate_run("3B", "datastates", iterations=3, checkpoint_interval=1)
    # The last checkpoint's flush cannot have finished instantaneously: the
    # end-to-end time must exceed the sum of iteration durations.
    total_iteration_time = sum(
        max(r.duration for r in lazy.iteration_records if r.iteration == i)
        for i in range(3)
    )
    assert lazy.end_to_end_seconds > total_iteration_time


def test_throughput_definition_consistent_with_blocked_time():
    result = simulate_run("3B", "deepspeed", iterations=4, checkpoint_interval=2)
    total_blocked = sum(result.per_checkpoint_blocked_seconds)
    expected = result.checkpoints_taken * result.aggregate_checkpoint_bytes / total_blocked
    assert result.checkpoint_throughput_bytes_per_second == pytest.approx(expected, rel=1e-9)


def test_summary_contains_report_fields():
    result = simulate_run("3B", "datastates", iterations=2, checkpoint_interval=1)
    summary = result.summary()
    for key in ("engine", "model", "ckpt_throughput_gbps", "iter_time_with_ckpt_s", "end_to_end_s"):
        assert key in summary
    assert summary["model"] == "3B"
    assert result.checkpoint_throughput_gb_per_second == pytest.approx(
        result.checkpoint_throughput_bytes_per_second / 1e9
    )


def test_data_parallel_degree_multiplies_world_size():
    result = simulate_run("3B", "deepspeed", data_parallel=2, iterations=2, checkpoint_interval=1)
    assert result.world_size == 8
    assert result.data_parallel == 2


def test_host_buffer_override_is_honoured():
    result = simulate_run(
        "3B", "datastates", iterations=2, checkpoint_interval=1,
        host_buffer_per_rank=20 * 10**9,
    )
    assert result.host_buffer_peak_bytes <= 20 * 10**9


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(iterations=0)
    with pytest.raises(ConfigurationError):
        RunConfig(checkpoint_interval=0)
    with pytest.raises(ConfigurationError):
        RunConfig(host_buffer_per_rank=0)
    with pytest.raises(ConfigurationError):
        RunConfig(warmup_iterations=-1)


def test_checkpoint_policy_validation():
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(host_buffer_size=0)
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(flush_threads=0)
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(shards_per_rank=0)


def test_checkpoint_policy_keeps_only_the_save_knobs():
    """Restore options live on RestoreSpec; the write chunk size, the copy
    stream count and the sink choice are not options at all."""
    assert [field.name for field in dataclasses.fields(CheckpointPolicy)] == [
        "host_buffer_size", "flush_threads", "shards_per_rank", "incremental"]
    for removed in ("chunk_size", "capture_streams", "parallel_shard_writes",
                    "mmap_restore", "prefetch_depth"):
        with pytest.raises(TypeError):
            CheckpointPolicy(**{removed: 1})


def test_policy_checkpoint_interval_is_gone():
    """RunConfig.checkpoint_interval is the single source of truth; the
    deprecated CheckpointPolicy.checkpoint_interval shim has been removed."""
    with pytest.raises(TypeError):
        CheckpointPolicy(checkpoint_interval=2)
    assert not hasattr(CheckpointPolicy(), "checkpoint_interval")


def test_sim_training_run_rejects_bad_data_parallel():
    with pytest.raises(ConfigurationError):
        SimTrainingRun(runtime_config("3B"), "deepspeed", data_parallel=0)


def test_engine_kwargs_are_passed_through():
    fast = simulate_run(
        "3B", "async", iterations=3, checkpoint_interval=1,
        engine_kwargs={"flush_bandwidth": 5e9},
    )
    slow = simulate_run(
        "3B", "async", iterations=3, checkpoint_interval=1,
        engine_kwargs={"flush_bandwidth": 0.5e9},
    )
    assert fast.end_to_end_seconds < slow.end_to_end_seconds


def test_larger_model_has_longer_iterations_but_more_overlap_headroom():
    small = simulate_run("3B", "datastates", iterations=3, checkpoint_interval=1)
    large = simulate_run("13B", "datastates", iterations=3, checkpoint_interval=1)
    assert large.training_iteration_seconds > small.training_iteration_seconds
    assert large.aggregate_checkpoint_bytes > small.aggregate_checkpoint_bytes


def test_all_ranks_blocked_identically_at_collectives():
    """The checkpoint is a blocking collective: every rank of the same
    checkpoint observes (nearly) the same blocked duration."""
    run = SimTrainingRun(runtime_config("3B"), "deepspeed",
                         run_config=RunConfig(iterations=2, checkpoint_interval=1))
    run.run()
    for block_map in run._blocked:
        values = list(block_map.values())
        assert max(values) - min(values) < 1e-6
