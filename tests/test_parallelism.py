"""Tests for 3D-parallel topology, pipeline partitioning, ZeRO sharding, and shard plans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShardingError
from repro.model import runtime_config
from repro.parallelism import (
    ParallelTopology,
    RankCoordinate,
    ShardKind,
    balanced_contiguous_partition,
    build_checkpoint_plan,
    checkpoint_size_summary,
    partition_elements,
)


# ---------------------------------------------------------------------------
# ParallelTopology
# ---------------------------------------------------------------------------

def test_world_size_is_product_of_degrees():
    topo = ParallelTopology(data_parallel=2, pipeline_parallel=3, tensor_parallel=4)
    assert topo.world_size == 24


def test_coordinate_rank_roundtrip():
    topo = ParallelTopology(2, 3, 4)
    for rank in range(topo.world_size):
        coord = topo.coordinate(rank)
        assert topo.global_rank(coord) == rank


def test_tensor_parallel_peers_are_consecutive_ranks():
    """Tensor parallelism is the innermost dimension: the ranks of one
    tensor-parallel group are consecutive (node-local on Polaris)."""
    topo = ParallelTopology(data_parallel=1, pipeline_parallel=2, tensor_parallel=4)
    assert [topo.coordinate(rank) for rank in range(4)] == [
        RankCoordinate(data=0, pipeline=0, tensor=tensor) for tensor in range(4)]
    assert topo.coordinate(5) == RankCoordinate(data=0, pipeline=1, tensor=1)


def test_data_parallel_replicas_are_one_model_replica_apart():
    topo = ParallelTopology(data_parallel=2, pipeline_parallel=2, tensor_parallel=2)
    assert topo.coordinate(2) == RankCoordinate(data=0, pipeline=1, tensor=0)
    assert topo.coordinate(4) == RankCoordinate(data=1, pipeline=0, tensor=0)
    assert topo.global_rank(RankCoordinate(data=1, pipeline=1, tensor=1)) == 7


def test_out_of_range_rank_rejected():
    topo = ParallelTopology(1, 2, 2)
    with pytest.raises(ShardingError):
        topo.coordinate(4)
    with pytest.raises(ShardingError):
        topo.global_rank(RankCoordinate(data=1, pipeline=0, tensor=0))


def test_degrees_must_be_positive():
    with pytest.raises(ShardingError):
        ParallelTopology(0, 1, 1)


@settings(max_examples=40, deadline=None)
@given(dp=st.integers(1, 5), pp=st.integers(1, 5), tp=st.integers(1, 5))
def test_property_rank_mapping_is_a_bijection(dp, pp, tp):
    topo = ParallelTopology(dp, pp, tp)
    coords = topo.all_coordinates()
    assert len(coords) == topo.world_size
    assert len({(c.data, c.pipeline, c.tensor) for c in coords}) == topo.world_size
    for rank, coord in enumerate(coords):
        assert topo.global_rank(coord) == rank


# ---------------------------------------------------------------------------
# Pipeline partitioning
# ---------------------------------------------------------------------------

def test_partition_covers_all_indices_in_order():
    groups = balanced_contiguous_partition([5, 5, 5, 5, 5, 5], 3)
    flattened = [i for group in groups for i in group]
    assert flattened == list(range(6))
    assert len(groups) == 3


def test_partition_balances_uniform_weights():
    groups = balanced_contiguous_partition([10] * 8, 4)
    assert [10 * len(group) for group in groups] == [20, 20, 20, 20]


def test_partition_handles_heavy_first_layer():
    # Embedding-like heavy first entry should sit alone on its stage.
    weights = [100, 10, 10, 10, 10, 10]
    groups = balanced_contiguous_partition(weights, 3)
    assert groups[0] == [0]
    # The heavy layer itself is the bottleneck; imbalance is bounded by it.
    loads = [sum(weights[i] for i in group) for group in groups if group]
    assert max(loads) / (sum(loads) / len(loads)) <= 2.0


def test_partition_more_stages_than_layers():
    groups = balanced_contiguous_partition([7, 7], 4)
    assert [len(g) for g in groups] == [1, 1, 0, 0]


def test_partition_rejects_invalid_input():
    with pytest.raises(ShardingError):
        balanced_contiguous_partition([1, 2], 0)
    with pytest.raises(ShardingError):
        balanced_contiguous_partition([1, -2], 2)


@settings(max_examples=50, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=40),
    stages=st.integers(min_value=1, max_value=10),
)
def test_property_partition_is_complete_ordered_and_near_optimal(weights, stages):
    groups = balanced_contiguous_partition(weights, stages)
    assert len(groups) == stages
    flattened = [i for group in groups for i in group]
    assert flattened == list(range(len(weights)))
    # The bottleneck can never be below the trivial lower bounds.
    totals = [sum(weights[i] for i in group) for group in groups]
    lower_bound = max(max(weights), -(-sum(weights) // stages)) if weights else 0
    assert max(totals) >= lower_bound - 1 or sum(weights) == 0
    # Each stage is non-empty whenever there are enough items.
    if len(weights) >= stages:
        assert all(group for group in groups)


# ---------------------------------------------------------------------------
# ZeRO partitioning
# ---------------------------------------------------------------------------

def test_partition_elements_covers_range_without_overlap():
    parts = partition_elements(103, 4)
    assert parts[0].start == 0 and parts[-1].stop == 103
    for left, right in zip(parts, parts[1:]):
        assert left.stop == right.start
    sizes = [p.numel for p in parts]
    assert max(sizes) - min(sizes) <= 1


def test_partition_elements_validation():
    with pytest.raises(ShardingError):
        partition_elements(-1, 2)
    with pytest.raises(ShardingError):
        partition_elements(10, 0)


@settings(max_examples=40, deadline=None)
@given(total=st.integers(0, 10_000), dp=st.integers(1, 64))
def test_property_zero_partition_conserves_elements(total, dp):
    parts = partition_elements(total, dp)
    assert sum(p.numel for p in parts) == total
    assert len(parts) == dp
    assert all(p.numel >= 0 for p in parts)


# ---------------------------------------------------------------------------
# Checkpoint shard plans
# ---------------------------------------------------------------------------

def test_plan_total_matches_model_checkpoint_bytes():
    runtime = runtime_config("3B")
    plan = build_checkpoint_plan(runtime)
    expected = runtime.model.checkpoint_bytes()
    assert plan.total_bytes == pytest.approx(expected, rel=0.001)


def test_plan_every_rank_has_model_and_optimizer_shards():
    plan = build_checkpoint_plan(runtime_config("7B"))
    for rank_plan in plan.ranks:
        kinds = {shard.kind for shard in rank_plan.shards}
        assert kinds == {ShardKind.MODEL_LAYER, ShardKind.OPTIMIZER}
        optimizer_shards = [s for s in rank_plan.shards if s.kind == ShardKind.OPTIMIZER]
        assert len(optimizer_shards) == 1


def test_plan_world_size_matches_table1():
    plan = build_checkpoint_plan(runtime_config("13B"))
    assert plan.topology.world_size == 16
    assert len(plan.ranks) == 16


def test_data_parallelism_keeps_aggregate_but_shrinks_per_rank():
    runtime = runtime_config("13B")
    plan_dp1 = build_checkpoint_plan(runtime, data_parallel=1)
    plan_dp4 = build_checkpoint_plan(runtime, data_parallel=4)
    assert plan_dp4.total_bytes == pytest.approx(plan_dp1.total_bytes, rel=0.01)
    assert plan_dp4.topology.world_size == 4 * plan_dp1.topology.world_size
    avg_dp1 = plan_dp1.total_bytes / plan_dp1.topology.world_size
    avg_dp4 = plan_dp4.total_bytes / plan_dp4.topology.world_size
    assert avg_dp4 == pytest.approx(avg_dp1 / 4, rel=0.05)


def test_plan_load_imbalance_is_bounded():
    for size in ("3B", "13B", "70B"):
        plan = build_checkpoint_plan(runtime_config(size))
        assert plan.load_imbalance() < 1.7


def test_plan_bytes_per_rank_adds_up_to_the_total():
    plan = build_checkpoint_plan(runtime_config("7B"), data_parallel=2)
    sizes = plan.bytes_per_rank
    assert len(sizes) == plan.topology.world_size
    assert sum(sizes) == plan.total_bytes
    assert plan.load_imbalance() == pytest.approx(max(sizes) / (sum(sizes) / len(sizes)))
    assert plan.rank_plan(3).total_bytes == sizes[3]


def test_plan_rejects_invalid_dp():
    with pytest.raises(ShardingError):
        build_checkpoint_plan(runtime_config("3B"), data_parallel=0)


def test_checkpoint_size_summary_fields():
    summary = checkpoint_size_summary(runtime_config("7B"), data_parallel=2)
    assert summary["num_gpus"] == 16
    assert summary["aggregate_checkpoint_gb"] > 0
    assert summary["max_checkpoint_per_gpu_gb"] >= summary["avg_checkpoint_per_gpu_gb"]
