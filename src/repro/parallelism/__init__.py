"""3D parallelism: rank topology, pipeline partitioning, ZeRO-1 sharding, shard plans."""

from .partition import balanced_contiguous_partition
from .shards import (
    CheckpointPlan,
    CheckpointShard,
    RankCheckpointPlan,
    ShardKind,
    build_checkpoint_plan,
    checkpoint_size_summary,
)
from .topology3d import ParallelTopology, RankCoordinate
from .zero import ZeroPartition, partition_elements

__all__ = [
    "ParallelTopology",
    "RankCoordinate",
    "balanced_contiguous_partition",
    "ZeroPartition",
    "partition_elements",
    "CheckpointShard",
    "RankCheckpointPlan",
    "CheckpointPlan",
    "ShardKind",
    "build_checkpoint_plan",
    "checkpoint_size_summary",
]
