"""3D-parallel rank topology (data x pipeline x tensor).

Maps global ranks to (data, pipeline, tensor) coordinates and back, and
enumerates the communication groups each rank belongs to.  The ordering
follows the Megatron/DeepSpeed convention used by the paper's setup: tensor
parallelism varies fastest (so a TP group always sits inside one node and can
use NVLink), then pipeline stages, then data-parallel replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..exceptions import ShardingError


@dataclass(frozen=True)
class RankCoordinate:
    """Position of one rank in the 3D parallel grid."""

    data: int
    pipeline: int
    tensor: int


class ParallelTopology:
    """The (DP, PP, TP) grid and its rank numbering."""

    def __init__(self, data_parallel: int, pipeline_parallel: int, tensor_parallel: int) -> None:
        if data_parallel <= 0 or pipeline_parallel <= 0 or tensor_parallel <= 0:
            raise ShardingError("all parallelism degrees must be positive")
        self.data_parallel = data_parallel
        self.pipeline_parallel = pipeline_parallel
        self.tensor_parallel = tensor_parallel

    # -- sizes ----------------------------------------------------------------
    @property
    def world_size(self) -> int:
        """Total number of ranks."""
        return self.data_parallel * self.pipeline_parallel * self.tensor_parallel

    # -- mapping ------------------------------------------------------------------
    def coordinate(self, global_rank: int) -> RankCoordinate:
        """Decompose a global rank into its (data, pipeline, tensor) coordinate."""
        if not (0 <= global_rank < self.world_size):
            raise ShardingError(f"rank {global_rank} outside world of size {self.world_size}")
        tensor = global_rank % self.tensor_parallel
        pipeline = (global_rank // self.tensor_parallel) % self.pipeline_parallel
        data = global_rank // (self.tensor_parallel * self.pipeline_parallel)
        return RankCoordinate(data=data, pipeline=pipeline, tensor=tensor)

    def global_rank(self, coord: RankCoordinate) -> int:
        """Compose a global rank from a coordinate."""
        if not (0 <= coord.data < self.data_parallel):
            raise ShardingError(f"data coordinate {coord.data} out of range")
        if not (0 <= coord.pipeline < self.pipeline_parallel):
            raise ShardingError(f"pipeline coordinate {coord.pipeline} out of range")
        if not (0 <= coord.tensor < self.tensor_parallel):
            raise ShardingError(f"tensor coordinate {coord.tensor} out of range")
        return (
            coord.data * self.pipeline_parallel * self.tensor_parallel
            + coord.pipeline * self.tensor_parallel
            + coord.tensor
        )

    def all_coordinates(self) -> List[RankCoordinate]:
        """Coordinates of every rank in global-rank order."""
        return [self.coordinate(rank) for rank in range(self.world_size)]

    # -- groups ----------------------------------------------------------------------
    def describe(self) -> Dict[str, int]:
        """Summary used by reports."""
        return {
            "data_parallel": self.data_parallel,
            "pipeline_parallel": self.pipeline_parallel,
            "tensor_parallel": self.tensor_parallel,
            "world_size": self.world_size,
        }
