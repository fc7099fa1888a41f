"""ZeRO stage-1 optimizer-state partitioning.

Under ZeRO-1 (the configuration the paper restricts itself to, §2.5) the
Adam optimizer state of each model shard is partitioned across the
data-parallel replicas: every DP rank owns ``1/DP`` of the optimizer state of
the model shard it holds, and — following the default DeepSpeed checkpoint
layout of Figure 2(d) — also checkpoints only ``1/DP`` of the (otherwise
replicated) model weights.  This is what makes the per-GPU checkpoint size
shrink linearly with the DP degree (the dashed red lines in Figures 9/10)
while the aggregate checkpoint size stays constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..exceptions import ShardingError


@dataclass(frozen=True)
class ZeroPartition:
    """The slice of the flattened optimizer state owned by one DP rank."""

    rank: int
    start: int
    stop: int

    @property
    def numel(self) -> int:
        """Number of scalar elements owned by this rank."""
        return self.stop - self.start


def partition_elements(total_elements: int, data_parallel: int) -> List[ZeroPartition]:
    """Split ``total_elements`` scalars into DP contiguous, near-equal slices."""
    if total_elements < 0:
        raise ShardingError("total_elements must be >= 0")
    if data_parallel <= 0:
        raise ShardingError("data_parallel must be positive")
    base, remainder = divmod(total_elements, data_parallel)
    partitions: List[ZeroPartition] = []
    cursor = 0
    for rank in range(data_parallel):
        size = base + (1 if rank < remainder else 0)
        partitions.append(ZeroPartition(rank=rank, start=cursor, stop=cursor + size))
        cursor += size
    return partitions
