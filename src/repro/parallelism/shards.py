"""Per-rank checkpoint shard planning.

Combines the model accounting (:mod:`repro.model.transformer`), the pipeline
partitioning (:mod:`repro.parallelism.partition`), the tensor-parallel split,
and ZeRO-1 data-parallel partitioning (:mod:`repro.parallelism.zero`) into
the list of shard files each GPU writes during a checkpoint — the quantity
Figure 3 plots and the unit of work every checkpoint engine operates on
(Figure 5's ``ckpt(Layer 1) ... ckpt(Optimizer)``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from ..exceptions import ShardingError
from ..model.llm_zoo import ModelRuntimeConfig
from ..model.transformer import MODEL_BYTES_PER_PARAM, OPTIMIZER_BYTES_PER_PARAM, TransformerConfig
from .partition import balanced_contiguous_partition
from .topology3d import ParallelTopology


class ShardKind(enum.Enum):
    """What a checkpoint shard contains."""

    MODEL_LAYER = "model_layer"
    OPTIMIZER = "optimizer"


@dataclass(frozen=True)
class CheckpointShard:
    """One shard file a rank writes during a checkpoint."""

    name: str
    nbytes: int
    kind: ShardKind

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ShardingError("shard size must be >= 0")


@dataclass
class RankCheckpointPlan:
    """Everything one rank contributes to a global checkpoint."""

    global_rank: int
    shards: List[CheckpointShard] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        """Bytes this rank writes per checkpoint."""
        return sum(shard.nbytes for shard in self.shards)

    @property
    def num_shards(self) -> int:
        """Number of shard files this rank writes per checkpoint."""
        return len(self.shards)


@dataclass
class CheckpointPlan:
    """The global checkpoint layout for one (model, 3D-parallel) configuration."""

    model: TransformerConfig
    topology: ParallelTopology
    ranks: List[RankCheckpointPlan]

    @property
    def total_bytes(self) -> int:
        """Aggregate checkpoint size across all ranks."""
        return sum(rank.total_bytes for rank in self.ranks)

    @property
    def bytes_per_rank(self) -> List[int]:
        """Per-rank checkpoint sizes (for load-balance analysis, Figure 3)."""
        return [rank.total_bytes for rank in self.ranks]

    def load_imbalance(self) -> float:
        """Max/mean ratio of per-rank checkpoint sizes."""
        sizes = self.bytes_per_rank
        if not sizes or sum(sizes) == 0:
            return 1.0
        mean = sum(sizes) / len(sizes)
        return max(sizes) / mean

    def rank_plan(self, global_rank: int) -> RankCheckpointPlan:
        """Plan of a single rank."""
        return self.ranks[global_rank]


def build_checkpoint_plan(
    runtime: ModelRuntimeConfig,
    data_parallel: int = 1,
) -> CheckpointPlan:
    """Build the per-rank shard plan for one Table 1 configuration.

    Every rank writes one shard per transformer-layer group assigned to its
    pipeline stage (containing its tensor-parallel and data-parallel slice of
    the bf16 weights) plus one optimizer-state shard holding its ZeRO-1
    partition of the fp32 Adam state for those same layers.
    """
    if data_parallel <= 0:
        raise ShardingError("data_parallel must be positive")
    model = runtime.model
    topology = ParallelTopology(
        data_parallel=data_parallel,
        pipeline_parallel=runtime.pipeline_parallel,
        tensor_parallel=runtime.tensor_parallel,
    )
    layer_counts = model.layer_parameter_counts()
    stage_groups = balanced_contiguous_partition(layer_counts, runtime.pipeline_parallel)

    plans: List[RankCheckpointPlan] = []
    for global_rank in range(topology.world_size):
        coord = topology.coordinate(global_rank)
        group = stage_groups[coord.pipeline]
        plan = RankCheckpointPlan(global_rank=global_rank)
        stage_params = 0
        for layer_index in group:
            layer_params = layer_counts[layer_index]
            stage_params += layer_params
            shard_params = layer_params / runtime.tensor_parallel / data_parallel
            nbytes = int(round(shard_params * MODEL_BYTES_PER_PARAM))
            plan.shards.append(
                CheckpointShard(
                    name=f"rank{global_rank}_layer{layer_index}",
                    nbytes=nbytes,
                    kind=ShardKind.MODEL_LAYER,
                )
            )
        optimizer_params = stage_params / runtime.tensor_parallel / data_parallel
        plan.shards.append(
            CheckpointShard(
                name=f"rank{global_rank}_optimizer",
                nbytes=int(round(optimizer_params * OPTIMIZER_BYTES_PER_PARAM)),
                kind=ShardKind.OPTIMIZER,
            )
        )
        plans.append(plan)
    return CheckpointPlan(model=model, topology=topology, ranks=plans)


def checkpoint_size_summary(runtime: ModelRuntimeConfig, data_parallel: int = 1) -> Dict[str, float]:
    """Figure 3 style summary: aggregate and per-GPU checkpoint sizes in GB."""
    plan = build_checkpoint_plan(runtime, data_parallel=data_parallel)
    total_gb = plan.total_bytes / 1e9
    per_gpu = [size / 1e9 for size in plan.bytes_per_rank]
    return {
        "model": runtime.model.name,
        "num_gpus": plan.topology.world_size,
        "aggregate_checkpoint_gb": total_gb,
        "avg_checkpoint_per_gpu_gb": sum(per_gpu) / len(per_gpu),
        "max_checkpoint_per_gpu_gb": max(per_gpu),
        "load_imbalance": plan.load_imbalance(),
    }
