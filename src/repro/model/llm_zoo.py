"""Model zoo — Table 1 of the paper.

The five model sizes used throughout the evaluation, derived from BLOOM (3B)
and LLaMA/LLaMA2 (7B, 13B, 30B, 70B), together with the runtime configuration
the paper pairs with each size: tensor-parallel degree 4 (the number of GPUs
per Polaris node), pipeline parallelism equal to the number of nodes, ZeRO
stage 1, and (unless stated otherwise) data-parallel degree 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..exceptions import ConfigurationError
from .transformer import TransformerConfig


@dataclass(frozen=True)
class ModelRuntimeConfig:
    """One row of Table 1: the model plus its 3D-parallel runtime layout."""

    model: TransformerConfig
    num_nodes: int
    tensor_parallel: int
    pipeline_parallel: int
    zero_stage: int = 1
    micro_batch_size: int = 16

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        if self.tensor_parallel <= 0 or self.pipeline_parallel <= 0:
            raise ConfigurationError("parallelism degrees must be positive")
        if self.zero_stage not in (0, 1, 2, 3):
            raise ConfigurationError("zero_stage must be 0..3")


#: Table 1 architecture rows (layers, hidden dim, attention heads).  The 3B
#: model is BLOOM-3B (250k multilingual vocabulary); the others are
#: LLaMA/LLaMA2-derived (32k vocabulary), as stated in §6.3 of the paper.
_TABLE_1 = {
    "3B": dict(num_layers=30, hidden_size=2560, num_attention_heads=32, num_nodes=1,
               vocab_size=250_880),
    "7B": dict(num_layers=32, hidden_size=4096, num_attention_heads=32, num_nodes=2,
               vocab_size=32_000),
    "13B": dict(num_layers=40, hidden_size=5120, num_attention_heads=40, num_nodes=4,
                vocab_size=32_000),
    "30B": dict(num_layers=60, hidden_size=6656, num_attention_heads=52, num_nodes=8,
                vocab_size=32_000),
    "70B": dict(num_layers=80, hidden_size=8192, num_attention_heads=64, num_nodes=20,
                vocab_size=32_000),
}

MODEL_SIZES: List[str] = list(_TABLE_1.keys())


def model_config(size: str) -> TransformerConfig:
    """The architecture of one Table 1 model ("3B", "7B", "13B", "30B", "70B")."""
    try:
        row = _TABLE_1[size]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown model size {size!r}; expected one of {MODEL_SIZES}"
        ) from exc
    return TransformerConfig(
        name=size,
        num_layers=row["num_layers"],
        hidden_size=row["hidden_size"],
        num_attention_heads=row["num_attention_heads"],
        vocab_size=row["vocab_size"],
    )


def runtime_config(size: str, gpus_per_node: int = 4) -> ModelRuntimeConfig:
    """The Table 1 runtime layout for one model size.

    Tensor parallelism equals the number of GPUs per node (4 on Polaris);
    pipeline parallelism equals the number of nodes a single replica spans.
    """
    row = _TABLE_1.get(size)
    if row is None:
        raise ConfigurationError(
            f"unknown model size {size!r}; expected one of {MODEL_SIZES}"
        )
    return ModelRuntimeConfig(
        model=model_config(size),
        num_nodes=row["num_nodes"],
        tensor_parallel=gpus_per_node,
        pipeline_parallel=row["num_nodes"],
    )


def tiny_config(name: str = "tiny", num_layers: int = 2, hidden_size: int = 64,
                num_attention_heads: int = 4, vocab_size: int = 257,
                sequence_length: int = 32) -> TransformerConfig:
    """A laptop-scale config for real-mode examples and tests."""
    return TransformerConfig(
        name=name,
        num_layers=num_layers,
        hidden_size=hidden_size,
        num_attention_heads=num_attention_heads,
        vocab_size=vocab_size,
        sequence_length=sequence_length,
    )
