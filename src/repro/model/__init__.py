"""LLM model accounting, the Table 1 zoo, iteration phase model, and a real NumPy transformer."""

from .adam import AdamConfig, AdamOptimizer
from .iteration_model import FIGURE4_PHASES, IterationPhases, interpolate_phases, phase_breakdown_table, phases_for
from .llm_zoo import MODEL_SIZES, ModelRuntimeConfig, model_config, runtime_config, tiny_config
from .numpy_transformer import NumpyTransformerLM, cross_entropy, gelu, layer_norm, softmax
from .transformer import MODEL_BYTES_PER_PARAM, OPTIMIZER_BYTES_PER_PARAM, TransformerConfig

__all__ = [
    "TransformerConfig",
    "MODEL_BYTES_PER_PARAM",
    "OPTIMIZER_BYTES_PER_PARAM",
    "ModelRuntimeConfig",
    "MODEL_SIZES",
    "model_config",
    "runtime_config",
    "tiny_config",
    "IterationPhases",
    "FIGURE4_PHASES",
    "phases_for",
    "interpolate_phases",
    "phase_breakdown_table",
    "NumpyTransformerLM",
    "AdamOptimizer",
    "AdamConfig",
    "gelu",
    "layer_norm",
    "softmax",
    "cross_entropy",
]
