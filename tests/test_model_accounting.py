"""Tests for transformer parameter/checkpoint accounting, the Table 1 zoo, and
the Figure 3 / Figure 4 reproductions."""

import pytest

from repro.analysis import paper_data
from repro.exceptions import ConfigurationError
from repro.model import (
    MODEL_BYTES_PER_PARAM,
    MODEL_SIZES,
    OPTIMIZER_BYTES_PER_PARAM,
    IterationPhases,
    TransformerConfig,
    interpolate_phases,
    model_config,
    phase_breakdown_table,
    phases_for,
    runtime_config,
    tiny_config,
)
from repro.parallelism import checkpoint_size_summary


# ---------------------------------------------------------------------------
# TransformerConfig accounting
# ---------------------------------------------------------------------------

def test_parameter_count_scales_quadratically_with_hidden_size():
    small = TransformerConfig("s", num_layers=10, hidden_size=1024, num_attention_heads=16)
    large = TransformerConfig("l", num_layers=10, hidden_size=2048, num_attention_heads=16)
    ratio = large.layer_parameters() / small.layer_parameters()
    assert 3.5 < ratio < 4.1  # dominated by the h^2 terms


def test_parameter_count_scales_linearly_with_layers():
    base = TransformerConfig("b", num_layers=10, hidden_size=1024, num_attention_heads=16)
    deep = TransformerConfig("d", num_layers=20, hidden_size=1024, num_attention_heads=16)
    delta = deep.total_parameters() - base.total_parameters()
    assert delta == 10 * base.layer_parameters()


def test_checkpoint_bytes_is_model_plus_optimizer():
    config = tiny_config()
    assert config.checkpoint_bytes() == config.model_state_bytes() + config.optimizer_state_bytes()
    assert config.model_state_bytes() == config.total_parameters() * MODEL_BYTES_PER_PARAM
    assert config.optimizer_state_bytes() == config.total_parameters() * OPTIMIZER_BYTES_PER_PARAM


def test_optimizer_state_dominates_checkpoint():
    config = model_config("7B")
    assert config.optimizer_state_bytes() == 6 * config.model_state_bytes()


def test_layer_parameter_counts_sum_to_total():
    config = model_config("13B")
    assert sum(config.layer_parameter_counts()) == config.total_parameters()


def test_invalid_configs_rejected():
    with pytest.raises(ConfigurationError):
        TransformerConfig("bad", num_layers=0, hidden_size=64, num_attention_heads=4)
    with pytest.raises(ConfigurationError):
        TransformerConfig("bad", num_layers=2, hidden_size=65, num_attention_heads=4)
    with pytest.raises(ConfigurationError):
        TransformerConfig("bad", num_layers=2, hidden_size=64, num_attention_heads=4, vocab_size=0)


# ---------------------------------------------------------------------------
# Table 1 zoo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size,billions", [("3B", 3), ("7B", 7), ("13B", 13), ("30B", 30), ("70B", 70)])
def test_model_sizes_match_their_names_within_tolerance(size, billions):
    params = model_config(size).total_parameters() / 1e9
    assert params == pytest.approx(billions, rel=0.25)


@pytest.mark.parametrize("size", MODEL_SIZES)
def test_runtime_config_matches_table1_layout(size):
    runtime = runtime_config(size)
    assert runtime.tensor_parallel == 4
    assert runtime.pipeline_parallel == runtime.num_nodes
    assert runtime.zero_stage == 1
    assert runtime.tensor_parallel * runtime.pipeline_parallel == paper_data.FIGURE3_NUM_GPUS[size]


def test_unknown_model_size_rejected():
    with pytest.raises(ConfigurationError):
        model_config("175B")
    with pytest.raises(ConfigurationError):
        runtime_config("175B")


# ---------------------------------------------------------------------------
# Figure 3: checkpoint sizes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", MODEL_SIZES)
def test_figure3_aggregate_checkpoint_size_close_to_paper(size):
    summary = checkpoint_size_summary(runtime_config(size))
    paper_gb = paper_data.FIGURE3_CHECKPOINT_SIZES_GB[size]
    assert summary["aggregate_checkpoint_gb"] == pytest.approx(paper_gb, rel=0.25)


@pytest.mark.parametrize("size", MODEL_SIZES)
def test_figure3_per_gpu_checkpoint_size_roughly_constant(size):
    summary = checkpoint_size_summary(runtime_config(size))
    # The paper's observation: per-GPU checkpoint size stays in the 10-20 GB
    # band across model sizes (good load balancing of the shards).
    assert 8.0 < summary["avg_checkpoint_per_gpu_gb"] < 20.0


def test_figure3_load_imbalance_is_moderate():
    summary = checkpoint_size_summary(runtime_config("30B"))
    assert summary["load_imbalance"] < 1.6


# ---------------------------------------------------------------------------
# Figure 4: iteration phases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", MODEL_SIZES)
def test_figure4_phase_values_match_paper(size):
    phases = phases_for(size)
    reference = paper_data.FIGURE4_PHASES_S[size]
    assert phases.forward == pytest.approx(reference["forward"])
    assert phases.backward == pytest.approx(reference["backward"])
    assert phases.update == pytest.approx(reference["update"])


def test_immutable_window_dominates_iteration():
    """The key enabler of lazy checkpointing: fwd+bwd is most of the iteration."""
    for size in MODEL_SIZES:
        phases = phases_for(size)
        assert phases.immutable_window / phases.total > 0.9


def test_phase_breakdown_table_has_all_models():
    table = phase_breakdown_table()
    assert set(table) == set(MODEL_SIZES)
    assert table["70B"]["iteration_s"] > table["3B"]["iteration_s"]


def test_interpolation_between_anchor_models():
    config = TransformerConfig("20B-ish", num_layers=48, hidden_size=6144,
                               num_attention_heads=48, vocab_size=32000)
    phases = interpolate_phases(config)
    lower = phases_for("13B")
    upper = phases_for("30B")
    assert lower.total < phases.total < upper.total


def test_phases_for_unknown_size_rejected():
    with pytest.raises(ConfigurationError):
        phases_for("999B")


def test_iteration_phases_validation():
    with pytest.raises(ConfigurationError):
        IterationPhases(forward=-1.0, backward=1.0, update=0.1)
