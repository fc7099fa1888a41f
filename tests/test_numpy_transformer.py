"""Tests for the real NumPy transformer LM and the Adam optimizer."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.model import (
    AdamConfig,
    AdamOptimizer,
    NumpyTransformerLM,
    cross_entropy,
    gelu,
    layer_norm,
    softmax,
    tiny_config,
)
from repro.model.numpy_transformer import gelu_backward, layer_norm_backward


def _tiny_model(seed=0, **overrides):
    defaults = dict(num_layers=2, hidden_size=16, num_attention_heads=2,
                    vocab_size=31, sequence_length=8)
    defaults.update(overrides)
    return NumpyTransformerLM(tiny_config(**defaults), seed=seed, dtype=np.float64)


def _batch(model, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    seq = model.config.sequence_length
    tokens = rng.integers(0, model.config.vocab_size, size=(batch, seq))
    targets = np.roll(tokens, -1, axis=1)
    return tokens, targets


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------

def test_softmax_rows_sum_to_one():
    x = np.random.default_rng(0).normal(size=(4, 7))
    probs = softmax(x)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-12)
    assert np.all(probs >= 0)


def test_softmax_is_shift_invariant():
    x = np.random.default_rng(1).normal(size=(3, 5))
    np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-12)


def test_layer_norm_normalizes_last_axis():
    x = np.random.default_rng(2).normal(loc=3.0, scale=2.0, size=(5, 11))
    y, _cache = layer_norm(x, np.ones(11), np.zeros(11))
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-7)
    np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)


def test_layer_norm_backward_matches_numerical_gradient():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 6))
    gain = rng.normal(size=6)
    bias = rng.normal(size=6)
    dy = rng.normal(size=(2, 6))

    def loss(x_in):
        y, _ = layer_norm(x_in, gain, bias)
        return float((y * dy).sum())

    _y, cache = layer_norm(x, gain, bias)
    dx, _dg, _db = layer_norm_backward(dy, cache)
    eps = 1e-6
    for index in np.ndindex(*x.shape):
        bumped = x.copy()
        bumped[index] += eps
        numerical = (loss(bumped) - loss(x)) / eps
        assert numerical == pytest.approx(dx[index], rel=1e-3, abs=1e-6)


def test_gelu_backward_matches_numerical_gradient():
    x = np.linspace(-3, 3, 13)
    dy = np.ones_like(x)
    analytic = gelu_backward(x, dy)
    eps = 1e-6
    numerical = (gelu(x + eps) - gelu(x - eps)) / (2 * eps)
    np.testing.assert_allclose(analytic, numerical, rtol=1e-5, atol=1e-7)


def test_cross_entropy_of_uniform_logits_is_log_vocab():
    logits = np.zeros((2, 3, 10))
    targets = np.zeros((2, 3), dtype=np.int64)
    loss, dlogits = cross_entropy(logits, targets)
    assert loss == pytest.approx(np.log(10), rel=1e-6)
    assert dlogits.shape == logits.shape
    # Gradient sums to zero per position (softmax minus one-hot).
    np.testing.assert_allclose(dlogits.sum(axis=-1), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Model forward / backward
# ---------------------------------------------------------------------------

def test_forward_shapes_and_finite_loss():
    model = _tiny_model()
    tokens, targets = _batch(model)
    logits, loss, _cache = model.forward(tokens, targets)
    assert logits.shape == (2, model.config.sequence_length, model.config.vocab_size)
    assert loss is not None and np.isfinite(loss)
    assert loss == pytest.approx(np.log(model.config.vocab_size), rel=0.3)


def test_forward_without_targets_has_no_loss():
    model = _tiny_model()
    tokens, _ = _batch(model)
    _logits, loss, cache = model.forward(tokens)
    assert loss is None
    with pytest.raises(ConfigurationError):
        model.backward(cache)


def test_forward_validates_token_range_and_shape():
    model = _tiny_model()
    with pytest.raises(ConfigurationError):
        model.forward(np.array([0, 1, 2]))  # 1-D
    bad = np.full((1, model.config.sequence_length), model.config.vocab_size)
    with pytest.raises(ConfigurationError):
        model.forward(bad)
    too_long = np.zeros((1, model.config.sequence_length + 1), dtype=np.int64)
    with pytest.raises(ConfigurationError):
        model.forward(too_long)


def test_num_parameters_counts_every_scalar():
    model = _tiny_model()
    assert model.num_parameters() == sum(p.size for p in model.params.values())


def test_gradients_match_numerical_for_selected_parameters():
    """Spot-check the hand-written backward pass against finite differences."""
    model = _tiny_model(num_layers=1, hidden_size=8, num_attention_heads=2,
                        vocab_size=13, sequence_length=5)
    tokens, targets = _batch(model, batch=1, seed=5)
    _logits, loss, cache = model.forward(tokens, targets)
    grads = model.backward(cache)
    eps = 1e-6
    rng = np.random.default_rng(0)
    for name in ["blocks.0.w_qkv", "blocks.0.w_fc", "blocks.0.ln1_g", "wte", "lnf_b",
                 "blocks.0.w_proj", "blocks.0.b_out"]:
        param = model.params[name]
        flat_indices = rng.choice(param.size, size=min(3, param.size), replace=False)
        for flat_index in flat_indices:
            index = np.unravel_index(flat_index, param.shape)
            original = param[index]
            param[index] = original + eps
            _l, loss_plus, _c = model.forward(tokens, targets)
            param[index] = original - eps
            _l, loss_minus, _c = model.forward(tokens, targets)
            param[index] = original
            numerical = (loss_plus - loss_minus) / (2 * eps)
            assert numerical == pytest.approx(grads[name][index], rel=2e-3, abs=1e-6), name


def test_training_reduces_loss():
    model = _tiny_model()
    optimizer = AdamOptimizer(model.params, AdamConfig(learning_rate=3e-3))
    tokens, targets = _batch(model, batch=4, seed=9)
    first_loss = None
    last_loss = None
    for _ in range(30):
        _logits, loss, cache = model.forward(tokens, targets)
        grads = model.backward(cache)
        optimizer.step(grads)
        if first_loss is None:
            first_loss = loss
        last_loss = loss
    assert last_loss < first_loss * 0.8


def test_forward_is_deterministic_given_parameters():
    model = _tiny_model(seed=3)
    tokens, targets = _batch(model)
    _l1, loss1, _ = model.forward(tokens, targets)
    _l2, loss2, _ = model.forward(tokens, targets)
    assert loss1 == loss2


def test_state_dict_roundtrip_restores_outputs():
    model_a = _tiny_model(seed=1)
    model_b = _tiny_model(seed=2)
    tokens, targets = _batch(model_a)
    _1, loss_a, _ = model_a.forward(tokens, targets)
    model_b.load_state_dict(model_a.state_dict())
    _2, loss_b, _ = model_b.forward(tokens, targets)
    assert loss_a == pytest.approx(loss_b, rel=1e-12)


def test_load_state_dict_rejects_mismatched_keys_and_shapes():
    model = _tiny_model()
    state = model.state_dict()
    del state["wte"]
    with pytest.raises(ConfigurationError):
        model.load_state_dict(state)
    state = _tiny_model().state_dict()
    state["wte"] = np.zeros((3, 3))
    with pytest.raises(ConfigurationError):
        model.load_state_dict(state)


# ---------------------------------------------------------------------------
# Adam optimizer
# ---------------------------------------------------------------------------

def test_adam_moves_parameters_against_gradient():
    params = {"w": np.zeros(4)}
    optimizer = AdamOptimizer(params, AdamConfig(learning_rate=0.1))
    optimizer.step({"w": np.ones(4)})
    assert np.all(params["w"] < 0)


def test_adam_requires_all_gradients():
    params = {"w": np.zeros(4), "b": np.zeros(2)}
    optimizer = AdamOptimizer(params)
    with pytest.raises(ConfigurationError):
        optimizer.step({"w": np.ones(4)})


def test_adam_state_dict_roundtrip_preserves_trajectory():
    def run(steps, optimizer, params, grads):
        for _ in range(steps):
            optimizer.step(grads)

    grads = {"w": np.full(3, 0.5)}
    params_a = {"w": np.ones(3)}
    opt_a = AdamOptimizer(params_a, AdamConfig(learning_rate=0.05))
    run(5, opt_a, params_a, grads)
    snapshot = {"params": {k: v.copy() for k, v in params_a.items()}, "opt": opt_a.state_dict()}
    run(5, opt_a, params_a, grads)

    params_b = {k: v.copy() for k, v in snapshot["params"].items()}
    opt_b = AdamOptimizer(params_b, AdamConfig(learning_rate=0.05))
    opt_b.load_state_dict(snapshot["opt"])
    run(5, opt_b, params_b, grads)
    np.testing.assert_allclose(params_a["w"], params_b["w"], rtol=1e-12)


def test_adam_load_rejects_mismatched_state():
    optimizer = AdamOptimizer({"w": np.zeros(3)})
    with pytest.raises(ConfigurationError):
        optimizer.load_state_dict({"step": 1, "exp_avg": {"other": np.zeros(3)},
                                   "exp_avg_sq": {"other": np.zeros(3)}})


def test_adam_config_validation():
    with pytest.raises(ConfigurationError):
        AdamConfig(learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        AdamConfig(beta1=1.0)
    with pytest.raises(ConfigurationError):
        AdamConfig(weight_decay=-0.1)


def test_adam_weight_decay_shrinks_weights():
    params = {"w": np.full(4, 10.0)}
    optimizer = AdamOptimizer(params, AdamConfig(learning_rate=0.1, weight_decay=0.5))
    optimizer.step({"w": np.zeros(4)})
    assert np.all(params["w"] < 10.0)
