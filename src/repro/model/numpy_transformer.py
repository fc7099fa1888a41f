"""A real, trainable decoder-only transformer implemented in NumPy.

The original system checkpoints DeepSpeed/Megatron models running on GPUs.
For the real-execution mode of this reproduction we need an actual model
whose parameters and optimizer state change every iteration, so that
checkpoint/restore correctness can be verified end to end (bit-exact resume,
torn-checkpoint detection, ...).  This module provides a compact GPT-style
language model with a hand-written backward pass — no autograd framework is
available offline — sufficient to drive the real-mode trainer and the
quickstart example.

Parameters are stored in a flat ``{name: ndarray}`` dict (e.g.
``"blocks.3.w_qkv"``) which doubles as the model part of the checkpoint
state dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .transformer import TransformerConfig

Params = Dict[str, np.ndarray]
Grads = Dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# Primitive ops (forward + backward)
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximation GELU."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def gelu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of tanh-approximation GELU."""
    u = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(u)
    du_dx = _GELU_C * (1.0 + 3.0 * 0.044715 * x**2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du_dx)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """LayerNorm over the last axis; returns (y, cache)."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    y = gain * xhat + bias
    return y, (xhat, inv_std, gain)


def layer_norm_backward(dy: np.ndarray, cache) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`layer_norm`; returns (dx, dgain, dbias)."""
    xhat, inv_std, gain = cache
    reduce_axes = tuple(range(dy.ndim - 1))
    dgain = (dy * xhat).sum(axis=reduce_axes)
    dbias = dy.sum(axis=reduce_axes)
    dxhat = dy * gain
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, dgain, dbias


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean token-level cross entropy; returns (loss, dlogits)."""
    batch, seq, vocab = logits.shape
    probs = softmax(logits, axis=-1)
    flat_probs = probs.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    picked = flat_probs[np.arange(flat_targets.size), flat_targets]
    loss = float(-np.log(np.maximum(picked, 1e-12)).mean())
    dlogits = flat_probs.copy()
    dlogits[np.arange(flat_targets.size), flat_targets] -= 1.0
    dlogits /= flat_targets.size
    return loss, dlogits.reshape(batch, seq, vocab)


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------


@dataclass
class _BlockCache:
    """Forward activations of one transformer block needed for backward."""

    x_in: np.ndarray
    ln1: tuple
    ln1_out: np.ndarray
    qkv: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    att_probs: np.ndarray
    att_out_merged: np.ndarray
    attn_residual: np.ndarray
    ln2: tuple
    ln2_out: np.ndarray
    fc_pre: np.ndarray
    fc_act: np.ndarray


class NumpyTransformerLM:
    """A small GPT-style causal language model with manual backpropagation."""

    def __init__(self, config: TransformerConfig, seed: int = 0, dtype=np.float32) -> None:
        if config.sequence_length <= 1:
            raise ConfigurationError("sequence_length must be at least 2")
        self.config = config
        self.dtype = np.dtype(dtype)
        self.head_dim = config.hidden_size // config.num_attention_heads
        self.params: Params = self._init_parameters(seed)

    # -- parameters -----------------------------------------------------------
    def _init_parameters(self, seed: int) -> Params:
        cfg = self.config
        rng = np.random.default_rng(seed)
        scale = 0.02
        params: Params = {
            "wte": rng.normal(0.0, scale, (cfg.vocab_size, cfg.hidden_size)),
            "wpe": rng.normal(0.0, scale, (cfg.sequence_length, cfg.hidden_size)),
            "lnf_g": np.ones(cfg.hidden_size),
            "lnf_b": np.zeros(cfg.hidden_size),
        }
        for layer in range(cfg.num_layers):
            prefix = f"blocks.{layer}."
            params[prefix + "ln1_g"] = np.ones(cfg.hidden_size)
            params[prefix + "ln1_b"] = np.zeros(cfg.hidden_size)
            params[prefix + "w_qkv"] = rng.normal(0.0, scale, (cfg.hidden_size, 3 * cfg.hidden_size))
            params[prefix + "b_qkv"] = np.zeros(3 * cfg.hidden_size)
            params[prefix + "w_proj"] = rng.normal(0.0, scale, (cfg.hidden_size, cfg.hidden_size))
            params[prefix + "b_proj"] = np.zeros(cfg.hidden_size)
            params[prefix + "ln2_g"] = np.ones(cfg.hidden_size)
            params[prefix + "ln2_b"] = np.zeros(cfg.hidden_size)
            params[prefix + "w_fc"] = rng.normal(0.0, scale, (cfg.hidden_size, cfg.ffn_hidden_size))
            params[prefix + "b_fc"] = np.zeros(cfg.ffn_hidden_size)
            params[prefix + "w_out"] = rng.normal(0.0, scale, (cfg.ffn_hidden_size, cfg.hidden_size))
            params[prefix + "b_out"] = np.zeros(cfg.hidden_size)
        return {name: value.astype(self.dtype) for name, value in params.items()}

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.params.values()))

    # -- forward -----------------------------------------------------------------
    def forward(self, tokens: np.ndarray, targets: Optional[np.ndarray] = None):
        """Run the model.

        Returns ``(logits, loss, cache)``; ``loss`` is None without targets.
        """
        cfg = self.config
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ConfigurationError("tokens must have shape [batch, seq]")
        batch, seq = tokens.shape
        if seq > cfg.sequence_length:
            raise ConfigurationError(f"sequence of length {seq} exceeds context {cfg.sequence_length}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise ConfigurationError("token id out of range")

        params = self.params
        x = params["wte"][tokens] + params["wpe"][:seq][None, :, :]
        x = x.astype(self.dtype)
        block_caches = []
        for layer in range(cfg.num_layers):
            x, cache = self._block_forward(x, layer)
            block_caches.append(cache)
        final, lnf_cache = layer_norm(x, params["lnf_g"], params["lnf_b"])
        logits = final @ params["wte"].T

        loss = None
        dlogits = None
        if targets is not None:
            loss, dlogits = cross_entropy(logits, np.asarray(targets))
        cache = {
            "tokens": tokens,
            "block_caches": block_caches,
            "lnf_cache": lnf_cache,
            "final": final,
            "dlogits": dlogits,
            "seq": seq,
        }
        return logits, loss, cache

    def _block_forward(self, x: np.ndarray, layer: int):
        cfg = self.config
        p = self.params
        prefix = f"blocks.{layer}."
        batch, seq, hidden = x.shape
        heads, head_dim = cfg.num_attention_heads, self.head_dim

        ln1_out, ln1_cache = layer_norm(x, p[prefix + "ln1_g"], p[prefix + "ln1_b"])
        qkv = ln1_out @ p[prefix + "w_qkv"] + p[prefix + "b_qkv"]
        q, k, v = np.split(qkv, 3, axis=-1)
        # [batch, heads, seq, head_dim]
        q = q.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
        k = k.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
        v = v.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
        scores = (q @ k.transpose(0, 1, 3, 2)) / math.sqrt(head_dim)
        mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
        scores = np.where(mask, -1e9, scores)
        probs = softmax(scores, axis=-1)
        att = probs @ v  # [batch, heads, seq, head_dim]
        merged = att.transpose(0, 2, 1, 3).reshape(batch, seq, hidden)
        attn_out = merged @ p[prefix + "w_proj"] + p[prefix + "b_proj"]
        x_attn = x + attn_out

        ln2_out, ln2_cache = layer_norm(x_attn, p[prefix + "ln2_g"], p[prefix + "ln2_b"])
        fc_pre = ln2_out @ p[prefix + "w_fc"] + p[prefix + "b_fc"]
        fc_act = gelu(fc_pre)
        mlp_out = fc_act @ p[prefix + "w_out"] + p[prefix + "b_out"]
        y = x_attn + mlp_out

        cache = _BlockCache(
            x_in=x, ln1=ln1_cache, ln1_out=ln1_out, qkv=qkv, q=q, k=k, v=v,
            att_probs=probs, att_out_merged=merged, attn_residual=x_attn,
            ln2=ln2_cache, ln2_out=ln2_out, fc_pre=fc_pre, fc_act=fc_act,
        )
        return y, cache

    # -- backward --------------------------------------------------------------------
    def backward(self, cache) -> Grads:
        """Compute parameter gradients from a forward cache (targets required)."""
        if cache["dlogits"] is None:
            raise ConfigurationError("backward() requires a forward pass with targets")
        cfg = self.config
        p = self.params
        grads: Grads = {name: np.zeros_like(value) for name, value in p.items()}

        dlogits = cache["dlogits"]
        final = cache["final"]
        tokens = cache["tokens"]
        seq = cache["seq"]
        batch = tokens.shape[0]
        hidden = cfg.hidden_size
        vocab = cfg.vocab_size

        # logits = final @ wte.T  (weight tying)
        flat_dlogits = dlogits.reshape(-1, vocab)
        flat_final = final.reshape(-1, hidden)
        grads["wte"] += flat_dlogits.T @ flat_final
        dfinal = (flat_dlogits @ p["wte"]).reshape(batch, seq, hidden)

        dx, dg, db = layer_norm_backward(dfinal, cache["lnf_cache"])
        grads["lnf_g"] += dg
        grads["lnf_b"] += db

        for layer in reversed(range(cfg.num_layers)):
            dx = self._block_backward(dx, cache["block_caches"][layer], layer, grads)

        # Embedding gradients.
        np.add.at(grads["wte"], tokens, dx)
        grads["wpe"][:seq] += dx.sum(axis=0)
        return grads

    def _block_backward(self, dy: np.ndarray, cache: _BlockCache, layer: int, grads: Grads) -> np.ndarray:
        cfg = self.config
        p = self.params
        prefix = f"blocks.{layer}."
        batch, seq, hidden = dy.shape
        heads, head_dim = cfg.num_attention_heads, self.head_dim

        # y = x_attn + mlp_out
        dmlp_out = dy
        dx_attn = dy.copy()

        # mlp_out = gelu(ln2_out @ w_fc + b_fc) @ w_out + b_out
        flat_fc_act = cache.fc_act.reshape(-1, cfg.ffn_hidden_size)
        flat_dmlp = dmlp_out.reshape(-1, hidden)
        grads[prefix + "w_out"] += flat_fc_act.T @ flat_dmlp
        grads[prefix + "b_out"] += flat_dmlp.sum(axis=0)
        dfc_act = (flat_dmlp @ p[prefix + "w_out"].T).reshape(batch, seq, cfg.ffn_hidden_size)
        dfc_pre = gelu_backward(cache.fc_pre, dfc_act)
        flat_ln2 = cache.ln2_out.reshape(-1, hidden)
        flat_dfc_pre = dfc_pre.reshape(-1, cfg.ffn_hidden_size)
        grads[prefix + "w_fc"] += flat_ln2.T @ flat_dfc_pre
        grads[prefix + "b_fc"] += flat_dfc_pre.sum(axis=0)
        dln2_out = (flat_dfc_pre @ p[prefix + "w_fc"].T).reshape(batch, seq, hidden)
        dres, dg2, db2 = layer_norm_backward(dln2_out, cache.ln2)
        grads[prefix + "ln2_g"] += dg2
        grads[prefix + "ln2_b"] += db2
        dx_attn += dres

        # x_attn = x_in + attn_out
        dattn_out = dx_attn
        dx_in = dx_attn.copy()

        # attn_out = merged @ w_proj + b_proj
        flat_merged = cache.att_out_merged.reshape(-1, hidden)
        flat_dattn = dattn_out.reshape(-1, hidden)
        grads[prefix + "w_proj"] += flat_merged.T @ flat_dattn
        grads[prefix + "b_proj"] += flat_dattn.sum(axis=0)
        dmerged = (flat_dattn @ p[prefix + "w_proj"].T).reshape(batch, seq, hidden)
        datt = dmerged.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)

        # att = probs @ v
        probs = cache.att_probs
        dprobs = datt @ cache.v.transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ datt
        # softmax backward (masked entries have probs == 0, so they drop out)
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dscores /= math.sqrt(head_dim)
        dq = dscores @ cache.k
        dk = dscores.transpose(0, 1, 3, 2) @ cache.q

        # merge q/k/v gradients back into the fused projection
        def merge_heads(t: np.ndarray) -> np.ndarray:
            return t.transpose(0, 2, 1, 3).reshape(batch, seq, hidden)

        dqkv = np.concatenate([merge_heads(dq), merge_heads(dk), merge_heads(dv)], axis=-1)
        flat_ln1 = cache.ln1_out.reshape(-1, hidden)
        flat_dqkv = dqkv.reshape(-1, 3 * hidden)
        grads[prefix + "w_qkv"] += flat_ln1.T @ flat_dqkv
        grads[prefix + "b_qkv"] += flat_dqkv.sum(axis=0)
        dln1_out = (flat_dqkv @ p[prefix + "w_qkv"].T).reshape(batch, seq, hidden)
        dres1, dg1, db1 = layer_norm_backward(dln1_out, cache.ln1)
        grads[prefix + "ln1_g"] += dg1
        grads[prefix + "ln1_b"] += db1
        dx_in += dres1
        return dx_in

    # -- convenience ----------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """The model part of a checkpoint (flat name -> array)."""
        return dict(self.params)

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters from a checkpoint, validating names and shapes."""
        missing = set(self.params) - set(state)
        unexpected = set(state) - set(self.params)
        if missing or unexpected:
            raise ConfigurationError(
                f"state dict mismatch: missing={sorted(missing)[:3]}, unexpected={sorted(unexpected)[:3]}"
            )
        for name, value in state.items():
            if value.shape != self.params[name].shape:
                raise ConfigurationError(
                    f"shape mismatch for {name!r}: {value.shape} vs {self.params[name].shape}"
                )
            self.params[name] = np.array(value, dtype=self.dtype, copy=True)
