"""Adam optimizer over flat ``{name: ndarray}`` parameter dicts.

LLM training uses adaptive optimizers whose state (first and second moments,
plus fp32 master weights under mixed precision) triples-to-sextuples the
checkpoint size relative to the bare parameters (§4.1).  This implementation
keeps that state explicitly so the real-mode checkpoint engine has something
meaningful — and large — to capture, and so restore correctness can be
verified bit-exactly (same optimizer state => identical subsequent updates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..exceptions import ConfigurationError

Params = Dict[str, np.ndarray]


@dataclass(frozen=True)
class AdamConfig:
    """Hyper-parameters of the Adam optimizer."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigurationError("betas must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be >= 0")


class AdamOptimizer:
    """Adam with decoupled weight decay over a flat parameter dict."""

    def __init__(self, params: Params, config: Optional[AdamConfig] = None) -> None:
        self.config = config or AdamConfig()
        self._params = params
        self.step_count = 0
        self.exp_avg: Params = {name: np.zeros_like(value, dtype=np.float64) for name, value in params.items()}
        self.exp_avg_sq: Params = {name: np.zeros_like(value, dtype=np.float64) for name, value in params.items()}

    # -- training ------------------------------------------------------------
    def step(self, grads: Params) -> None:
        """Apply one Adam update in place on the bound parameter dict."""
        missing = set(self._params) - set(grads)
        if missing:
            raise ConfigurationError(f"missing gradients for {sorted(missing)[:3]} ...")
        cfg = self.config
        self.step_count += 1
        bias1 = 1.0 - cfg.beta1**self.step_count
        bias2 = 1.0 - cfg.beta2**self.step_count
        for name, param in self._params.items():
            grad = np.asarray(grads[name], dtype=np.float64)
            m = self.exp_avg[name]
            v = self.exp_avg_sq[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * grad
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            if cfg.weight_decay:
                update = update + cfg.weight_decay * param.astype(np.float64)
            param -= (cfg.learning_rate * update).astype(param.dtype)

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Optimizer state for checkpointing (step count + both moments)."""
        return {
            "step": self.step_count,
            "exp_avg": {name: value.copy() for name, value in self.exp_avg.items()},
            "exp_avg_sq": {name: value.copy() for name, value in self.exp_avg_sq.items()},
            "config": {
                "learning_rate": self.config.learning_rate,
                "beta1": self.config.beta1,
                "beta2": self.config.beta2,
                "epsilon": self.config.epsilon,
                "weight_decay": self.config.weight_decay,
            },
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore optimizer state from a checkpoint."""
        exp_avg = state.get("exp_avg")
        exp_avg_sq = state.get("exp_avg_sq")
        if not isinstance(exp_avg, dict) or not isinstance(exp_avg_sq, dict):
            raise ConfigurationError("optimizer state dict is malformed")
        if set(exp_avg) != set(self._params) or set(exp_avg_sq) != set(self._params):
            raise ConfigurationError("optimizer state does not match bound parameters")
        self.step_count = int(state.get("step", 0))
        for name in self._params:
            self.exp_avg[name] = np.array(exp_avg[name], dtype=np.float64, copy=True)
            self.exp_avg_sq[name] = np.array(exp_avg_sq[name], dtype=np.float64, copy=True)
