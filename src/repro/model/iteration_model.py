"""Training-iteration phase model (Figure 4).

The checkpointing study needs to know how long the forward pass, backward
pass, and optimizer update of each model take, because the DataStates design
hides device-to-host copies *inside* the forward+backward window and delays
the update until the copies complete.  The absolute durations depend on the
authors' Polaris testbed; we calibrate against the per-model measurements the
paper publishes in Figure 4 and interpolate (linearly in parameter count) for
model sizes in between.

The measured phase durations include pipeline/tensor-parallel communication,
which is why they are attached to the Table 1 runtime layout rather than to
raw FLOP counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..exceptions import ConfigurationError
from .llm_zoo import MODEL_SIZES, model_config
from .transformer import TransformerConfig


@dataclass(frozen=True)
class IterationPhases:
    """Durations of one training iteration's phases, in seconds."""

    forward: float
    backward: float
    update: float

    def __post_init__(self) -> None:
        if self.forward < 0 or self.backward < 0 or self.update < 0:
            raise ConfigurationError("phase durations must be non-negative")

    @property
    def total(self) -> float:
        """Full iteration duration without any checkpointing overhead."""
        return self.forward + self.backward + self.update

    @property
    def immutable_window(self) -> float:
        """Time during which model/optimizer state is immutable (fwd + bwd).

        This is the window the lazy snapshot overlaps with (§4.2).
        """
        return self.forward + self.backward


#: Figure 4 measurements: model size -> (forward, backward, update) seconds.
FIGURE4_PHASES: Dict[str, IterationPhases] = {
    "3B": IterationPhases(forward=0.81, backward=0.79, update=0.10),
    "7B": IterationPhases(forward=1.26, backward=1.82, update=0.12),
    "13B": IterationPhases(forward=1.85, backward=3.56, update=0.09),
    "30B": IterationPhases(forward=3.72, backward=8.58, update=0.11),
    "70B": IterationPhases(forward=6.71, backward=16.82, update=0.07),
}


def phases_for(size_or_config: "str | TransformerConfig") -> IterationPhases:
    """Phase durations for a Table 1 model (or an interpolated custom config)."""
    if isinstance(size_or_config, str):
        try:
            return FIGURE4_PHASES[size_or_config]
        except KeyError as exc:
            raise ConfigurationError(
                f"no Figure 4 calibration for model size {size_or_config!r}"
            ) from exc
    return interpolate_phases(size_or_config)


def interpolate_phases(config: TransformerConfig) -> IterationPhases:
    """Interpolate/extrapolate phase durations by total parameter count."""
    anchors: list[Tuple[float, IterationPhases]] = []
    for size in MODEL_SIZES:
        anchors.append((float(model_config(size).total_parameters()), FIGURE4_PHASES[size]))
    anchors.sort(key=lambda item: item[0])
    params = float(config.total_parameters())
    if params <= anchors[0][0]:
        lo, hi = anchors[0], anchors[1]
    elif params >= anchors[-1][0]:
        lo, hi = anchors[-2], anchors[-1]
    else:
        lo, hi = anchors[0], anchors[-1]
        for left, right in zip(anchors, anchors[1:]):
            if left[0] <= params <= right[0]:
                lo, hi = left, right
                break
    span = hi[0] - lo[0]
    weight = 0.0 if span == 0 else (params - lo[0]) / span
    forward = lo[1].forward + weight * (hi[1].forward - lo[1].forward)
    backward = lo[1].backward + weight * (hi[1].backward - lo[1].backward)
    update = lo[1].update + weight * (hi[1].update - lo[1].update)
    return IterationPhases(forward=max(forward, 1e-4),
                           backward=max(backward, 1e-4),
                           update=max(update, 1e-4))


def phase_breakdown_table() -> Dict[str, Dict[str, float]]:
    """The Figure 4 table in report-friendly form."""
    table: Dict[str, Dict[str, float]] = {}
    for size in MODEL_SIZES:
        phases = FIGURE4_PHASES[size]
        table[size] = {
            "forward_s": phases.forward,
            "backward_s": phases.backward,
            "update_s": phases.update,
            "iteration_s": phases.total,
            "immutable_fraction": phases.immutable_window / phases.total,
        }
    return table
