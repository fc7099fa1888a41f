"""Simulated-engine registry and factory.

Engines are selected by name (mirroring the ``checkpoint_engine`` attribute
of a DeepSpeed configuration file, §5.2).  The canonical names, aliases, and
display labels live in :mod:`repro.core.registry` — the **single** name table
shared with the real-mode factory (:func:`repro.core.create_real_engine`) —
so a name means the same engine in the simulator and over real NumPy state.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from ..cluster import SimCluster
from ..config import CheckpointPolicy
from ..core.registry import ENGINE_LABELS, ENGINE_NAMES, canonical_engine_name
from ..exceptions import ConfigurationError
from ..parallelism import CheckpointPlan
from ..simulator import Environment, TraceRecorder
from .async_engine import AsynchronousEngine
from .base import SimCheckpointEngine
from .datastates_engine import DataStatesEngine
from .sync_engine import SynchronousEngine
from .torchsnapshot_engine import TorchSnapshotEngine

__all__ = [
    "ENGINE_NAMES",
    "ENGINE_LABELS",
    "resolve_engine_class",
    "create_engine",
]

_REGISTRY: Dict[str, Type[SimCheckpointEngine]] = {
    "deepspeed": SynchronousEngine,
    "async": AsynchronousEngine,
    "torchsnapshot": TorchSnapshotEngine,
    "datastates": DataStatesEngine,
}


def resolve_engine_class(name: str) -> Type[SimCheckpointEngine]:
    """Look up a simulated engine class by (possibly aliased) name."""
    canonical = canonical_engine_name(name)
    if canonical not in _REGISTRY:
        raise ConfigurationError(
            f"engine {name!r} has no simulated implementation registered"
        )
    return _REGISTRY[canonical]


def create_engine(
    name: str,
    env: Environment,
    cluster: SimCluster,
    plan: CheckpointPlan,
    policy: CheckpointPolicy,
    trace: Optional[TraceRecorder] = None,
    **engine_kwargs,
) -> SimCheckpointEngine:
    """Instantiate a simulated engine by name."""
    engine_class = resolve_engine_class(name)
    return engine_class(env, cluster, plan, policy, trace, **engine_kwargs)
