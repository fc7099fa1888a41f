"""Simulated checkpoint engines: the DataStates-LLM approach and its baselines."""

from .async_engine import AsynchronousEngine
from .base import RankState, SimCheckpointEngine
from .datastates_engine import DataStatesEngine
from .factory import (
    ENGINE_LABELS,
    ENGINE_NAMES,
    create_engine,
    resolve_engine_class,
)
from .sync_engine import SynchronousEngine
from .torchsnapshot_engine import TorchSnapshotEngine

__all__ = [
    "SimCheckpointEngine",
    "RankState",
    "SynchronousEngine",
    "AsynchronousEngine",
    "TorchSnapshotEngine",
    "DataStatesEngine",
    "ENGINE_NAMES",
    "ENGINE_LABELS",
    "create_engine",
    "resolve_engine_class",
]
