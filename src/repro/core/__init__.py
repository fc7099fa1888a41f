"""Real-mode checkpoint engines (the paper's primary contribution).

One protocol (:class:`CheckpointEngine`: its ``save`` is the one save path,
every engine returns the one :class:`CheckpointHandle` and implements only
``_write_parts``), one registry (:func:`create_real_engine` /
:func:`register_real_engine`), four engines — the paper's §6.2 baselines over
real NumPy state:

======================  ==========================================
name                    engine
======================  ==========================================
``deepspeed`` (sync)    :class:`SynchronousCheckpointEngine`
``async`` (checkfreq)   :class:`AsyncCheckpointEngine`
``torchsnapshot``       :class:`TorchSnapshotCheckpointEngine`
``datastates``          :class:`DataStatesCheckpointEngine`
======================  ==========================================
"""

from .async_engine import AsyncCheckpointEngine
from .base_engine import CheckpointEngine, CheckpointHandle
from .consolidation import TwoPhaseCommitCoordinator
from .engine import DataStatesCheckpointEngine
from .flush_pipeline import FlushPipeline, FlushResult, ShardFlushJob
from .lazy_snapshot import CopyStream, SnapshotJob, StagedExtent
from .registry import (
    ENGINE_ALIASES,
    ENGINE_LABELS,
    ENGINE_NAMES,
    available_real_engines,
    canonical_engine_name,
    create_real_engine,
    register_real_engine,
    resolve_real_engine_class,
)
from .sync_engine import SynchronousCheckpointEngine
from .torchsnapshot_engine import TorchSnapshotCheckpointEngine

__all__ = [
    "CheckpointEngine",
    "DataStatesCheckpointEngine",
    "SynchronousCheckpointEngine",
    "AsyncCheckpointEngine",
    "TorchSnapshotCheckpointEngine",
    "CheckpointHandle",
    "TwoPhaseCommitCoordinator",
    "FlushPipeline",
    "FlushResult",
    "ShardFlushJob",
    "CopyStream",
    "SnapshotJob",
    "StagedExtent",
    "ENGINE_NAMES",
    "ENGINE_ALIASES",
    "ENGINE_LABELS",
    "available_real_engines",
    "canonical_engine_name",
    "create_real_engine",
    "register_real_engine",
    "resolve_real_engine_class",
]
