"""DataStates-LLM reproduction: lazy asynchronous checkpointing for LLM training.

The library has two halves that share one design:

* ``repro.core`` — a working checkpoint engine over real NumPy state
  (:class:`DataStatesCheckpointEngine`), together with the real-mode trainer
  in ``repro.training`` and the restart path in ``repro.restart``.

* ``repro.simulator`` / ``repro.checkpoint`` / ``repro.training.runtime`` — a
  discrete-event simulation of 3D-parallel LLM training on a Polaris-like
  cluster that reproduces the paper's evaluation (Figures 3-12) with the four
  compared engines.

Quickstart (real mode)::

    from repro import FileStore, create_real_engine
    from repro.model import NumpyTransformerLM, tiny_config
    from repro.training import RealTrainer

    store = FileStore("/tmp/ckpts")
    with create_real_engine("datastates", store) as engine:
        trainer = RealTrainer(NumpyTransformerLM(tiny_config()), engine=engine)
        trainer.train(iterations=5, checkpoint_interval=2)
        engine.wait_all()

Any of the four paper baselines plugs into the same protocol:
``create_real_engine(name, store)`` with name ``"deepspeed"``/``"sync"``,
``"async"``/``"checkfreq"``, ``"torchsnapshot"``, or ``"datastates"``.

Quickstart (simulation mode)::

    from repro.training import simulate_run
    result = simulate_run("13B", "datastates", iterations=5)
    print(result.checkpoint_throughput_gb_per_second)
"""

from .config import CheckpointPolicy, PlatformSpec, RunConfig
from .core import (
    AsyncCheckpointEngine,
    CheckpointEngine,
    DataStatesCheckpointEngine,
    SynchronousCheckpointEngine,
    TorchSnapshotCheckpointEngine,
    TwoPhaseCommitCoordinator,
    available_real_engines,
    create_real_engine,
    register_real_engine,
)
from .exceptions import (
    AllocationError,
    CapacityError,
    CheckpointError,
    ConfigurationError,
    ConsistencyError,
    ReproError,
    RestartError,
    SerializationError,
    ShardingError,
    SimulationError,
    TransferError,
)
from .io import (FileStore, ObjectStore, ShardStore, available_stores,
                 create_store, register_store)
from .restart import CheckpointInfo, CheckpointLoader
from .training import RealTrainer, SimTrainingRun, simulate_run

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "PlatformSpec",
    "CheckpointPolicy",
    "RunConfig",
    "CheckpointEngine",
    "DataStatesCheckpointEngine",
    "SynchronousCheckpointEngine",
    "AsyncCheckpointEngine",
    "TorchSnapshotCheckpointEngine",
    "TwoPhaseCommitCoordinator",
    "create_real_engine",
    "register_real_engine",
    "available_real_engines",
    "FileStore",
    "ObjectStore",
    "ShardStore",
    "create_store",
    "register_store",
    "available_stores",
    "CheckpointLoader",
    "CheckpointInfo",
    "RealTrainer",
    "SimTrainingRun",
    "simulate_run",
    "ReproError",
    "ConfigurationError",
    "CapacityError",
    "AllocationError",
    "CheckpointError",
    "ConsistencyError",
    "RestartError",
    "SerializationError",
    "SimulationError",
    "TransferError",
    "ShardingError",
]
