"""Real-mode trainer: an actual NumPy transformer + Adam, checkpointed by any
engine implementing the :class:`~repro.core.CheckpointEngine` protocol.

This is the laptop-scale end-to-end demonstration of the system: every
iteration runs a real forward/backward pass, the checkpoint engine captures
the model and optimizer state (lazily overlapping the next iteration's
forward/backward for the DataStates engine), and the consistency gate
(``wait_for_snapshot``) is honoured right before ``optimizer.step()`` mutates
the state — exactly the integration contract of §5.2.  Training can be
resumed bit-exactly from any committed checkpoint, which the test suite
verifies for all four engines.

The engine can be passed as an instance or selected by registry name, over
any :class:`~repro.io.ShardStore` backend (a ``FileStore`` directory or an
``ObjectStore`` bucket)::

    trainer = RealTrainer(model, engine="datastates", store=FileStore(path))

mirroring how the paper's DeepSpeed integration selects engines via the
single ``checkpoint_engine`` config attribute.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union


from ..config import CheckpointPolicy
from ..core import CheckpointEngine, create_real_engine
from ..exceptions import ConfigurationError, RestartError
from ..io import ShardStore
from ..logging_utils import get_logger
from ..model import AdamConfig, AdamOptimizer, NumpyTransformerLM
from ..restart import CheckpointLoader, RestoreSpec
from .data import DataConfig, SyntheticTokenStream

logger = get_logger(__name__)


@dataclass
class TrainStepRecord:
    """Timing and loss of one real training iteration."""

    iteration: int
    loss: float
    compute_seconds: float
    checkpoint_block_seconds: float
    checkpointed: bool


@dataclass
class TrainingReport:
    """Summary of a real-mode training run."""

    steps: List[TrainStepRecord] = field(default_factory=list)
    checkpoints: List[str] = field(default_factory=list)

    @property
    def total_compute_seconds(self) -> float:
        """Sum of per-iteration compute time."""
        return sum(step.compute_seconds for step in self.steps)

    @property
    def total_checkpoint_block_seconds(self) -> float:
        """Sum of per-iteration time blocked by checkpointing."""
        return sum(step.checkpoint_block_seconds for step in self.steps)

    @property
    def blocked_seconds_per_iteration(self) -> float:
        """Mean training-visible checkpoint stall per iteration."""
        if not self.steps:
            return 0.0
        return self.total_checkpoint_block_seconds / len(self.steps)

    @property
    def median_blocked_seconds_per_iteration(self) -> float:
        """Median per-iteration checkpoint stall — the robust engine-comparison
        statistic: on small (single-CPU) hosts the background flush threads
        occasionally steal a scheduling quantum from the training thread, and
        those spikes say nothing about which engine blocks training."""
        if not self.steps:
            return 0.0
        return statistics.median(step.checkpoint_block_seconds for step in self.steps)

    @property
    def losses(self) -> List[float]:
        """Loss trajectory."""
        return [step.loss for step in self.steps]


class RealTrainer:
    """Trains a :class:`NumpyTransformerLM` under any checkpoint engine."""

    def __init__(
        self,
        model: NumpyTransformerLM,
        engine: Union[CheckpointEngine, str, None] = None,
        data: Optional[SyntheticTokenStream] = None,
        adam: Optional[AdamConfig] = None,
        micro_batch_size: int = 4,
        store: Optional[ShardStore] = None,
        policy: Optional[CheckpointPolicy] = None,
    ) -> None:
        if isinstance(engine, str):
            if store is None:
                raise ConfigurationError(
                    "selecting an engine by name needs a store: "
                    "RealTrainer(model, engine=\"datastates\", store=FileStore(path))"
                )
            engine = create_real_engine(engine, store, policy=policy)
            self.owns_engine = True
        else:
            self.owns_engine = False
        self.model = model
        self.engine = engine
        try:
            self.optimizer = AdamOptimizer(model.params, adam or AdamConfig(learning_rate=1e-3))
            self.data = data or SyntheticTokenStream(
                DataConfig(
                    vocab_size=model.config.vocab_size,
                    sequence_length=min(model.config.sequence_length, 32),
                    micro_batch_size=micro_batch_size,
                )
            )
        except BaseException:
            # Don't orphan the engine (and its background threads/pool) we
            # just created from a registry name.
            self.close()
            raise
        self.iteration = 0

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Shut down an engine this trainer created from a registry name."""
        if self.owns_engine and self.engine is not None:
            self.engine.shutdown()

    def __enter__(self) -> "RealTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- state dict --------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Everything needed to resume training bit-exactly."""
        return {
            "iteration": self.iteration,
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "data": self.data.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore trainer state from a checkpoint."""
        try:
            self.iteration = int(state["iteration"])
            self.model.load_state_dict(state["model"])  # type: ignore[arg-type]
            self.optimizer.load_state_dict(state["optimizer"])  # type: ignore[arg-type]
            self.data.load_state_dict(state["data"])  # type: ignore[arg-type]
        except KeyError as exc:
            raise RestartError(f"checkpoint state is missing field {exc}") from exc

    # -- training loop ---------------------------------------------------------------
    def train(self, iterations: int, checkpoint_interval: int = 0,
              tag_prefix: str = "ckpt") -> TrainingReport:
        """Run ``iterations`` steps, checkpointing every ``checkpoint_interval``.

        ``checkpoint_interval=0`` disables checkpointing.
        """
        report = TrainingReport()
        for _ in range(iterations):
            tokens, targets = self.data.next_batch()

            compute_start = time.perf_counter()
            _logits, loss, cache = self.model.forward(tokens, targets)
            grads = self.model.backward(cache)
            compute_seconds = time.perf_counter() - compute_start

            # Consistency gate: previous lazy snapshots must finish before the
            # optimizer mutates the parameters they reference.
            block_seconds = 0.0
            if self.engine is not None:
                gate_start = time.perf_counter()
                self.engine.wait_for_snapshot()
                block_seconds = time.perf_counter() - gate_start

            self.optimizer.step(grads)
            self.iteration += 1

            checkpointed = False
            if (
                self.engine is not None
                and checkpoint_interval > 0
                and self.iteration % checkpoint_interval == 0
            ):
                tag = f"{tag_prefix}-{self.iteration:06d}"
                request_start = time.perf_counter()
                self.engine.save(self.state_dict(), tag=tag, iteration=self.iteration)
                block_seconds += time.perf_counter() - request_start
                report.checkpoints.append(tag)
                checkpointed = True

            assert loss is not None
            report.steps.append(
                TrainStepRecord(
                    iteration=self.iteration,
                    loss=loss,
                    compute_seconds=compute_seconds,
                    checkpoint_block_seconds=block_seconds,
                    checkpointed=checkpointed,
                )
            )
        return report

    # -- restart ------------------------------------------------------------------------
    def resume_from(self, source: Union[CheckpointLoader, CheckpointEngine, None] = None,
                    tag: Optional[str] = None, rank: int = 0) -> str:
        """Restore the trainer from the latest (or a named) committed checkpoint.

        ``source`` may be a :class:`~repro.restart.CheckpointLoader`, any
        :class:`~repro.core.CheckpointEngine` (a loader over its store), or
        ``None`` to use this trainer's own engine.  "Latest" is the loader's:
        the highest iteration, then tag.
        """
        if source is None:
            source = self.engine
        if source is None:
            raise RestartError("no loader or engine to resume from")
        loader = CheckpointLoader(source.store) if isinstance(source, CheckpointEngine) else source
        if tag is None:
            info = loader.latest()
            if info is None:
                raise RestartError("no committed checkpoint to resume from")
            tag = info.tag
        state = loader.restore(RestoreSpec.of_rank(rank, tag=tag))
        self.load_state_dict(state)
        logger.info("resumed training from checkpoint %s at iteration %d", tag, self.iteration)
        return tag
