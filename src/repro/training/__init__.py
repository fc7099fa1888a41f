"""Training runtimes: the cluster-scale simulation and the real-mode trainer."""

from .data import DataConfig, SyntheticTokenStream
from .real_trainer import RealTrainer, TrainingReport, TrainStepRecord
from .runtime import IterationRecord, RunResult, SimTrainingRun, simulate_run

__all__ = [
    "DataConfig",
    "SyntheticTokenStream",
    "RealTrainer",
    "TrainingReport",
    "TrainStepRecord",
    "SimTrainingRun",
    "RunResult",
    "IterationRecord",
    "simulate_run",
]
