"""Simulated DeepSpeed/Megatron-style training runtime with checkpoint hooks.

One :class:`SimTrainingRun` executes ``iterations`` training steps of a Table
1 model configuration on a simulated Polaris-like cluster, invoking a
checkpoint engine every ``checkpoint_interval`` iterations, and returns a
:class:`RunResult` with exactly the metrics the paper's evaluation reports
(§6.3): checkpoint throughput perceived by the application, average iteration
duration while checkpointing, and end-to-end runtime including trailing
flushes.

Every rank is a coroutine process.  The optimizer update and the checkpoint
request are blocking collectives (barriers), so the slowest rank's stall is
charged to everyone — the behaviour the paper calls out explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..checkpoint import SimCheckpointEngine, create_engine
from ..cluster import SimCluster, cluster_for_gpus
from ..config import CheckpointPolicy, PlatformSpec, RunConfig
from ..exceptions import ConfigurationError
from ..model import IterationPhases, ModelRuntimeConfig, phases_for, runtime_config
from ..parallelism import CheckpointPlan, build_checkpoint_plan
from ..simulator import Barrier, Environment, TraceRecorder


@dataclass(frozen=True)
class IterationRecord:
    """Timing of one iteration on one rank."""

    rank: int
    iteration: int
    start: float
    end: float
    blocked_by_checkpoint: float
    had_checkpoint: bool

    @property
    def duration(self) -> float:
        """Wall-clock duration of the iteration."""
        return self.end - self.start


@dataclass
class RunResult:
    """Outcome of one simulated training-plus-checkpointing run."""

    engine: str
    model_name: str
    data_parallel: int
    world_size: int
    iterations: int
    checkpoint_interval: int
    checkpoints_taken: int
    aggregate_checkpoint_bytes: int
    checkpoint_bytes_per_rank: float
    end_to_end_seconds: float
    training_iteration_seconds: float
    avg_iteration_seconds_with_checkpoint: float
    avg_iteration_seconds: float
    per_checkpoint_blocked_seconds: List[float]
    checkpoint_throughput_bytes_per_second: float
    host_buffer_peak_bytes: int
    iteration_records: List[IterationRecord] = field(default_factory=list)
    trace: Optional[TraceRecorder] = None

    @property
    def checkpoint_throughput_gb_per_second(self) -> float:
        """Perceived checkpoint throughput in decimal GB/s (the figures' unit)."""
        return self.checkpoint_throughput_bytes_per_second / 1e9

    def summary(self) -> Dict[str, float]:
        """Flat summary dict used by reports and benchmarks."""
        return {
            "engine": self.engine,
            "model": self.model_name,
            "data_parallel": self.data_parallel,
            "world_size": self.world_size,
            "iterations": self.iterations,
            "checkpoint_interval": self.checkpoint_interval,
            "checkpoints": self.checkpoints_taken,
            "ckpt_size_gb": self.aggregate_checkpoint_bytes / 1e9,
            "ckpt_size_per_gpu_gb": self.checkpoint_bytes_per_rank / 1e9,
            "ckpt_throughput_gbps": self.checkpoint_throughput_gb_per_second,
            "iter_time_with_ckpt_s": self.avg_iteration_seconds_with_checkpoint,
            "training_iter_time_s": self.training_iteration_seconds,
            "end_to_end_s": self.end_to_end_seconds,
        }


class SimTrainingRun:
    """Drives one engine through a full simulated training run."""

    def __init__(
        self,
        runtime: ModelRuntimeConfig,
        engine_name: str,
        data_parallel: int = 1,
        run_config: Optional[RunConfig] = None,
        policy: Optional[CheckpointPolicy] = None,
        platform: Optional[PlatformSpec] = None,
        phases: Optional[IterationPhases] = None,
        engine_kwargs: Optional[dict] = None,
    ) -> None:
        self.runtime = runtime
        self.engine_name = engine_name
        self.data_parallel = int(data_parallel)
        if self.data_parallel <= 0:
            raise ConfigurationError("data_parallel must be positive")
        self.run_config = run_config or RunConfig()
        self.platform = platform or PlatformSpec.polaris()
        self.policy = policy or CheckpointPolicy(
            host_buffer_size=self.run_config.host_buffer_per_rank
        )
        self.phases = phases or phases_for(runtime.model.name)
        self.engine_kwargs = dict(engine_kwargs or {})

        self.env = Environment()
        self.trace = TraceRecorder()
        self.plan: CheckpointPlan = build_checkpoint_plan(runtime, data_parallel=self.data_parallel)
        world = self.plan.topology.world_size
        self.cluster: SimCluster = cluster_for_gpus(self.env, self.platform, world)
        self.engine: SimCheckpointEngine = create_engine(
            engine_name, self.env, self.cluster, self.plan, self.policy,
            trace=self.trace, **self.engine_kwargs,
        )
        self._update_barrier = Barrier(self.env, world, name="update")
        self._ckpt_barrier = Barrier(self.env, world, name="checkpoint")
        self._final_barrier = Barrier(self.env, world, name="finalize")

        num_ckpts = self._num_checkpoints()
        self._blocked: List[Dict[int, float]] = [dict() for _ in range(num_ckpts)]
        self._iteration_records: List[IterationRecord] = []
        self._rank_done: Dict[int, float] = {}

    # -- schedule helpers -----------------------------------------------------
    def _should_checkpoint(self, iteration: int) -> bool:
        return (iteration + 1) % self.run_config.checkpoint_interval == 0

    def _checkpoint_index(self, iteration: int) -> int:
        return (iteration + 1) // self.run_config.checkpoint_interval - 1

    def _num_checkpoints(self) -> int:
        return self.run_config.iterations // self.run_config.checkpoint_interval

    # -- execution ----------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the simulation and compute the run metrics."""
        world = self.plan.topology.world_size
        processes = [
            self.env.process(self._rank_process(rank), name=f"train-rank{rank}")
            for rank in range(world)
        ]
        self.env.run()
        for process in processes:
            if process.triggered and not process.ok:
                raise process.value
        return self._build_result()

    def _rank_process(self, rank: int) -> Generator:
        env = self.env
        phases = self.phases
        engine = self.engine
        last_ckpt_index: Optional[int] = None

        for iteration in range(self.run_config.iterations):
            iter_start = env.now
            blocked = 0.0

            yield env.timeout(phases.forward)
            yield env.timeout(phases.backward)

            # Consistency gate: lazy engines wait here for pending D2H copies.
            gate_start = env.now
            yield from engine.before_update(rank, iteration)
            gate_blocked = env.now - gate_start
            if gate_blocked > 0 and last_ckpt_index is not None:
                self._blocked[last_ckpt_index][rank] = (
                    self._blocked[last_ckpt_index].get(rank, 0.0) + gate_blocked
                )
            blocked += gate_blocked

            # The optimizer update is a collective across all ranks.
            yield self._update_barrier.wait()
            yield env.timeout(phases.update)

            had_checkpoint = self._should_checkpoint(iteration)
            if had_checkpoint:
                ckpt_index = self._checkpoint_index(iteration)
                request_start = env.now
                yield from engine.on_checkpoint(rank, iteration)
                yield self._ckpt_barrier.wait()
                ckpt_blocked = env.now - request_start
                self._blocked[ckpt_index][rank] = (
                    self._blocked[ckpt_index].get(rank, 0.0) + ckpt_blocked
                )
                blocked += ckpt_blocked
                last_ckpt_index = ckpt_index

            iter_end = env.now
            self.trace.record_span(f"rank{rank}", "iteration", iter_start, iter_end,
                                   f"iter{iteration}")
            self._iteration_records.append(
                IterationRecord(
                    rank=rank,
                    iteration=iteration,
                    start=iter_start,
                    end=iter_end,
                    blocked_by_checkpoint=blocked,
                    had_checkpoint=had_checkpoint,
                )
            )

        # Drain outstanding flushes; the end-to-end runtime includes them, but
        # they are not charged to any checkpoint's blocking time because the
        # training loop has already finished its last iteration (the paper's
        # perceived-throughput metric only counts stalls during training).
        yield from engine.finalize(rank)
        yield self._final_barrier.wait()
        self._rank_done[rank] = env.now

    # -- metrics ----------------------------------------------------------------------
    def _build_result(self) -> RunResult:
        world = self.plan.topology.world_size
        num_ckpts = self._num_checkpoints()
        per_ckpt_blocked = [
            max(block_map.values()) if block_map else 0.0 for block_map in self._blocked
        ]
        aggregate_bytes = self.plan.total_bytes
        total_blocked = sum(per_ckpt_blocked)
        if num_ckpts > 0:
            # A floor of one millisecond per checkpoint guards the division for
            # engines whose perceived stall rounds to zero in the flow model.
            effective_blocked = max(total_blocked, 1e-3 * num_ckpts)
            throughput = (num_ckpts * aggregate_bytes) / effective_blocked
        else:
            throughput = 0.0

        by_iteration: Dict[int, List[IterationRecord]] = {}
        for record in self._iteration_records:
            by_iteration.setdefault(record.iteration, []).append(record)
        iteration_durations = {
            iteration: max(r.duration for r in records)
            for iteration, records in by_iteration.items()
        }
        ckpt_iterations = [
            iteration for iteration, records in by_iteration.items()
            if any(r.had_checkpoint for r in records)
        ]
        if ckpt_iterations:
            avg_with_ckpt = sum(iteration_durations[i] for i in ckpt_iterations) / len(ckpt_iterations)
        else:
            avg_with_ckpt = self.phases.total
        avg_all = (
            sum(iteration_durations.values()) / len(iteration_durations)
            if iteration_durations else self.phases.total
        )
        peak_buffer = max(
            (state.host_buffer.peak_used for state in self.engine.ranks.values()
             if state.host_buffer is not None),
            default=0,
        )
        end_to_end = max(self._rank_done.values()) if self._rank_done else self.env.now

        return RunResult(
            engine=self.engine.name,
            model_name=self.runtime.model.name,
            data_parallel=self.data_parallel,
            world_size=world,
            iterations=self.run_config.iterations,
            checkpoint_interval=self.run_config.checkpoint_interval,
            checkpoints_taken=num_ckpts,
            aggregate_checkpoint_bytes=aggregate_bytes,
            checkpoint_bytes_per_rank=aggregate_bytes / world,
            end_to_end_seconds=end_to_end,
            training_iteration_seconds=self.phases.total,
            avg_iteration_seconds_with_checkpoint=avg_with_ckpt,
            avg_iteration_seconds=avg_all,
            per_checkpoint_blocked_seconds=per_ckpt_blocked,
            checkpoint_throughput_bytes_per_second=throughput,
            host_buffer_peak_bytes=peak_buffer,
            iteration_records=self._iteration_records,
            trace=self.trace,
        )


def simulate_run(
    model_size: str,
    engine_name: str,
    data_parallel: int = 1,
    iterations: int = 5,
    checkpoint_interval: int = 1,
    platform: Optional[PlatformSpec] = None,
    policy: Optional[CheckpointPolicy] = None,
    host_buffer_per_rank: Optional[int] = None,
    engine_kwargs: Optional[dict] = None,
) -> RunResult:
    """Convenience wrapper: simulate one Table 1 model with one engine.

    This is the main entry point the benchmarks and examples use, e.g.::

        result = simulate_run("13B", "datastates", iterations=5)
        print(result.checkpoint_throughput_gb_per_second)
    """
    runtime = runtime_config(model_size)
    run_config = RunConfig(
        iterations=iterations,
        checkpoint_interval=checkpoint_interval,
        host_buffer_per_rank=host_buffer_per_rank or RunConfig().host_buffer_per_rank,
    )
    run = SimTrainingRun(
        runtime=runtime,
        engine_name=engine_name,
        data_parallel=data_parallel,
        run_config=run_config,
        policy=policy,
        platform=platform,
        engine_kwargs=engine_kwargs,
    )
    return run.run()
