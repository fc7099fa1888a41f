"""Common interface of the simulated checkpoint engines.

One engine instance manages *all* ranks of a run (mirroring the fact that a
checkpoint is a collective operation).  The training runtime drives it
through four generator hooks, called from each rank's training process:

``on_checkpoint(rank, iteration)``
    Called right after the optimizer update of an iteration on which a
    checkpoint was requested.  Whatever simulated time elapses inside this
    hook is time the training is blocked by checkpointing.

``before_update(rank, iteration)``
    Called right before the optimizer update of every iteration.  Lazy
    engines use it to wait for any snapshot copies that have not finished
    yet (consistency gate of §5.1).

``finalize(rank)``
    Called once after the last iteration; must wait for every outstanding
    flush and for the commit protocol, because the end-to-end runtime the
    paper reports includes "the pending flushes towards the end of training".

``reset()``
    Drop per-run state so an engine object can be reused across runs.

Engines record their activity in a :class:`~repro.simulator.TraceRecorder`
under the span categories ``ckpt_block`` (training-visible stall), ``d2h``
(device-to-host copies), ``flush`` (host-to-storage writes), and ``commit``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..cluster import SimCluster, SimGPU
from ..config import CheckpointPolicy, PlatformSpec
from ..exceptions import CheckpointError
from ..parallelism import CheckpointPlan, RankCheckpointPlan
from ..simulator import Environment, Event, TraceRecorder
from ..simulator.sync import SimHostBuffer


@dataclass
class RankState:
    """Per-rank bookkeeping shared by all engines."""

    rank: int
    gpu: SimGPU
    plan: RankCheckpointPlan
    host_buffer: Optional[SimHostBuffer] = None
    #: Event that fires when the most recent snapshot's D2H copies are done.
    snapshot_done: Optional[Event] = None
    #: Events of flushes not yet known to have completed.
    outstanding_flushes: List[Event] = field(default_factory=list)
    #: Completion event of the most recently enqueued flush on this rank's
    #: single flush stream (used to serialize host-to-storage writes).
    flush_chain: Optional[Event] = None
    #: Number of checkpoints this rank has initiated.
    checkpoints_started: int = 0


class SimCheckpointEngine(abc.ABC):
    """Base class of the four compared checkpointing approaches."""

    #: Human-readable engine name (used in reports and figure legends).
    name: str = "base"

    def __init__(
        self,
        env: Environment,
        cluster: SimCluster,
        plan: CheckpointPlan,
        policy: CheckpointPolicy,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.plan = plan
        self.policy = policy
        self.platform: PlatformSpec = cluster.platform
        self.trace = trace if trace is not None else TraceRecorder()
        self.ranks: Dict[int, RankState] = {}
        world = plan.topology.world_size
        if world > cluster.num_gpus:
            raise CheckpointError(
                f"plan needs {world} GPUs but the cluster only has {cluster.num_gpus}"
            )
        for rank in range(world):
            self.ranks[rank] = self._make_rank_state(rank)

    # -- construction helpers ------------------------------------------------
    def _make_rank_state(self, rank: int) -> RankState:
        state = RankState(
            rank=rank,
            gpu=self.cluster.gpu(rank),
            plan=self.plan.rank_plan(rank),
        )
        state.host_buffer = SimHostBuffer(
            self.env, self.policy.host_buffer_size, name=f"host-buffer-r{rank}"
        )
        return state

    def rank_state(self, rank: int) -> RankState:
        """Bookkeeping of one rank."""
        return self.ranks[rank]

    # -- hooks driven by the training runtime ------------------------------------
    @abc.abstractmethod
    def on_checkpoint(self, rank: int, iteration: int) -> Generator:
        """Blocking portion of a checkpoint request (generator)."""

    def before_update(self, rank: int, iteration: int) -> Generator:
        """Consistency gate before the optimizer update (default: no wait)."""
        return
        yield  # pragma: no cover - makes this a generator

    def finalize(self, rank: int) -> Generator:
        """Wait for every outstanding flush of this rank."""
        state = self.ranks[rank]
        pending = [event for event in state.outstanding_flushes if not event.processed]
        if pending:
            yield self.env.all_of(pending)
        state.outstanding_flushes.clear()

    def reset(self) -> None:
        """Drop per-run state (outstanding flushes, snapshot events)."""
        for state in self.ranks.values():
            state.snapshot_done = None
            state.outstanding_flushes.clear()
            state.flush_chain = None
            state.checkpoints_started = 0
            state.host_buffer = SimHostBuffer(
                self.env, self.policy.host_buffer_size, name=f"host-buffer-r{state.rank}"
            )

    # -- shared helpers -----------------------------------------------------------
    def _record(self, rank: int, category: str, start: float, end: float, label: str = "") -> None:
        self.trace.record_span(f"rank{rank}", category, start, end, label)

    def describe(self) -> Dict[str, object]:
        """Engine description used by reports."""
        return {
            "engine": self.name,
            "world_size": self.plan.topology.world_size,
            "host_buffer_bytes": self.policy.host_buffer_size,
            "checkpoint_bytes": self.plan.total_bytes,
        }
