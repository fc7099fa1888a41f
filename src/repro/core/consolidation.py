"""Asynchronous distributed consolidation (two-phase commit) — real mode.

A checkpoint is only valid once *every* rank has durably persisted all of its
shards.  In the original system each rank enters a consensus protocol
asynchronously after its flushes complete, so the agreement overlaps with
training (§5.1).  Here the coordinator is an in-process object shared by all
rank engines (ranks are threads in the real-mode harness); the protocol and
its observable guarantees are the same:

* phase 1 (*vote*): a rank reports the shard records it has persisted;
* phase 2 (*commit*): once all ``world_size`` votes for a tag have arrived,
  the coordinator validates completeness and atomically publishes the
  manifest — the single piece of state whose existence defines "this
  checkpoint is restorable".

The interface is deliberately message-shaped (votes carry only picklable
records) so a multi-process/MPI transport could replace the in-process
implementation without touching the engine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..exceptions import ConsistencyError
from ..io import ShardStore
from ..logging_utils import get_logger
from ..serialization import CheckpointManifest, CheckpointTopology, ShardRecord

logger = get_logger(__name__)


@dataclass
class _PendingCommit:
    """Votes collected so far for one checkpoint tag."""

    iteration: int
    votes: Dict[int, List[ShardRecord]] = field(default_factory=dict)
    committed: threading.Event = field(default_factory=threading.Event)
    failed: Optional[str] = None


class TwoPhaseCommitCoordinator:
    """Collects per-rank votes and publishes the manifest when all have arrived."""

    def __init__(self, world_size: int, store: ShardStore,
                 topology: Optional[CheckpointTopology] = None) -> None:
        if world_size <= 0:
            raise ConsistencyError("world_size must be positive")
        if topology is not None and topology.world_size != world_size:
            raise ConsistencyError(
                f"topology {topology.describe()} spans {topology.world_size} "
                f"ranks but the coordinator's world size is {world_size}")
        self.world_size = world_size
        self.store = store
        #: Save-time parallel layout stamped into every manifest this
        #: coordinator publishes (manifest schema v4); ``None`` keeps the
        #: earlier, topology-less manifests byte-identical.
        self.topology = topology
        self._lock = threading.Lock()
        self._pending: Dict[str, _PendingCommit] = {}

    # -- phase 1: votes ------------------------------------------------------
    def vote(self, tag: str, rank: int, records: List[ShardRecord], iteration: int = -1) -> None:
        """Rank ``rank`` reports that all of its shards for ``tag`` are persistent."""
        if not (0 <= rank < self.world_size):
            raise ConsistencyError(f"rank {rank} outside world of size {self.world_size}")
        with self._lock:
            pending = self._pending.setdefault(tag, _PendingCommit(iteration=iteration))
            if rank in pending.votes:
                raise ConsistencyError(f"rank {rank} voted twice for checkpoint {tag!r}")
            pending.votes[rank] = list(records)
            if iteration >= 0:
                pending.iteration = iteration
            ready = len(pending.votes) == self.world_size
        if ready:
            self._commit(tag)

    def fail(self, tag: str, rank: int, reason: str) -> None:
        """Mark a checkpoint as failed (a rank could not persist its shards)."""
        with self._lock:
            pending = self._pending.setdefault(tag, _PendingCommit(iteration=-1))
            pending.failed = f"rank {rank}: {reason}"
            pending.committed.set()

    # -- phase 2: commit ---------------------------------------------------------
    def _commit(self, tag: str) -> None:
        with self._lock:
            pending = self._pending[tag]
            if pending.failed is not None or pending.committed.is_set():
                return
            manifest = CheckpointManifest(
                tag=tag, world_size=self.world_size, iteration=pending.iteration,
                topology=self.topology,
            )
            for rank in sorted(pending.votes):
                for record in pending.votes[rank]:
                    manifest.add_shard(record)
            try:
                manifest.validate_complete()
                self.store.write_manifest(tag, manifest.to_json())
            except Exception as exc:  # noqa: BLE001 - surfaced via wait_committed
                pending.failed = str(exc)
                pending.committed.set()
                logger.error("commit of checkpoint %s failed: %s", tag, exc)
                return
            pending.committed.set()
            logger.info("checkpoint %s committed (%d shards, %d bytes)",
                        tag, len(manifest.shards), manifest.total_bytes)

    # -- queries -----------------------------------------------------------------------
    def wait_committed(self, tag: str, timeout: Optional[float] = None) -> bool:
        """Block until ``tag`` commits (or fails); returns commit success."""
        with self._lock:
            pending = self._pending.get(tag)
        if pending is None:
            raise ConsistencyError(f"no votes have been cast for checkpoint {tag!r}")
        finished = pending.committed.wait(timeout=timeout)
        if not finished:
            return False
        if pending.failed is not None:
            raise ConsistencyError(f"checkpoint {tag!r} failed to commit: {pending.failed}")
        return True
