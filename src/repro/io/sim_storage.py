"""Simulated persistent storage tiers (node-local NVMe and the Lustre PFS).

The parallel file system is shared by every rank in the job: its aggregate
bandwidth (650 GB/s on Polaris) is a single fair-share link, while each
individual write stream is additionally capped by the per-stream throughput
a single client/OST pair sustains.  Metadata cost is charged per file, which
is what makes "many small shard files" progressively more expensive — the
effect the paper defers to future work but that TorchSnapshot's chunk-per-
file layout already exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import PlatformSpec
from ..simulator import Environment, Event, FairShareLink


@dataclass
class SimParallelFileSystem:
    """Shared Lustre-like parallel file system."""

    env: Environment
    link: FairShareLink
    per_stream_bandwidth: float
    file_latency: float
    files_written: int = 0
    bytes_written: float = 0.0

    def write(self, nbytes: float, stream_bandwidth: Optional[float] = None,
              new_file: bool = True, tag: Optional[str] = None) -> Event:
        """Write ``nbytes`` as one stream; returns the completion event.

        ``stream_bandwidth`` overrides the per-stream cap (the synchronous
        ``torch.save`` path is slower than a pinned streaming flush because it
        serializes on the CPU first).
        """
        cap = stream_bandwidth if stream_bandwidth is not None else self.per_stream_bandwidth
        self.bytes_written += nbytes
        if new_file:
            self.files_written += 1
            effective = nbytes + cap * self.file_latency  # metadata charged as extra bytes
        else:
            effective = nbytes
        return self.link.transfer(effective, cap=cap, tag=tag or "pfs-write")

    def read(self, nbytes: float, stream_bandwidth: Optional[float] = None,
             tag: Optional[str] = None) -> Event:
        """Read ``nbytes`` back (restart path)."""
        cap = stream_bandwidth if stream_bandwidth is not None else self.per_stream_bandwidth
        return self.link.transfer(nbytes, cap=cap, tag=tag or "pfs-read")


@dataclass
class SimNodeLocalStorage:
    """Node-local NVMe SSD (2 GB/s on Polaris)."""

    env: Environment
    link: FairShareLink
    bytes_written: float = 0.0

    def write(self, nbytes: float, tag: Optional[str] = None) -> Event:
        """Write ``nbytes`` to the node-local SSD."""
        self.bytes_written += nbytes
        return self.link.transfer(nbytes, tag=tag or "nvme-write")


@dataclass
class SimTierChainStorage:
    """Per-link drain-bandwidth model of an N-level tier chain.

    The simulated mirror of :class:`~repro.io.TierChain`: a write
    *commits* once level 0 absorbed it, then the same bytes are drained link
    by link (level 0 -> 1 -> ... -> N-1), each link contending on its own
    level's bandwidth model.  ``link_backlog_bytes[i]`` tracks how far level
    ``i+1`` lags level ``i`` — the loss-window structure the replay model
    consumes: a checkpoint is only as durable as the deepest level it has
    fully reached when its node dies.

    ``levels`` are bandwidth models exposing ``write(nbytes, tag=...) ->
    Event`` (:class:`SimNodeLocalStorage`, :class:`SimParallelFileSystem`,
    ...), shallowest first.
    """

    env: Environment
    levels: List[object]
    bytes_committed: float = 0.0
    bytes_drained: float = 0.0
    backlog_bytes: float = 0.0
    max_backlog_bytes: float = 0.0
    drains_completed: int = 0
    link_bytes_drained: List[float] = field(default_factory=list)
    link_backlog_bytes: List[float] = field(default_factory=list)
    _idle_waiters: List[Event] = field(default_factory=list)

    def __post_init__(self) -> None:
        from ..exceptions import ConfigurationError

        if len(self.levels) < 2:
            raise ConfigurationError(
                "SimTierChainStorage needs at least two levels")
        links = len(self.levels) - 1
        self.link_bytes_drained = [0.0] * links
        self.link_backlog_bytes = [0.0] * links

    def write(self, nbytes: float, tag: Optional[str] = None) -> Event:
        """Write ``nbytes``; the returned event fires at level-0 commit and
        the cascade of link drains proceeds asynchronously."""
        self.bytes_committed += nbytes
        self.backlog_bytes += nbytes
        self.max_backlog_bytes = max(self.max_backlog_bytes, self.backlog_bytes)
        for index in range(len(self.link_backlog_bytes)):
            self.link_backlog_bytes[index] += nbytes
        commit = self.levels[0].write(nbytes, tag=tag or "chain-commit")
        commit._add_callback(lambda _event: self._start_link(0, nbytes, tag))
        return commit

    def read(self, nbytes: float, level: int = 0,
             tag: Optional[str] = None) -> Event:
        """Nearest-level restore: read from the given level's model."""
        model = self.levels[level]
        if isinstance(model, SimParallelFileSystem):
            return model.read(nbytes, tag=tag or "chain-read")
        return model.link.transfer(nbytes, tag=tag or "chain-read")

    def drained(self) -> Event:
        """An event that fires once every link's backlog is empty."""
        event = Event(self.env)
        if self.backlog_bytes <= 0:
            event.succeed(self.metrics())
        else:
            self._idle_waiters.append(event)
        return event

    def metrics(self) -> Dict[str, float]:
        """Drain counters (mirrors :meth:`repro.io.TierChain.drain_metrics`)."""
        return {
            "bytes_committed": self.bytes_committed,
            "bytes_drained": self.bytes_drained,
            "backlog_bytes": self.backlog_bytes,
            "max_backlog_bytes": self.max_backlog_bytes,
            "drains_completed": self.drains_completed,
            "link_bytes_drained": list(self.link_bytes_drained),
            "link_backlog_bytes": list(self.link_backlog_bytes),
        }

    def _start_link(self, link: int, nbytes: float, tag: Optional[str]) -> None:
        done = self.levels[link + 1].write(
            nbytes, tag=f"drain{link}:{tag}" if tag else f"chain-drain{link}")
        done._add_callback(lambda _event: self._on_link_drained(link, nbytes))

    def _on_link_drained(self, link: int, nbytes: float) -> None:
        self.link_bytes_drained[link] += nbytes
        self.link_backlog_bytes[link] = max(
            0.0, self.link_backlog_bytes[link] - nbytes)
        if link + 1 < len(self.link_backlog_bytes):
            self._start_link(link + 1, nbytes, None)
            return
        # The deepest level absorbed the bytes: the checkpoint is fully
        # replicated down the chain.
        self.bytes_drained += nbytes
        self.backlog_bytes = max(0.0, self.backlog_bytes - nbytes)
        self.drains_completed += 1
        if self.backlog_bytes <= 0 and self._idle_waiters:
            waiters, self._idle_waiters = self._idle_waiters, []
            for event in waiters:
                event.succeed(self.metrics())


#: Default chunk-hashing (and restore-verify) throughput of the simulated
#: content-addressed layer — one CPU core streaming SHA-256.
DEFAULT_CAS_HASH_BANDWIDTH = 2.0 * 1024**3


@dataclass
class SimContentAddressedStorage:
    """Dedup model of the content-addressed store over any backing storage.

    The simulated mirror of :class:`~repro.io.CASStore`: every checkpoint's
    bytes are chunked and hashed (a CPU-bound pass at
    ``hash_bandwidth``), and ``dedup_fraction`` of them is already resident
    in the shared chunk pool — only the changed remainder is physically
    written to the backing model.  ``dedup_fraction=0`` models a cold pool
    (first full checkpoint); values near the measured real-engine dedup
    ratio model steady-state incremental checkpoints.  Restores read the
    full logical bytes back (every chunk must be reassembled) and pay the
    same per-byte verify pass the real store's hash check costs.
    """

    env: Environment
    backing: object  # SimTierChainStorage, SimParallelFileSystem, or NVMe model
    dedup_fraction: float = 0.0
    hash_bandwidth: float = DEFAULT_CAS_HASH_BANDWIDTH
    bytes_logical: float = 0.0
    bytes_written: float = 0.0
    bytes_deduped: float = 0.0

    def __post_init__(self) -> None:
        from ..exceptions import ConfigurationError

        if not 0.0 <= self.dedup_fraction <= 1.0:
            raise ConfigurationError(
                "SimContentAddressedStorage.dedup_fraction must be in [0, 1]")
        if self.hash_bandwidth <= 0:
            raise ConfigurationError(
                "SimContentAddressedStorage.hash_bandwidth must be positive")

    def write(self, nbytes: float, tag: Optional[str] = None) -> Event:
        """Write ``nbytes`` logical; only the non-deduped remainder hits the
        backing tier.  The returned event fires once the hash pass and the
        physical write both complete."""
        physical = nbytes * (1.0 - self.dedup_fraction)
        self.bytes_logical += nbytes
        self.bytes_written += physical
        self.bytes_deduped += nbytes - physical

        def run():
            if nbytes > 0:
                yield self.env.timeout(nbytes / self.hash_bandwidth)
            if physical > 0:
                yield self.backing.write(physical, tag=tag or "cas-write")

        return self.env.process(run(), name=tag or "cas-write")

    def read(self, nbytes: float, tag: Optional[str] = None, **kwargs) -> Event:
        """Restore ``nbytes``: the full logical payload is read back (chunk
        reassembly touches every chunk) and re-verified at hash speed."""
        def run():
            yield self.backing.read(nbytes, tag=tag or "cas-read", **kwargs)
            yield self.env.timeout(nbytes / self.hash_bandwidth)

        return self.env.process(run(), name=tag or "cas-read")

    def drained(self) -> Event:
        """Defers to the backing model's drain when it has one."""
        if callable(getattr(self.backing, "drained", None)):
            return self.backing.drained()
        event = Event(self.env)
        event.succeed(self.metrics())
        return event

    def metrics(self) -> Dict[str, float]:
        """Dedup counters (mirrors :meth:`repro.io.CASStore.dedup_metrics`)."""
        out = {
            "bytes_logical": self.bytes_logical,
            "bytes_written": self.bytes_written,
            "bytes_deduped": self.bytes_deduped,
            "dedup_ratio": (self.bytes_written / self.bytes_logical
                            if self.bytes_logical else 1.0),
        }
        if callable(getattr(self.backing, "metrics", None)):
            out.update({f"backing_{key}": value
                        for key, value in self.backing.metrics().items()})
        return out


def make_parallel_fs(env: Environment, platform: PlatformSpec) -> SimParallelFileSystem:
    """Create the shared PFS model from the platform spec."""
    link = FairShareLink(
        env,
        capacity=platform.pfs_aggregate_bandwidth,
        name="lustre",
        default_flow_cap=platform.pfs_per_stream_bandwidth,
    )
    return SimParallelFileSystem(
        env=env,
        link=link,
        per_stream_bandwidth=platform.pfs_per_stream_bandwidth,
        file_latency=platform.pfs_file_latency,
    )


def make_node_local_storage(env: Environment, platform: PlatformSpec, node_id: int) -> SimNodeLocalStorage:
    """Create one node's local NVMe model."""
    link = FairShareLink(
        env, capacity=platform.nvme_write_bandwidth, name=f"nvme-node{node_id}"
    )
    return SimNodeLocalStorage(env=env, link=link)


def make_tier_chain_storage(env: Environment, platform: PlatformSpec,
                            node_id: int,
                            shared_pfs: Optional[SimParallelFileSystem] = None,
                            object_bandwidth: Optional[float] = None
                            ) -> SimTierChainStorage:
    """Create one node's 3-level chain model: NVMe -> shared PFS -> object.

    The NVMe commit tier is calibrated from the
    :func:`repro.memory.tiers.default_hierarchy` descriptors; the deepest
    (object-store) tier is reached over the node's NIC, so its drain link is
    capped at ``object_bandwidth`` (default: the platform's NIC bandwidth).
    Multi-node simulations must share one PFS (``shared_pfs``, built once
    with :func:`make_parallel_fs`) so concurrent drains contend for its
    aggregate bandwidth.
    """
    from ..memory import TierKind, default_hierarchy

    hierarchy = default_hierarchy(platform, platform.host_memory // 8)
    nvme = hierarchy[TierKind.NODE_LOCAL_NVME]
    fast = SimNodeLocalStorage(
        env=env,
        link=FairShareLink(env, capacity=nvme.write_bandwidth,
                           name=f"chain-nvme-node{node_id}"),
    )
    middle = shared_pfs if shared_pfs is not None else make_parallel_fs(env, platform)
    deep = SimNodeLocalStorage(
        env=env,
        link=FairShareLink(env,
                           capacity=object_bandwidth or platform.nic_bandwidth,
                           name=f"chain-object-node{node_id}"),
    )
    return SimTierChainStorage(env=env, levels=[fast, middle, deep])


def make_cas_storage(env: Environment, platform: PlatformSpec, node_id: int,
                     dedup_fraction: float = 0.0,
                     hash_bandwidth: float = DEFAULT_CAS_HASH_BANDWIDTH,
                     shared_pfs: Optional[SimParallelFileSystem] = None,
                     backing: Optional[object] = None) -> SimContentAddressedStorage:
    """Create one node's content-addressed storage model.

    By default the chunk pool sits on the shared parallel file system (the
    deployment :class:`~repro.io.CASStore` over an object/PFS-backed inner
    store models); pass ``backing`` to layer dedup over any other storage
    model, e.g. :func:`make_tier_chain_storage` for a CAS-over-tiered stack.
    ``dedup_fraction`` is the steady-state fraction of each checkpoint's
    bytes already resident in the pool (0 = every checkpoint written full).
    """
    if backing is None:
        backing = shared_pfs if shared_pfs is not None else make_parallel_fs(env, platform)
    return SimContentAddressedStorage(env=env, backing=backing,
                                      dedup_fraction=dedup_fraction,
                                      hash_bandwidth=hash_bandwidth)
