"""Global configuration objects.

Two kinds of configuration live here:

* :class:`PlatformSpec` — hardware constants of the training platform used by
  the discrete-event simulation (bandwidths, latencies, per-node GPU counts).
  ``PlatformSpec.polaris()`` is calibrated against the platform description in
  §6.1 of the paper and against the baseline (DeepSpeed synchronous
  checkpointing) behaviour reported in Figures 7, 8, 11 and 12.

* :class:`CheckpointPolicy` — the save-side knobs shared by the real and the
  simulated checkpoint engines (host buffer capacity, flush parallelism,
  shard layout, incremental saves).  Restore options are per call, on
  :class:`~repro.restart.RestoreSpec`.  The simulator's ablation switches are
  not here either: they are constructor keywords of
  :class:`~repro.checkpoint.DataStatesEngine`, the one engine that reads them.

Keeping every calibration constant in one documented place makes the
"paper value -> simulated value" mapping auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .exceptions import ConfigurationError
from .units import GB, gbps


@dataclass(frozen=True)
class PlatformSpec:
    """Hardware description of one training platform.

    All bandwidths are bytes/second, capacities bytes, latencies seconds.
    """

    name: str
    gpus_per_node: int
    gpu_memory: int
    host_memory: int

    # --- device <-> host path (per GPU; Polaris maps one GPU per NUMA domain
    # so concurrent D2H copies from different GPUs do not contend, §6.1).
    d2h_pinned_bandwidth: float
    d2h_pageable_bandwidth: float
    d2d_bandwidth: float
    nvlink_bandwidth: float

    # --- host memory management costs.
    #: Cost of allocating + page-locking host memory, per byte.  Dominates the
    #: "Asynchronous checkpointing" baseline (CheckFreq/AsyncCheckpointIO)
    #: which allocates a fresh buffer per shard (§5.1, Figure 12c discussion).
    host_alloc_pin_seconds_per_byte: float
    #: Fixed overhead per host allocation call.
    host_alloc_latency: float

    # --- persistent storage.
    nvme_write_bandwidth: float
    #: Sustained write throughput of a single file stream to the PFS.
    pfs_per_stream_bandwidth: float
    #: Aggregate PFS bandwidth (Lustre: 160 OSTs, 650 GB/s on Polaris).
    pfs_aggregate_bandwidth: float
    #: Per-file metadata/open/close cost on the PFS.
    pfs_file_latency: float
    #: Effective per-stream write throughput of the synchronous
    #: ``torch.save``-style path (single-threaded serialization + pageable
    #: staging); calibrated from the paper's DeepSpeed baseline, which
    #: achieves ~1 GB/s per rank (Figures 7, 11a, 12a).
    sync_serialize_bandwidth: float

    # --- node-level network (used by consolidation / consensus messages).
    nic_bandwidth: float
    network_latency: float

    def __post_init__(self) -> None:
        positive_fields = [
            "gpus_per_node",
            "gpu_memory",
            "host_memory",
            "d2h_pinned_bandwidth",
            "d2h_pageable_bandwidth",
            "d2d_bandwidth",
            "nvlink_bandwidth",
            "nvme_write_bandwidth",
            "pfs_per_stream_bandwidth",
            "pfs_aggregate_bandwidth",
            "sync_serialize_bandwidth",
            "nic_bandwidth",
        ]
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"PlatformSpec.{name} must be positive")
        non_negative_fields = [
            "host_alloc_pin_seconds_per_byte",
            "host_alloc_latency",
            "pfs_file_latency",
            "network_latency",
        ]
        for name in non_negative_fields:
            if getattr(self, name) < 0:
                raise ConfigurationError(f"PlatformSpec.{name} must be >= 0")

    @staticmethod
    def polaris() -> "PlatformSpec":
        """ALCF Polaris node as described in §6.1 of the paper.

        * 4x A100-40GB per node, 512 GB DDR4 host memory.
        * pinned D2H 25 GB/s, D2D 85 GB/s, NVLink 600 GB/s.
        * two 1.6 TB node-local SSDs at 2 GB/s.
        * Lustre with 650 GB/s aggregate bandwidth.

        Per-stream PFS write throughput and the synchronous serialization
        throughput are not published directly; they are calibrated so the
        DeepSpeed-synchronous baseline reproduces the blocking times implied
        by Figures 7/8/11/12 (roughly 1 GB/s per rank blocking throughput for
        the sync engine and ~2.2 GB/s for a pinned streaming flush).
        """
        return PlatformSpec(
            name="polaris",
            gpus_per_node=4,
            gpu_memory=40 * GB,
            host_memory=512 * GB,
            d2h_pinned_bandwidth=gbps(25.0),
            d2h_pageable_bandwidth=gbps(6.0),
            d2d_bandwidth=gbps(85.0),
            nvlink_bandwidth=gbps(600.0),
            host_alloc_pin_seconds_per_byte=0.45 / gbps(1.0),
            host_alloc_latency=0.010,
            nvme_write_bandwidth=gbps(2.0),
            pfs_per_stream_bandwidth=gbps(2.2),
            pfs_aggregate_bandwidth=gbps(650.0),
            pfs_file_latency=0.015,
            sync_serialize_bandwidth=gbps(1.05),
            nic_bandwidth=gbps(25.0),
            network_latency=20e-6,
        )

    def with_overrides(self, **kwargs: object) -> "PlatformSpec":
        """Return a copy of this spec with selected fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CheckpointPolicy:
    """User-facing checkpoint engine configuration.

    Mirrors the single configuration attribute the paper exposes through the
    DeepSpeed config file (host buffer size, §5.2), plus the flush
    parallelism, the shard layout and incremental saves.  The real and the
    simulated engines share it.  How a save is cut into writes follows the
    store (an offset-addressed writer when it offers one), and how a restore
    reads is chosen per call through :class:`~repro.restart.RestoreSpec`.
    """

    #: Host memory reserved per process for buffering checkpoints.  The
    #: paper's evaluation grants every engine up to 64 GB per node
    #: (16 GB per rank with 4 ranks per node).
    host_buffer_size: int = 16 * GB
    #: Number of parallel host-to-storage flush threads (TorchSnapshot uses
    #: 4 in the paper's configuration; DataStates uses a single streaming
    #: flush thread per rank).
    flush_threads: int = 1
    #: Multi-shard-per-rank layout: how many shard files one rank's state is
    #: spread across (greedy size-balanced binning).  ``1`` is the original
    #: single-shard layout, byte-identical to earlier releases.  Raising it
    #: lets the flush side drive several file streams (and several OSTs of a
    #: striped PFS) concurrently and unlocks per-shard capture/flush overlap.
    shards_per_rank: int = 1
    #: Incremental checkpoints (CAS store): before writing, compare each
    #: shard part's per-tensor CRC32s (and the folded whole-part checksum)
    #: against the previous committed manifest and record unchanged parts as
    #: chunk references instead of re-uploading them.  Only effective on a
    #: store exposing ``record_shard_reference`` (see
    #: :class:`repro.io.CASStore`); ignored elsewhere.  The dirty scan runs
    #: where the engine reads a part's tensors: inside ``save`` for engines
    #: that capture there, on the copy thread (behind the gate) for lazy ones.
    incremental: bool = False

    def __post_init__(self) -> None:
        if self.host_buffer_size <= 0:
            raise ConfigurationError("host_buffer_size must be positive")
        if self.flush_threads <= 0:
            raise ConfigurationError("flush_threads must be positive")
        if self.shards_per_rank <= 0:
            raise ConfigurationError("shards_per_rank must be positive")

    def with_overrides(self, **kwargs: object) -> "CheckpointPolicy":
        """Return a copy of this policy with selected fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RunConfig:
    """Top-level description of one simulated training-plus-checkpointing run."""

    iterations: int = 5
    checkpoint_interval: int = 1
    #: Host memory budget per rank for checkpoint staging.  §6.3 allows each
    #: approach "up to a maximum of 64 GB of host memory" per process; with
    #: four ranks per node and 512 GB of DDR4 that leaves ample room for the
    #: prefetched micro-batches, matching the Gemini observation cited in
    #: §3.4.
    host_buffer_per_rank: int = 64 * 10**9
    #: Seconds of warmup compute before the first iteration (ignored in
    #: throughput accounting, mirrors the paper discarding the first step).
    warmup_iterations: int = 0

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if self.checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint_interval must be positive")
        if self.host_buffer_per_rank <= 0:
            raise ConfigurationError("host_buffer_per_rank must be positive")
        if self.warmup_iterations < 0:
            raise ConfigurationError("warmup_iterations must be >= 0")


DEFAULT_PLATFORM: PlatformSpec = PlatformSpec.polaris()
