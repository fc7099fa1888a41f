"""The typed restore request — one entry point for every restore shape.

A restore is described once by a :class:`RestoreSpec` and executed by
:meth:`CheckpointLoader.restore` (which ``engine.load`` routes through).

A spec names:

* **which checkpoint** — ``tag`` (``None`` selects the latest committed);
* **which slice of it** — exactly one of ``rank`` (one rank's reassembled
  state), ``shard`` (one logical shard / shard-set group by name), or
  ``all_ranks`` (every rank, as a ``{rank: state}`` dict); leaving all three
  unset means "the caller's default shard" for an engine and "all ranks" for
  a bare loader;
* **the target topology** — ``target_topology`` requests an elastic
  (reshaping) restore onto that (DP, PP, TP) grid: ``rank`` then names a rank
  of the *target* grid, and only the source ranks its slices are made of
  (per the manifest's schema-v4 topology block) are read;
* **how to execute it** — ``validate`` (per-shard size/CRC32 checks),
  ``materialize`` / ``use_mmap`` / ``prefetch_depth`` override the loader's
  defaults when set.

Specs are frozen dataclasses: build variants with the classmethod
constructors (:meth:`RestoreSpec.of_rank`, :meth:`RestoreSpec.of_shard`,
:meth:`RestoreSpec.full`) or :meth:`RestoreSpec.reshaped`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..exceptions import RestartError
from ..serialization import CheckpointTopology


@dataclass(frozen=True)
class RestoreSpec:
    """One restore request: checkpoint + selector + options."""

    #: Checkpoint tag; ``None`` selects the latest committed checkpoint.
    tag: Optional[str] = None
    #: Restore one rank's reassembled state (mutually exclusive with
    #: ``shard`` / ``all_ranks``).
    rank: Optional[int] = None
    #: Restore one logical shard (a shard file's name or a shard-set's group
    #: name, e.g. ``rank0``).
    shard: Optional[str] = None
    #: Restore every rank's state as a ``{rank: state}`` dict.
    all_ranks: bool = False
    #: Reshaping restore: remap the checkpoint onto this (DP, PP, TP) grid
    #: before applying the selector.  Requires the checkpoint to carry a
    #: save-time topology block with a per-tensor partition table.
    target_topology: Optional[CheckpointTopology] = None
    #: Verify each shard's size + CRC32 against the manifest while loading.
    validate: bool = True
    #: Override the loader's ``materialize`` default (copy arrays out of the
    #: mmap vs. hand back zero-copy views) when not ``None``.
    materialize: Optional[bool] = None
    #: Override the loader's mmap-vs-read default when not ``None``.
    use_mmap: Optional[bool] = None
    #: Override the loader's prefetch depth (bounded fetch+CRC workers
    #: running ahead of deserialization) when not ``None``.
    prefetch_depth: Optional[int] = None

    def __post_init__(self) -> None:
        selectors = sum((self.rank is not None, self.shard is not None,
                         bool(self.all_ranks)))
        if selectors > 1:
            raise RestartError(
                "RestoreSpec takes at most one selector: rank, shard, or "
                f"all_ranks (got rank={self.rank!r}, shard={self.shard!r}, "
                f"all_ranks={self.all_ranks!r})")
        if self.rank is not None and self.rank < 0:
            raise RestartError(f"rank must be >= 0 (got {self.rank})")
        if self.prefetch_depth is not None and self.prefetch_depth < 0:
            raise RestartError(
                f"prefetch_depth must be >= 0 (got {self.prefetch_depth})")
        if self.target_topology is not None and self.shard is not None:
            raise RestartError(
                "a reshaping restore addresses ranks of the *target* "
                "topology, not shard names of the source layout; select "
                "with rank=... or all_ranks=True")

    # -- constructors ------------------------------------------------------
    @classmethod
    def latest(cls, **options) -> "RestoreSpec":
        """The latest committed checkpoint (default selector)."""
        return cls(**options)

    @classmethod
    def of_rank(cls, rank: int, tag: Optional[str] = None, **options) -> "RestoreSpec":
        """One rank's reassembled state."""
        return cls(tag=tag, rank=rank, **options)

    @classmethod
    def of_shard(cls, shard: str, tag: Optional[str] = None, **options) -> "RestoreSpec":
        """One logical shard (or shard-set group) by name."""
        return cls(tag=tag, shard=shard, **options)

    @classmethod
    def full(cls, tag: Optional[str] = None, **options) -> "RestoreSpec":
        """Every rank's state, keyed by rank."""
        return cls(tag=tag, all_ranks=True, **options)

    # -- derivation --------------------------------------------------------
    def reshaped(self, target: CheckpointTopology) -> "RestoreSpec":
        """This spec, restored into a different parallel topology."""
        return dataclasses.replace(self, target_topology=target)

    def with_tag(self, tag: str) -> "RestoreSpec":
        """This spec pinned to a concrete checkpoint tag."""
        return dataclasses.replace(self, tag=tag)

    @property
    def selects_everything(self) -> bool:
        """True when no rank/shard/all_ranks selector was given."""
        return self.rank is None and self.shard is None and not self.all_ranks
