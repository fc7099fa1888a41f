"""Checkpoint manifests — the commit record of the consolidation protocol.

A checkpoint directory is only considered valid once a manifest exists.  The
manifest is written exactly once, after every rank has voted that all of its
shards are durably persisted (two-phase commit, §5.1), and lists every shard
with its size and checksum so the restart path can detect truncation or
corruption.

Schema versions
---------------
* **v1** — one (or more, independently named) shard files per rank; each
  record is ``{rank, name, nbytes, checksum[, tensor_checksums]}``.  Every
  record written now carries ``tensor_checksums``, one CRC32 per tensor that
  folds to ``checksum``; records of older releases may lack it.
* **v2** — adds the multi-shard-per-rank layout: records belonging to a
  shard-set additionally carry ``group`` (the logical per-rank shard name,
  e.g. ``rank0``), ``part_index``, and ``num_parts``, and the manifest top
  level carries ``"version": 2``.  The version key (and the per-record
  fields) are only written when a shard-set is actually present, so
  single-shard checkpoints remain byte-identical to v1 manifests, and v1
  manifests parse unchanged (records simply have no shard-set fields).
* **v3** — content-addressed storage: records written through the CAS
  backend (:class:`~repro.io.CASStore`) additionally carry ``chunks``, an
  ordered list of ``[hash, nbytes]`` pairs naming the content-addressed
  chunks whose concatenation is the shard's byte stream.  The field is only
  present for CAS checkpoints, so v1/v2 manifests stay byte-identical and
  parse unchanged; the mark-and-sweep garbage collector marks its chunk
  references from exactly these lists.
* **v4** — elastic restart: checkpoints saved with a declared parallel
  layout carry a top-level ``topology`` block
  (:class:`CheckpointTopology`): the (DP, PP, TP) grid the shards were
  written from, the ``shards_per_rank`` layout, the ZeRO stage, and — for
  elastic (reshapable) checkpoints — the per-tensor partition table
  ``[key, partition_axis, global_shape]`` that the reshaping restore path
  (:mod:`repro.restart.reshape`) uses to concat/split shards into a new
  topology.  The block is only written when a save declares its topology,
  so v1/v2/v3 manifests stay byte-identical and parse unchanged
  (``manifest.topology`` is simply ``None``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ConsistencyError

#: Current manifest schema version (v2/v3/v4 keys are written only when
#: shard-sets / chunk lists / a topology block are actually present).
MANIFEST_VERSION = 4


@dataclass(frozen=True)
class TensorLayout:
    """How one global tensor is partitioned across the tensor-parallel group.

    ``partition_axis`` is the concat/split dimension (the Megatron layer
    concat-dim table: 0 for column-parallel, 1 for row-parallel, ...);
    ``None`` marks a tensor replicated across TP ranks.  ``shape`` is the
    *global* (unsharded) shape, which the reshape path needs to recover the
    per-rank slice shapes at any topology.
    """

    key: str
    partition_axis: Optional[int]
    shape: Tuple[int, ...]

    def to_json(self) -> List:
        return [self.key, self.partition_axis, list(self.shape)]

    @staticmethod
    def from_json(data: Sequence) -> "TensorLayout":
        key, axis, shape = data
        return TensorLayout(
            key=str(key),
            partition_axis=None if axis is None else int(axis),
            shape=tuple(int(dim) for dim in shape),
        )


@dataclass(frozen=True)
class CheckpointTopology:
    """The save-time parallel layout of a checkpoint (manifest schema v4).

    Records the (data, pipeline, tensor)-parallel grid the shards were
    written from plus, for elastic checkpoints, the ordered per-tensor
    partition table.  The table's order is the canonical global tensor order
    (the layer order), which the pipeline-stage rebalancing of a reshaping
    restore partitions contiguously.
    """

    data_parallel: int
    pipeline_parallel: int = 1
    tensor_parallel: int = 1
    shards_per_rank: int = 1
    zero_stage: int = 1
    #: Per-tensor partition table, in canonical (layer) order; ``None`` for
    #: topology-stamped checkpoints that are not elastically reshapable.
    tensors: Optional[Tuple[TensorLayout, ...]] = None

    def __post_init__(self) -> None:
        if (self.data_parallel <= 0 or self.pipeline_parallel <= 0
                or self.tensor_parallel <= 0):
            raise ConsistencyError("all topology degrees must be positive")
        if self.shards_per_rank <= 0:
            raise ConsistencyError("shards_per_rank must be positive")

    @property
    def world_size(self) -> int:
        """Total ranks of the grid (DP x PP x TP)."""
        return self.data_parallel * self.pipeline_parallel * self.tensor_parallel

    @property
    def grid(self) -> Tuple[int, int, int]:
        """The (dp, pp, tp) triple."""
        return (self.data_parallel, self.pipeline_parallel, self.tensor_parallel)

    def describe(self) -> str:
        """Compact display form, e.g. ``dp4xpp1xtp2``."""
        return (f"dp{self.data_parallel}xpp{self.pipeline_parallel}"
                f"xtp{self.tensor_parallel}")

    def layout_table(self) -> Mapping[str, TensorLayout]:
        """The partition table keyed by tensor name (insertion-ordered)."""
        if self.tensors is None:
            raise ConsistencyError(
                "checkpoint topology carries no per-tensor partition table; "
                "only elastic checkpoints can be reshaped")
        return {layout.key: layout for layout in self.tensors}

    def to_json(self) -> Dict:
        payload: Dict[str, object] = {
            "data_parallel": self.data_parallel,
            "pipeline_parallel": self.pipeline_parallel,
            "tensor_parallel": self.tensor_parallel,
            "shards_per_rank": self.shards_per_rank,
            "zero_stage": self.zero_stage,
        }
        if self.tensors is not None:
            payload["tensors"] = [layout.to_json() for layout in self.tensors]
        return payload

    @staticmethod
    def from_json(data: Dict) -> "CheckpointTopology":
        tensors = data.get("tensors")
        return CheckpointTopology(
            data_parallel=int(data["data_parallel"]),
            pipeline_parallel=int(data.get("pipeline_parallel", 1)),
            tensor_parallel=int(data.get("tensor_parallel", 1)),
            shards_per_rank=int(data.get("shards_per_rank", 1)),
            zero_stage=int(data.get("zero_stage", 1)),
            tensors=None if tensors is None
            else tuple(TensorLayout.from_json(item) for item in tensors),
        )


@dataclass(frozen=True)
class ShardRecord:
    """One shard's entry in the manifest."""

    rank: int
    name: str
    nbytes: int
    checksum: Optional[int] = None
    #: Per-tensor payload CRC32s, ordered like the shard header's tensor
    #: table.  Every engine and sink records them; the whole-file ``checksum``
    #: above is folded from these, and the restart path can use them to
    #: pinpoint which tensor of a corrupt shard went bad.  ``None`` only in
    #: manifests written before every record carried them.
    tensor_checksums: Optional[Tuple[int, ...]] = None
    #: Logical shard-set this record belongs to (the rank's base shard name,
    #: e.g. ``rank0``) in the multi-shard-per-rank layout; ``None`` for
    #: standalone v1-style shards.
    group: Optional[str] = None
    #: Position of this shard within its set, and the set's size.
    part_index: Optional[int] = None
    num_parts: Optional[int] = None
    #: Content-addressed chunk list (schema v3): ordered ``(hash, nbytes)``
    #: pairs whose concatenation is this shard's byte stream.  ``None`` for
    #: whole-blob shards (every non-CAS backend).
    chunks: Optional[Tuple[Tuple[str, int], ...]] = None

    @property
    def in_shard_set(self) -> bool:
        """True when this record is one part of a multi-shard rank layout."""
        return self.group is not None and self.part_index is not None

    def to_json(self) -> Dict:
        """JSON-serialisable form."""
        payload = {"rank": self.rank, "name": self.name, "nbytes": self.nbytes, "checksum": self.checksum}
        if self.tensor_checksums is not None:
            payload["tensor_checksums"] = list(self.tensor_checksums)
        if self.group is not None:
            payload["group"] = self.group
        if self.part_index is not None:
            payload["part_index"] = self.part_index
        if self.num_parts is not None:
            payload["num_parts"] = self.num_parts
        if self.chunks is not None:
            payload["chunks"] = [[chunk_hash, int(nbytes)]
                                 for chunk_hash, nbytes in self.chunks]
        return payload

    @staticmethod
    def from_json(data: Dict) -> "ShardRecord":
        """Inverse of :meth:`to_json` (v1 records simply lack the set fields)."""
        tensor_checksums = data.get("tensor_checksums")
        chunks = data.get("chunks")
        return ShardRecord(
            rank=int(data["rank"]),
            name=str(data["name"]),
            nbytes=int(data["nbytes"]),
            checksum=None if data.get("checksum") is None else int(data["checksum"]),
            tensor_checksums=None if tensor_checksums is None
            else tuple(int(x) for x in tensor_checksums),
            group=None if data.get("group") is None else str(data["group"]),
            part_index=None if data.get("part_index") is None else int(data["part_index"]),
            num_parts=None if data.get("num_parts") is None else int(data["num_parts"]),
            chunks=None if chunks is None
            else tuple((str(chunk_hash), int(nbytes)) for chunk_hash, nbytes in chunks),
        )


@dataclass
class CheckpointManifest:
    """The global commit record of one checkpoint."""

    tag: str
    world_size: int
    iteration: int
    shards: List[ShardRecord] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)
    #: Save-time parallel layout (schema v4); ``None`` for checkpoints saved
    #: without a declared topology (every earlier release).
    topology: Optional[CheckpointTopology] = None

    def add_shard(self, record: ShardRecord) -> None:
        """Register one persisted shard."""
        self.shards.append(record)

    def shards_of_rank(self, rank: int) -> List[ShardRecord]:
        """Shards contributed by one rank."""
        return [record for record in self.shards if record.rank == rank]

    @property
    def version(self) -> int:
        """Schema version: 4 when a save-time topology block is present,
        else 3 once any record carries a content-addressed chunk list, else
        2 once any rank uses a multi-shard layout, else 1."""
        if self.topology is not None:
            return 4
        if any(r.chunks is not None for r in self.shards):
            return 3
        return 2 if any(r.in_shard_set for r in self.shards) else 1

    def shard_sets_of_rank(self, rank: int) -> Dict[str, List[ShardRecord]]:
        """One rank's shards keyed by logical shard-set, parts in order.

        Standalone (v1-style) records form singleton sets keyed by their file
        name; multi-shard records are grouped under their ``group`` name and
        sorted by ``part_index``.  The restore path validates that each set is
        complete before reassembling the rank's state from it.
        """
        sets: Dict[str, List[ShardRecord]] = {}
        for record in self.shards_of_rank(rank):
            sets.setdefault(record.group or record.name, []).append(record)
        for name, records in sets.items():
            records.sort(key=lambda r: (r.part_index if r.part_index is not None else 0, r.name))
            expected = records[0].num_parts
            if expected is not None:
                indices = [r.part_index for r in records]
                if len(records) != expected or indices != list(range(expected)):
                    raise ConsistencyError(
                        f"shard-set {name!r} of rank {rank} is incomplete: "
                        f"expected {expected} parts, found parts {indices}"
                    )
        return sets

    @property
    def total_bytes(self) -> int:
        """Aggregate checkpoint size recorded in the manifest."""
        return sum(record.nbytes for record in self.shards)

    def validate_complete(self) -> None:
        """Check that every rank contributed at least one shard."""
        ranks_present = {record.rank for record in self.shards}
        expected = set(range(self.world_size))
        missing = expected - ranks_present
        if missing:
            raise ConsistencyError(
                f"checkpoint {self.tag!r} is incomplete: missing shards from ranks {sorted(missing)}"
            )

    def to_json(self) -> Dict:
        """JSON-serialisable form written to ``manifest.json``.

        The ``version`` key is only emitted for v2+ manifests (shard-sets,
        chunk lists, or a topology block present), so single-shard
        checkpoints stay byte-identical to the manifests every earlier
        release wrote.
        """
        payload = {
            "tag": self.tag,
            "world_size": self.world_size,
            "iteration": self.iteration,
            "total_bytes": self.total_bytes,
            "shards": [record.to_json() for record in self.shards],
            "extra": dict(self.extra),
        }
        if self.topology is not None:
            payload["topology"] = self.topology.to_json()
        if self.version > 1:
            payload["version"] = self.version
        return payload

    @staticmethod
    def from_json(data: Dict) -> "CheckpointManifest":
        """Inverse of :meth:`to_json` (v1-v3 manifests simply lack the
        topology block)."""
        topology = data.get("topology")
        manifest = CheckpointManifest(
            tag=str(data["tag"]),
            world_size=int(data["world_size"]),
            iteration=int(data.get("iteration", -1)),
            extra=dict(data.get("extra", {})),
            topology=None if topology is None
            else CheckpointTopology.from_json(topology),
        )
        for item in data.get("shards", []):
            manifest.add_shard(ShardRecord.from_json(item))
        return manifest
