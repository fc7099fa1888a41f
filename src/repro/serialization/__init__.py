"""Checkpoint shard serialization: headers/offsets, streaming writer, reader, manifests."""

from .header import (
    MAGIC,
    ShardHeader,
    TensorEntry,
    build_header,
    decode_preamble,
    encode_preamble,
    plan_extents,
)
from .checksum import CRC32_KERNEL, checksum_stream, crc32, crc32_combine, fold_section_checksums
from .manifest import (
    MANIFEST_VERSION,
    CheckpointManifest,
    CheckpointTopology,
    ShardRecord,
    TensorLayout,
)
from .payload import MAX_EXTENT_BYTES, tensor_bytes
from .reader import decode_rank_state, deserialize_state
from .shard_plan import (
    ShardPart,
    ShardPlan,
    iter_part_payloads,
    part_shard_name,
    plan_shards,
    serialize_part,
)
from .writer import iter_shard_chunks, serialize_state

__all__ = [
    "CRC32_KERNEL",
    "crc32",
    "crc32_combine",
    "fold_section_checksums",
    "checksum_stream",
    "MAGIC",
    "MANIFEST_VERSION",
    "TensorEntry",
    "ShardHeader",
    "build_header",
    "encode_preamble",
    "plan_extents",
    "decode_preamble",
    "serialize_state",
    "iter_shard_chunks",
    "deserialize_state",
    "decode_rank_state",
    "CheckpointManifest",
    "CheckpointTopology",
    "TensorLayout",
    "ShardRecord",
    "ShardPart",
    "ShardPlan",
    "plan_shards",
    "part_shard_name",
    "serialize_part",
    "iter_part_payloads",
    "MAX_EXTENT_BYTES",
    "tensor_bytes",
]
