"""Checkpoint shard serialization: headers/offsets, streaming writer, reader, manifests."""

from .header import (
    MAGIC,
    ShardHeader,
    TensorEntry,
    build_header,
    decode_preamble,
    encode_preamble,
    plan_extents,
    preamble_size,
)
from .checksum import checksum_stream, crc32_combine, fold_section_checksums
from .manifest import (
    MANIFEST_VERSION,
    CheckpointManifest,
    CheckpointTopology,
    ShardRecord,
    TensorLayout,
    checksum_bytes,
)
from .reader import decode_rank_state, deserialize_rank_state, deserialize_state, peek_tensor_keys
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
    "preamble_size",
    "serialize_state",
    "iter_shard_chunks",
    "deserialize_state",
    "deserialize_rank_state",
    "decode_rank_state",
    "peek_tensor_keys",
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
    "checksum_bytes",
]
