"""Tests for shard headers, serialization round trips, and manifests."""

import numpy as np
import pytest

from repro.exceptions import ConsistencyError, SerializationError
from repro.serialization import (
    CheckpointManifest,
    CheckpointTopology,
    ShardHeader,
    ShardRecord,
    TensorEntry,
    TensorLayout,
    build_header,
    decode_preamble,
    deserialize_state,
    encode_preamble,
    iter_shard_chunks,
    serialize_state,
)
from repro.tensor import flatten_state_dict


def _state():
    return {
        "model": {"w": np.arange(12, dtype=np.float32).reshape(3, 4),
                  "b": np.linspace(0, 1, 5)},
        "optimizer": {"step": 3, "m": np.zeros((2, 2), dtype=np.float64)},
        "iteration": 9,
    }


# ---------------------------------------------------------------------------
# Header
# ---------------------------------------------------------------------------

def test_build_header_offsets_are_contiguous():
    flattened = flatten_state_dict(_state())
    header = build_header(flattened)
    offset = 0
    for entry in header.entries:
        assert entry.offset == offset
        offset += entry.nbytes
    assert header.payload_bytes == offset == flattened.total_tensor_bytes


def test_header_json_roundtrip():
    flattened = flatten_state_dict(_state())
    header = build_header(flattened)
    rebuilt = ShardHeader.from_bytes(header.to_bytes())
    assert rebuilt == header


def test_tensor_entry_json_roundtrip():
    entry = TensorEntry(key="a.b", dtype="float32", shape=(2, 3), offset=16, nbytes=24)
    assert TensorEntry.from_json(entry.to_json()) == entry


def test_preamble_roundtrip_and_size():
    flattened = flatten_state_dict(_state())
    header = build_header(flattened)
    skeleton = flattened.skeleton_bytes()
    raw = encode_preamble(header, skeleton)
    decoded_header, decoded_skeleton, payload_start = decode_preamble(raw + b"payload")
    assert decoded_header == header
    assert decoded_skeleton == skeleton
    assert payload_start == len(raw)


def test_decode_preamble_rejects_bad_magic():
    with pytest.raises(SerializationError):
        decode_preamble(b"NOTMAGIC" + b"\x00" * 32)


def test_decode_preamble_rejects_truncation():
    flattened = flatten_state_dict(_state())
    header = build_header(flattened)
    raw = encode_preamble(header, flattened.skeleton_bytes())
    with pytest.raises(SerializationError):
        decode_preamble(raw[: len(raw) // 2])


def test_corrupt_header_json_detected():
    flattened = flatten_state_dict({"a": np.zeros(2)})
    header = build_header(flattened)
    skeleton = flattened.skeleton_bytes()
    raw = bytearray(encode_preamble(header, skeleton))
    raw[20] ^= 0xFF  # corrupt a byte inside the header JSON
    with pytest.raises(SerializationError):
        decode_preamble(bytes(raw))


# ---------------------------------------------------------------------------
# Serialize / deserialize
# ---------------------------------------------------------------------------

def test_serialize_deserialize_roundtrip():
    state = _state()
    raw = serialize_state(state)
    rebuilt = deserialize_state(raw)
    assert rebuilt["iteration"] == 9
    assert rebuilt["optimizer"]["step"] == 3
    np.testing.assert_array_equal(rebuilt["model"]["w"], state["model"]["w"])
    np.testing.assert_array_equal(rebuilt["model"]["b"], state["model"]["b"])
    np.testing.assert_array_equal(rebuilt["optimizer"]["m"], state["optimizer"]["m"])


def test_deserialize_preserves_dtypes_and_shapes():
    state = {"a": np.zeros((3, 5), dtype=np.float16), "b": np.ones(7, dtype=np.int64)}
    rebuilt = deserialize_state(serialize_state(state))
    assert rebuilt["a"].dtype == np.float16 and rebuilt["a"].shape == (3, 5)
    assert rebuilt["b"].dtype == np.int64 and rebuilt["b"].shape == (7,)


def test_deserialize_truncated_payload_rejected():
    raw = serialize_state(_state())
    with pytest.raises(SerializationError):
        deserialize_state(raw[:-10])


def test_serialize_empty_state():
    raw = serialize_state({"meta": "only scalars", "n": 5})
    rebuilt = deserialize_state(raw)
    assert rebuilt == {"meta": "only scalars", "n": 5}


def test_iter_shard_chunks_matches_one_shot_serialization():
    state = _state()
    flattened = flatten_state_dict(state)
    header = build_header(flattened)
    skeleton = flattened.skeleton_bytes()
    views = []
    for ref in flattened.tensors:
        array = np.ascontiguousarray(ref.payload if isinstance(ref.payload, np.ndarray)
                                     else ref.payload.array)
        views.append(memoryview(array.tobytes()))
    streamed = b"".join(iter_shard_chunks(header, skeleton, views, chunk_size=16))
    assert streamed == serialize_state(state)


def test_iter_shard_chunks_validates_view_sizes():
    flattened = flatten_state_dict({"a": np.zeros(4, dtype=np.float32)})
    header = build_header(flattened)
    with pytest.raises(SerializationError):
        list(iter_shard_chunks(header, flattened.skeleton_bytes(), [memoryview(b"123")]))


def test_iter_shard_chunks_validates_view_count():
    flattened = flatten_state_dict({"a": np.zeros(4, dtype=np.float32)})
    header = build_header(flattened)
    with pytest.raises(SerializationError):
        list(iter_shard_chunks(header, flattened.skeleton_bytes(), []))


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def test_manifest_roundtrip():
    manifest = CheckpointManifest(tag="ckpt-1", world_size=2, iteration=5)
    manifest.add_shard(ShardRecord(rank=0, name="rank0", nbytes=100, checksum=123))
    manifest.add_shard(ShardRecord(rank=1, name="rank1", nbytes=200, checksum=None))
    rebuilt = CheckpointManifest.from_json(manifest.to_json())
    assert rebuilt.tag == "ckpt-1"
    assert rebuilt.world_size == 2
    assert rebuilt.iteration == 5
    assert rebuilt.total_bytes == 300
    assert rebuilt.shards_of_rank(1)[0].nbytes == 200


def test_manifest_validate_complete_detects_missing_rank():
    manifest = CheckpointManifest(tag="x", world_size=3, iteration=0)
    manifest.add_shard(ShardRecord(rank=0, name="rank0", nbytes=1))
    manifest.add_shard(ShardRecord(rank=2, name="rank2", nbytes=1))
    with pytest.raises(ConsistencyError):
        manifest.validate_complete()


def test_manifest_validate_complete_passes_when_all_ranks_present():
    manifest = CheckpointManifest(tag="x", world_size=2, iteration=0)
    manifest.add_shard(ShardRecord(rank=0, name="rank0", nbytes=1))
    manifest.add_shard(ShardRecord(rank=1, name="rank1", nbytes=1))
    manifest.validate_complete()


def test_shard_record_is_in_a_shard_set_only_with_group_and_part_index():
    assert not ShardRecord(rank=0, name="rank0", nbytes=1).in_shard_set
    assert not ShardRecord(rank=0, name="rank0", nbytes=1, group="rank0").in_shard_set
    part = ShardRecord(rank=0, name="rank0-s01", nbytes=1, group="rank0",
                       part_index=1, num_parts=2)
    assert part.in_shard_set


def test_topology_layout_table_keys_the_partition_table_by_tensor():
    layouts = (TensorLayout("b", None, (4,)), TensorLayout("a", 1, (2, 6)))
    topology = CheckpointTopology(2, tensor_parallel=2, tensors=layouts)
    table = topology.layout_table()
    assert list(table) == ["b", "a"]
    assert table["a"].partition_axis == 1


def test_topology_without_a_partition_table_cannot_be_reshaped():
    with pytest.raises(ConsistencyError, match="only elastic checkpoints"):
        CheckpointTopology(2).layout_table()
