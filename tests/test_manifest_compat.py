"""Manifest v1 -> v4 compatibility.

``tests/fixtures/v1_checkpoint`` holds a committed checkpoint exactly as
every pre-multi-shard release wrote it: one ``rank0.shard`` and a v1
manifest (no ``version`` key, no shard-set fields).  It must keep restoring
bit-exactly through the new loader, and v2 manifests must round-trip with
their shard-set metadata intact while single-shard checkpoints keep
producing v1-identical manifest JSON.  Beside it sit a v2 (two-part shard
set), a v3 (CAS chunk lists over a file root) and a v4 (an elastic dp1 x tp2
grid with its topology block) fixture; each restores unchanged, is checked
to really be its schema version, and is reproduced by saving its state
again: every shard and chunk file byte for byte, every manifest but for the
per-tensor CRCs that records now always carry (the v3 pool but for the
refcount index object its release kept, which no save writes now: a copy of
that legacy pool opens, counts and restores without it).
"""

import json
import zlib
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import DataStatesCheckpointEngine
from repro.exceptions import ConsistencyError, RestartError
from repro.io import CASStore, FileStore
from repro.io.cas import INDEX_TAG
from repro.restart import (
    CheckpointLoader,
    RestoreSpec,
    elastic_topology,
    save_elastic_checkpoint,
)
from repro.serialization import CheckpointManifest, ShardRecord, decode_preamble

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "v1_checkpoint"
FIXTURE_TAG = "ckpt-000004"

V2_FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "v2_checkpoint"
V2_FIXTURE_TAG = "ckpt-000008"

V3_FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "v3_checkpoint"
V3_FIXTURE_TAG = "ckpt-000012"
V3_CHUNK_BYTES = 1024  # four chunks for the 3135-byte shard
#: The refcount index object the release that wrote the v3 fixture kept
#: beside its chunks; today's pools never write one.
V3_LEGACY_INDEX = Path(INDEX_TAG) / "manifest.json"

V4_FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "v4_checkpoint"
V4_FIXTURE_TAG = "ckpt-000016"


def fixture_state():
    """The exact state the committed fixture was generated from."""
    return {
        "model": {
            "w": (np.arange(256, dtype=np.float64) * 0.5).reshape(16, 16),
            "b": np.arange(16, dtype=np.float32) - 8.0,
        },
        "optimizer": {"m": np.arange(64, dtype=np.float64) * -0.25, "step": 4},
        "iteration": 4,
    }


# ---------------------------------------------------------------------------
# The committed v1 fixture restores unchanged through the new loader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("use_mmap", [True, False])
def test_v1_fixture_checkpoint_restores_unchanged(use_mmap):
    store = FileStore(FIXTURE_ROOT)
    loader = CheckpointLoader(store)

    manifest = loader.validate(FIXTURE_TAG)
    assert manifest.version == 1
    assert [record.name for record in manifest.shards] == ["rank0"]
    assert manifest.shards[0].group is None
    assert manifest.shards[0].part_index is None

    expected = fixture_state()
    loaded = loader.restore(RestoreSpec.of_rank(0, tag=FIXTURE_TAG, use_mmap=use_mmap))
    np.testing.assert_array_equal(loaded["model"]["w"], expected["model"]["w"])
    np.testing.assert_array_equal(loaded["model"]["b"], expected["model"]["b"])
    np.testing.assert_array_equal(loaded["optimizer"]["m"], expected["optimizer"]["m"])
    assert loaded["optimizer"]["step"] == 4
    assert loaded["iteration"] == 4


def test_v1_fixture_loads_through_engine_protocol(tmp_path):
    """engine.load() (the protocol restore path) handles the v1 layout."""
    store = FileStore(FIXTURE_ROOT)
    engine = DataStatesCheckpointEngine(store, host_buffer_size=1 << 20)
    try:
        loaded = engine.load(RestoreSpec(tag=FIXTURE_TAG))
    finally:
        engine.shutdown(wait=False)
    np.testing.assert_array_equal(loaded["model"]["w"], fixture_state()["model"]["w"])


def test_v1_fixture_has_no_tensor_checksums_to_verify():
    """The one fallback: a record from before every record carried its
    per-tensor CRCs is checked whole, and a per-tensor check of it says so."""
    loader = CheckpointLoader(FileStore(FIXTURE_ROOT))
    [record] = loader.validate(FIXTURE_TAG).shards
    assert record.tensor_checksums is None
    with pytest.raises(RestartError, match="'rank0'.*no per-tensor checksums"):
        loader.verify_tensor_checksums(FIXTURE_TAG, record)


def test_v1_fixture_manifest_has_no_v2_keys():
    """Guard: the fixture really is v1 on disk (else this suite tests nothing)."""
    manifest = json.loads((FIXTURE_ROOT / FIXTURE_TAG / "manifest.json").read_text())
    assert "version" not in manifest
    for record in manifest["shards"]:
        assert "group" not in record and "part_index" not in record


# ---------------------------------------------------------------------------
# The committed v2 (multi-shard) fixture restores unchanged
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("use_mmap", [True, False])
def test_v2_fixture_checkpoint_restores_unchanged(use_mmap):
    store = FileStore(V2_FIXTURE_ROOT)
    loader = CheckpointLoader(store)

    manifest = loader.validate(V2_FIXTURE_TAG)
    assert manifest.version == 2
    assert [record.name for record in manifest.shards] == [
        "rank0-s00", "rank0-s01"]
    assert all(record.group == "rank0" for record in manifest.shards)

    expected = fixture_state()
    loaded = loader.restore(RestoreSpec.of_rank(0, tag=V2_FIXTURE_TAG, use_mmap=use_mmap))
    np.testing.assert_array_equal(loaded["model"]["w"], expected["model"]["w"])
    np.testing.assert_array_equal(loaded["model"]["b"], expected["model"]["b"])
    np.testing.assert_array_equal(loaded["optimizer"]["m"], expected["optimizer"]["m"])
    assert loaded["optimizer"]["step"] == 4
    assert loaded["iteration"] == 4


def test_v2_fixture_manifest_has_no_v3_keys():
    """Guard: the committed fixture is schema v2 on disk — shard-set fields
    present, no CAS chunk lists (those are the v3 extension)."""
    manifest = json.loads(
        (V2_FIXTURE_ROOT / V2_FIXTURE_TAG / "manifest.json").read_text())
    assert manifest["version"] == 2
    for record in manifest["shards"]:
        assert "chunks" not in record
        assert record["group"] == "rank0"


# ---------------------------------------------------------------------------
# The committed v3 (CAS chunk-list) fixture restores unchanged
# ---------------------------------------------------------------------------

def _v3_store(root):
    return CASStore(FileStore(root), chunk_bytes=V3_CHUNK_BYTES)


def _assert_restores_the_v3_fixture(loader, use_mmap=True):
    manifest = loader.validate(V3_FIXTURE_TAG)
    assert manifest.version == 3
    assert [record.name for record in manifest.shards] == ["rank0"]

    expected = fixture_state()
    loaded = loader.restore(RestoreSpec.of_rank(0, tag=V3_FIXTURE_TAG, use_mmap=use_mmap))
    np.testing.assert_array_equal(loaded["model"]["w"], expected["model"]["w"])
    np.testing.assert_array_equal(loaded["model"]["b"], expected["model"]["b"])
    np.testing.assert_array_equal(loaded["optimizer"]["m"], expected["optimizer"]["m"])
    assert loaded["optimizer"]["step"] == 4
    assert loaded["iteration"] == 4


@pytest.mark.parametrize("use_mmap", [True, False])
def test_v3_fixture_checkpoint_restores_unchanged(use_mmap):
    _assert_restores_the_v3_fixture(CheckpointLoader(_v3_store(V3_FIXTURE_ROOT)), use_mmap)


class _WriteCountingStore:
    """Forwards every call to ``inner``, recording those that change it."""

    WRITES = ("write_shard", "create_shard_writer", "write_manifest", "delete_checkpoint")

    def __init__(self, inner):
        self.inner = inner
        self.writes = []

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name not in self.WRITES:
            return attr

        def write(*args, **kwargs):
            self.writes.append((name, args[0]))
            return attr(*args, **kwargs)
        return write


def _legacy_v3_pool(tmp_path, index):
    """A copy of the v3 fixture pool, its legacy index object replaced by
    ``index`` when one is given."""
    root = tmp_path / "pool"
    shutil.copytree(V3_FIXTURE_ROOT, root)
    if index is not None:
        (root / V3_LEGACY_INDEX).write_text(json.dumps(index), encoding="utf-8")
    return root


@pytest.mark.parametrize("index", [None, {"refcounts": {}}],
                         ids=["as-committed", "under-counting"])
def test_v3_legacy_pool_opens_without_a_write_and_counts_from_its_manifests(tmp_path, index):
    """A pool an older release left with a ``cas-refcounts`` index object:
    opening it writes nothing and ignores the index — an under-counting one
    too — counting each chunk from the committed manifests; the first
    sweep deletes the index."""
    root = _legacy_v3_pool(tmp_path, index)
    inner = _WriteCountingStore(FileStore(root))
    store = CASStore(inner, chunk_bytes=V3_CHUNK_BYTES)
    assert inner.writes == []

    [manifest_path] = root.glob(f"*{V3_FIXTURE_TAG}/manifest.json")
    references = Counter(
        digest for record in json.loads(manifest_path.read_text())["shards"]
        for digest, _nbytes in record["chunks"])
    assert {digest: store.refcount(digest) for digest in store.pool_chunks()} == references

    _assert_restores_the_v3_fixture(CheckpointLoader(store))
    assert inner.writes == []
    assert store.sweep_unreferenced() == 0
    assert inner.writes == [("delete_checkpoint", INDEX_TAG)]
    assert store.pool_chunks() == sorted(references)
    _assert_restores_the_v3_fixture(CheckpointLoader(_v3_store(root)))


def test_v3_legacy_pool_loses_its_index_at_the_first_commit(tmp_path):
    """The first commit deletes the legacy index before it publishes, so an
    older release reopening the pool counts from the manifests instead of
    trusting an index that no longer moves."""
    root = _legacy_v3_pool(tmp_path, {"refcounts": {}})
    with DataStatesCheckpointEngine(
            _v3_store(root), policy=CheckpointPolicy(host_buffer_size=1 << 20)) as engine:
        engine.save(fixture_state(), tag="ckpt-000013", iteration=13)
        engine.wait_all()
    assert INDEX_TAG not in FileStore(root).list_checkpoints()
    reopened = _v3_store(root)
    assert reopened.list_committed_checkpoints() == [V3_FIXTURE_TAG, "ckpt-000013"]
    assert reopened.sweep_unreferenced() == 0
    _assert_restores_the_v3_fixture(CheckpointLoader(reopened))


def test_v3_fixture_manifest_has_chunk_lists_and_no_topology():
    """Guard: the committed fixture is schema v3 on disk — every record a
    chunk list summing to its size, no v4 topology block."""
    [manifest_path] = V3_FIXTURE_ROOT.glob(f"*{V3_FIXTURE_TAG}/manifest.json")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["version"] == 3
    assert "topology" not in manifest
    for record in manifest["shards"]:
        assert len(record["chunks"]) > 1
        assert sum(size for _digest, size in record["chunks"]) == record["nbytes"]


# ---------------------------------------------------------------------------
# The committed v4 (elastic topology) fixture restores unchanged and reshaped
# ---------------------------------------------------------------------------

def v4_model():
    """The exact model the committed v4 fixture was generated from."""
    return {"w": (np.arange(48, dtype=np.float32) * 0.25).reshape(8, 6),
            "b": np.arange(8, dtype=np.float32) - 4.0}


V4_AXES = {"w": 0, "b": None}


@pytest.mark.parametrize("use_mmap", [True, False])
def test_v4_fixture_checkpoint_restores_unchanged(use_mmap):
    loader = CheckpointLoader(FileStore(V4_FIXTURE_ROOT))
    manifest = loader.validate(V4_FIXTURE_TAG)
    assert manifest.version == 4
    assert (manifest.topology.data_parallel, manifest.topology.tensor_parallel) == (1, 2)

    # Each rank holds its flat tensor-parallel slice; ``b`` is replicated.
    model = v4_model()
    for rank in (0, 1):
        loaded = loader.restore(RestoreSpec.of_rank(rank, tag=V4_FIXTURE_TAG, use_mmap=use_mmap))
        np.testing.assert_array_equal(loaded["model"]["w"],
                                      model["w"][4 * rank:4 * rank + 4].ravel())
        np.testing.assert_array_equal(loaded["model"]["b"], model["b"])

    # Reshaped to dp2 x tp1: each data-parallel rank holds half of every
    # whole tensor, flattened.
    target = elastic_topology(model, data_parallel=2, axes=V4_AXES)
    states = loader.restore(
        RestoreSpec.full(tag=V4_FIXTURE_TAG, use_mmap=use_mmap).reshaped(target))
    assert sorted(states) == [0, 1]
    for rank, state in states.items():
        for key, array in model.items():
            half = array.size // 2
            np.testing.assert_array_equal(state["model"][key],
                                          array.ravel()[half * rank:half * rank + half])


def test_v4_fixture_manifest_has_topology_block():
    """Guard: the committed fixture is schema v4 on disk — a topology block
    naming the save-time grid, plain (not chunk-list) shard records."""
    manifest = json.loads(
        (V4_FIXTURE_ROOT / V4_FIXTURE_TAG / "manifest.json").read_text())
    assert manifest["version"] == 4
    topology = manifest["topology"]
    assert (topology["data_parallel"], topology["tensor_parallel"]) == (1, 2)
    assert [record["name"] for record in manifest["shards"]] == ["rank0", "rank1"]
    for record in manifest["shards"]:
        assert "chunks" not in record


# ---------------------------------------------------------------------------
# Saving the fixture state today reproduces every fixture byte for byte
# ---------------------------------------------------------------------------

def _files(root):
    return sorted(path.relative_to(root) for path in root.rglob("*") if path.is_file())


def _assert_same_tree(written, committed, store, skip=None):
    """Every shard and chunk file byte for byte; every manifest as parsed
    JSON once each record's ``tensor_checksums`` is taken out — a record
    written now always carries them, the fixtures' releases did not always
    — and those must be zlib's CRC32 of the payload sections of the part
    ``store`` reads back."""
    expected = [name for name in _files(committed) if name != skip]
    assert _files(written) == expected
    for name in expected:
        if name.name != "manifest.json":
            assert (written / name).read_bytes() == (committed / name).read_bytes(), name
            continue
        ours = json.loads((written / name).read_text())
        theirs = json.loads((committed / name).read_text())
        for record, committed_record in zip(ours["shards"], theirs["shards"]):
            crcs = record.pop("tensor_checksums")
            assert committed_record.pop("tensor_checksums", crcs) == crcs
            raw = store.read_shard(ours["tag"], record["name"])
            header, _skeleton, start = decode_preamble(raw)
            assert crcs == [zlib.crc32(raw[start + entry.offset:
                                           start + entry.offset + entry.nbytes])
                            for entry in header.entries]
        assert ours == theirs, name


def test_saving_the_fixture_state_reproduces_the_v3_fixture(tmp_path):
    """Chunk files and manifest: the CAS pool a default-policy save of the
    fixture state leaves over a file root.  The fixture also holds the
    refcount index object of the release that wrote it; a save writes none."""
    store = _v3_store(tmp_path)
    with DataStatesCheckpointEngine(
            store, policy=CheckpointPolicy(host_buffer_size=1 << 20)) as engine:
        engine.save(fixture_state(), tag=V3_FIXTURE_TAG, iteration=12)
        engine.wait_all()
    assert INDEX_TAG not in FileStore(tmp_path).list_checkpoints()
    _assert_same_tree(tmp_path, V3_FIXTURE_ROOT, store, skip=V3_LEGACY_INDEX)


def test_saving_the_fixture_state_reproduces_the_v4_fixture(tmp_path):
    model = v4_model()
    store = FileStore(tmp_path)
    save_elastic_checkpoint(
        store, {"model": model},
        elastic_topology(model, data_parallel=1, tensor_parallel=2, axes=V4_AXES),
        tag=V4_FIXTURE_TAG, iteration=16)
    _assert_same_tree(tmp_path, V4_FIXTURE_ROOT, store)

class _StreamingOnlyStore(FileStore):
    """A file store without offset-addressed writers: engines stream to it."""

    create_shard_writer = None


@pytest.mark.parametrize("root, tag, store_cls, policy", [
    (FIXTURE_ROOT, FIXTURE_TAG, _StreamingOnlyStore, {}),
    (V2_FIXTURE_ROOT, V2_FIXTURE_TAG, FileStore, dict(shards_per_rank=2)),
], ids=["v1", "v2"])
def test_saving_the_fixture_state_reproduces_the_committed_fixture(tmp_path, root, tag,
                                                                   store_cls, policy):
    """On-disk identity, shard files *and* manifest: the committed v1 fixture
    was written by the streaming sink a store without a shard writer gets
    (when that sink recorded no per-tensor checksums), the v2 one by the
    offset-addressed sink over a two-part plan."""
    store = store_cls(tmp_path)
    with DataStatesCheckpointEngine(
            store, policy=CheckpointPolicy(host_buffer_size=1 << 20, **policy)) as engine:
        engine.save(fixture_state(), tag=tag, iteration=int(tag.rsplit("-", 1)[1]))
        engine.wait_all()
    _assert_same_tree(tmp_path, root, store)


# ---------------------------------------------------------------------------
# v2 round-trips; single-shard manifests stay v1-identical
# ---------------------------------------------------------------------------

def test_v2_manifest_roundtrips_shard_set_fields():
    manifest = CheckpointManifest(tag="t", world_size=1, iteration=7)
    for part in range(3):
        manifest.add_shard(ShardRecord(rank=0, name=f"rank0-s{part:02d}", nbytes=10,
                                       checksum=part, group="rank0",
                                       part_index=part, num_parts=3))
    assert manifest.version == 2
    data = manifest.to_json()
    assert data["version"] == 2
    parsed = CheckpointManifest.from_json(data)
    assert parsed.version == 2
    sets = parsed.shard_sets_of_rank(0)
    assert list(sets) == ["rank0"]
    assert [record.name for record in sets["rank0"]] == [
        "rank0-s00", "rank0-s01", "rank0-s02"]


def test_single_shard_manifest_stays_v1_identical(tmp_path):
    """A default-policy checkpoint must write a manifest with the exact v1
    key set — no version key, no shard-set fields."""
    store = FileStore(tmp_path)
    engine = DataStatesCheckpointEngine(
        store, policy=CheckpointPolicy(host_buffer_size=4 << 20))
    engine.save(fixture_state(), tag="single", iteration=1)
    engine.wait_all()
    engine.shutdown()

    manifest = store.read_manifest("single")
    assert set(manifest) == {"tag", "world_size", "iteration", "total_bytes",
                             "shards", "extra"}
    record_keys = set(manifest["shards"][0])
    assert "group" not in record_keys and "part_index" not in record_keys


def test_incomplete_shard_set_is_rejected():
    manifest = CheckpointManifest(tag="t", world_size=1, iteration=0)
    manifest.add_shard(ShardRecord(rank=0, name="rank0-s00", nbytes=10,
                                   group="rank0", part_index=0, num_parts=2))
    with pytest.raises(ConsistencyError):
        manifest.shard_sets_of_rank(0)
