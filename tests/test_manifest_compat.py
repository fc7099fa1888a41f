"""Manifest v1 -> v2 compatibility.

``tests/fixtures/v1_checkpoint`` holds a committed checkpoint exactly as
every pre-multi-shard release wrote it: one ``rank0.shard`` and a v1
manifest (no ``version`` key, no shard-set fields).  It must keep restoring
bit-exactly through the new loader, and v2 manifests must round-trip with
their shard-set metadata intact while single-shard checkpoints keep
producing v1-identical manifest JSON.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import DataStatesCheckpointEngine
from repro.exceptions import ConsistencyError
from repro.io import FileStore
from repro.restart import CheckpointLoader, RestoreSpec
from repro.serialization import CheckpointManifest, ShardRecord

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "v1_checkpoint"
FIXTURE_TAG = "ckpt-000004"

V2_FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "v2_checkpoint"
V2_FIXTURE_TAG = "ckpt-000008"


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
    loader = CheckpointLoader(store, use_mmap=use_mmap)

    manifest = loader.validate(FIXTURE_TAG)
    assert manifest.version == 1
    assert [record.name for record in manifest.shards] == ["rank0"]
    assert manifest.shards[0].group is None
    assert manifest.shards[0].part_index is None

    expected = fixture_state()
    loaded = loader.restore(RestoreSpec.of_rank(0, tag=FIXTURE_TAG))
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


def test_v1_fixture_manifest_has_no_v2_keys():
    """Guard: the fixture really is v1 on disk (else this suite tests nothing)."""
    import json

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
    loader = CheckpointLoader(store, use_mmap=use_mmap)

    manifest = loader.validate(V2_FIXTURE_TAG)
    assert manifest.version == 2
    assert [record.name for record in manifest.shards] == [
        "rank0-s00", "rank0-s01"]
    assert all(record.group == "rank0" for record in manifest.shards)

    expected = fixture_state()
    loaded = loader.restore(RestoreSpec.of_rank(0, tag=V2_FIXTURE_TAG))
    np.testing.assert_array_equal(loaded["model"]["w"], expected["model"]["w"])
    np.testing.assert_array_equal(loaded["model"]["b"], expected["model"]["b"])
    np.testing.assert_array_equal(loaded["optimizer"]["m"], expected["optimizer"]["m"])
    assert loaded["optimizer"]["step"] == 4
    assert loaded["iteration"] == 4


def test_v2_fixture_manifest_has_no_v3_keys():
    """Guard: the committed fixture is schema v2 on disk — shard-set fields
    present, no CAS chunk lists (those are the v3 extension)."""
    import json

    manifest = json.loads(
        (V2_FIXTURE_ROOT / V2_FIXTURE_TAG / "manifest.json").read_text())
    assert manifest["version"] == 2
    for record in manifest["shards"]:
        assert "chunks" not in record
        assert record["group"] == "rank0"


# ---------------------------------------------------------------------------
# Saving the fixture state today reproduces both fixtures byte for byte
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("root, tag, policy", [
    (FIXTURE_ROOT, FIXTURE_TAG, dict(parallel_shard_writes=False)),
    (V2_FIXTURE_ROOT, V2_FIXTURE_TAG, dict(shards_per_rank=2)),
], ids=["v1", "v2"])
def test_saving_the_fixture_state_reproduces_the_committed_fixture(tmp_path, root, tag, policy):
    """On-disk identity, shard files *and* manifest: the committed v1 fixture
    was written by the streaming sink (no per-tensor checksums), the v2 one by
    the offset-addressed sink over a two-part plan."""
    store = FileStore(tmp_path)
    with DataStatesCheckpointEngine(
            store, policy=CheckpointPolicy(host_buffer_size=1 << 20, **policy)) as engine:
        engine.save(fixture_state(), tag=tag, iteration=int(tag.rsplit("-", 1)[1]))
        engine.wait_all()
    committed = sorted(path.name for path in (root / tag).iterdir())
    assert sorted(path.name for path in (tmp_path / tag).iterdir()) == committed
    for name in committed:
        assert (tmp_path / tag / name).read_bytes() == (root / tag / name).read_bytes(), name


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
