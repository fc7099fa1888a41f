"""Tests for the on-disk file store."""

import pytest

from repro.exceptions import CheckpointError
from repro.io import FileStore


# ---------------------------------------------------------------------------
# FileStore
# ---------------------------------------------------------------------------

def test_write_and_read_shard(tmp_path):
    store = FileStore(tmp_path)
    receipt = store.write_shard("ckpt-1", "rank0", [b"hello ", b"world"])
    assert receipt.nbytes == 11
    assert store.read_shard("ckpt-1", "rank0") == b"hello world"
    assert store.shard_size("ckpt-1", "rank0") == 11


def test_read_missing_shard_raises(tmp_path):
    store = FileStore(tmp_path)
    with pytest.raises(CheckpointError):
        store.read_shard("nope", "rank0")


def test_manifest_roundtrip(tmp_path):
    store = FileStore(tmp_path)
    store.write_manifest("ckpt-1", {"tag": "ckpt-1", "shards": []})
    assert store.read_manifest("ckpt-1") == {"tag": "ckpt-1", "shards": []}


def test_missing_manifest_raises(tmp_path):
    store = FileStore(tmp_path)
    store.write_shard("ckpt-1", "rank0", [b"x"])
    with pytest.raises(CheckpointError):
        store.read_manifest("ckpt-1")


def test_list_checkpoints_and_committed(tmp_path):
    store = FileStore(tmp_path)
    store.write_shard("b-ckpt", "rank0", [b"x"])
    store.write_shard("a-ckpt", "rank0", [b"x"])
    store.write_manifest("a-ckpt", {"tag": "a-ckpt"})
    assert store.list_checkpoints() == ["a-ckpt", "b-ckpt"]
    assert store.list_committed_checkpoints() == ["a-ckpt"]


def test_listing_a_missing_root_is_empty(tmp_path):
    store = FileStore(tmp_path / "root")
    (tmp_path / "root").rmdir()
    assert store.list_checkpoints() == []
    assert store.list_committed_checkpoints() == []


def test_listing_ignores_plain_files_follows_dir_symlinks_and_sorts(tmp_path):
    store = FileStore(tmp_path / "root")
    outside = FileStore(tmp_path / "elsewhere")
    outside.write_manifest("linked", {"tag": "linked"})
    for tag in ("c-ckpt", "a-ckpt", "b-ckpt"):
        store.write_manifest(tag, {"tag": tag})
    store.write_shard("d-uncommitted", "rank0", [b"x"])
    (tmp_path / "root" / "manifest.json").write_text("{}")       # a plain file
    (tmp_path / "root" / "a-file").write_bytes(b"not a checkpoint")
    (tmp_path / "root" / "b-link").symlink_to(tmp_path / "elsewhere" / "linked",
                                              target_is_directory=True)
    (tmp_path / "root" / "z-dangling").symlink_to(tmp_path / "nowhere")

    committed = ["a-ckpt", "b-ckpt", "b-link", "c-ckpt"]
    assert store.list_committed_checkpoints() == committed
    assert store.list_checkpoints() == sorted(committed + ["d-uncommitted"])


def test_delete_checkpoint(tmp_path):
    store = FileStore(tmp_path)
    store.write_shard("ckpt-1", "rank0", [b"x"])
    store.delete_checkpoint("ckpt-1")
    assert store.list_checkpoints() == []
    # Deleting a non-existent checkpoint is a no-op.
    store.delete_checkpoint("ckpt-1")


def test_total_bytes_counts_only_shards(tmp_path):
    store = FileStore(tmp_path)
    store.write_shard("ckpt-1", "rank0", [b"x" * 10])
    store.write_shard("ckpt-1", "rank1", [b"y" * 20])
    store.write_manifest("ckpt-1", {"tag": "ckpt-1"})
    assert store.total_bytes("ckpt-1") == 30
    assert store.total_bytes("missing") == 0


def test_write_is_atomic_no_partial_file_on_failure(tmp_path):
    store = FileStore(tmp_path)

    def failing_chunks():
        yield b"partial"
        raise RuntimeError("simulated crash mid-write")

    with pytest.raises(RuntimeError):
        store.write_shard("ckpt-1", "rank0", failing_chunks())
    # The final shard file must not exist, and no temp files may linger as shards.
    assert not store.shard_path("ckpt-1", "rank0").exists()


def test_overwrite_shard_replaces_content(tmp_path):
    store = FileStore(tmp_path)
    store.write_shard("ckpt-1", "rank0", [b"old"])
    store.write_shard("ckpt-1", "rank0", [b"new-content"])
    assert store.read_shard("ckpt-1", "rank0") == b"new-content"

