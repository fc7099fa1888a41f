"""Tests for the pluggable shard-store layer: the ShardStore protocol and
registry, the in-memory ObjectStore backend, and the FileStore durability
fixes (directory fsync after rename, prune-vs-writer race)."""

import stat

import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.io import (
    STORE_NAMES,
    FileStore,
    ObjectStore,
    ShardStore,
    available_stores,
    canonical_store_name,
    create_store,
    publish_file,
    register_store,
    supports_mmap,
    supports_ranged_reads,
    supports_shard_writer,
)
from repro.restart import CheckpointLoader


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_create_store_by_name(tmp_path):
    file_store = create_store("file", root=tmp_path / "f")
    object_store = create_store("object", root=tmp_path / "o")
    assert isinstance(file_store, FileStore)
    assert isinstance(object_store, ObjectStore)
    for store in (file_store, object_store):
        assert isinstance(store, ShardStore)
    assert set(STORE_NAMES) <= set(available_stores())


def test_create_store_unknown_name_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        create_store("tape-robot", root=tmp_path)
    with pytest.raises(ConfigurationError):
        canonical_store_name("tape-robot")
    assert canonical_store_name("  FILE ") == "file"


def test_file_store_requires_root():
    with pytest.raises(ConfigurationError):
        create_store("file")


def test_register_custom_store(tmp_path):
    from repro.io import store as store_module

    register_store("custom", lambda root=None, fsync=False: ObjectStore(bucket="custom"))
    try:
        store = create_store("custom")
        assert isinstance(store, ObjectStore)
        assert store.bucket == "custom"
    finally:
        store_module._STORE_REGISTRY.pop("custom", None)
    with pytest.raises(ConfigurationError):
        register_store("", lambda **kwargs: None)
    with pytest.raises(ConfigurationError):
        register_store("bad", "not-a-factory")  # type: ignore[arg-type]


def test_capability_detection(tmp_path):
    file_store = FileStore(tmp_path)
    object_store = ObjectStore()
    assert supports_shard_writer(file_store) and supports_mmap(file_store)
    # The object store has nothing to map but does stage parallel pwrites.
    assert supports_shard_writer(object_store) and not supports_mmap(object_store)
    # Both backends serve sub-shard ranges (pread / ranged GET).
    assert supports_ranged_reads(file_store) and supports_ranged_reads(object_store)


# ---------------------------------------------------------------------------
# ObjectStore semantics (mirrors the FileStore suite where behaviour is shared)
# ---------------------------------------------------------------------------

def test_object_store_write_and_read_shard():
    store = ObjectStore()
    receipt = store.write_shard("ckpt-1", "rank0", [b"hello ", b"world"])
    assert receipt.nbytes == 11
    assert store.read_shard("ckpt-1", "rank0") == b"hello world"
    assert store.shard_size("ckpt-1", "rank0") == 11
    assert store.keys() == ["ckpt-1/rank0.shard"]


def test_object_store_missing_objects_raise():
    store = ObjectStore()
    with pytest.raises(CheckpointError):
        store.read_shard("nope", "rank0")
    store.write_shard("ckpt-1", "rank0", [b"x"])
    with pytest.raises(CheckpointError):
        store.read_manifest("ckpt-1")


def test_object_store_manifest_roundtrip_and_commit_ordering():
    """A checkpoint is committed iff its manifest key exists — the shard keys
    alone (manifest-last ordering) leave it uncommitted/prunable."""
    store = ObjectStore()
    store.write_shard("ckpt-1", "rank0", [b"x" * 10])
    assert store.list_checkpoints() == ["ckpt-1"]
    assert store.list_committed_checkpoints() == []
    store.write_manifest("ckpt-1", {"tag": "ckpt-1", "shards": []})
    assert store.list_committed_checkpoints() == ["ckpt-1"]
    assert store.read_manifest("ckpt-1") == {"tag": "ckpt-1", "shards": []}


def test_object_store_atomicity_no_partial_object_on_failure():
    store = ObjectStore()

    def failing_chunks():
        yield b"partial"
        raise RuntimeError("simulated crash mid-write")

    with pytest.raises(RuntimeError):
        store.write_shard("ckpt-1", "rank0", failing_chunks())
    assert store.keys() == []


def test_object_store_copies_a_view_before_pulling_the_next_chunk():
    """Chunks may be views of staging memory the producer recycles as soon as
    the next chunk is requested (the pinned pool does exactly that)."""
    store = ObjectStore()
    staging = bytearray(4)

    def recycled_views():
        yield b"head:"
        for fill in (b"aaaa", b"bbbb", b"cccc"):
            staging[:] = fill
            yield memoryview(staging)

    receipt = store.write_shard("ckpt-1", "rank0", recycled_views())
    assert receipt.nbytes == 17
    assert store.read_shard("ckpt-1", "rank0") == b"head:aaaabbbbcccc"
    # A lone bytes chunk (what a tier drain hands over) round-trips too.
    store.write_shard("ckpt-1", "rank1", [b"whole shard"])
    assert store.read_shard("ckpt-1", "rank1") == b"whole shard"


def test_object_store_delete_and_total_bytes():
    store = ObjectStore()
    store.write_shard("ckpt-1", "rank0", [b"x" * 10])
    store.write_shard("ckpt-1", "rank1", [b"y" * 20])
    store.write_manifest("ckpt-1", {"tag": "ckpt-1"})
    assert store.total_bytes("ckpt-1") == 30  # manifest bytes excluded
    store.delete_checkpoint("ckpt-1")
    assert store.list_checkpoints() == []
    store.delete_checkpoint("ckpt-1")  # no-op when absent


def test_object_store_overwrite_replaces_content():
    store = ObjectStore()
    store.write_shard("ckpt-1", "rank0", [b"old"])
    store.write_shard("ckpt-1", "rank0", [b"new-content"])
    assert store.read_shard("ckpt-1", "rank0") == b"new-content"


def test_object_shard_writer_pwrite_commit_abort():
    store = ObjectStore()
    writer = store.create_shard_writer("ckpt-1", "rank0", 8)
    writer.pwrite(4, b"wxyz")
    writer.pwrite(0, b"abcd")
    receipt = writer.commit()
    assert receipt.nbytes == 8
    assert store.read_shard("ckpt-1", "rank0") == b"abcdwxyz"
    with pytest.raises(CheckpointError):
        writer.pwrite(0, b"late")
    with pytest.raises(CheckpointError):
        writer.commit()

    aborted = store.create_shard_writer("ckpt-1", "gone", 4)
    aborted.pwrite(0, b"data")
    aborted.abort()
    aborted.abort()  # idempotent
    assert "ckpt-1/gone.shard" not in store.keys()


def test_object_shard_writer_bounds_checked():
    store = ObjectStore()
    writer = store.create_shard_writer("ckpt-1", "rank0", 4)
    with pytest.raises(CheckpointError):
        writer.pwrite(2, b"toolong")
    with pytest.raises(CheckpointError):
        writer.pwrite(-1, b"x")
    writer.abort()
    with pytest.raises(CheckpointError):
        store.create_shard_writer("ckpt-1", "rank0", 0)


# ---------------------------------------------------------------------------
# publish_file — the one shared rename-then-fsync-parent publish helper
# ---------------------------------------------------------------------------

def test_publish_file_renames_and_optionally_fsyncs(tmp_path, monkeypatch):
    """The helper behind every publish path: atomic rename, optional parent
    fsync, and an error that tells a failed rename apart from a failed
    directory sync (the entry is already visible in the latter case)."""
    import os

    source = tmp_path / ".staged"
    target = tmp_path / "final"
    source.write_bytes(b"payload")
    recorder = _FsyncRecorder(monkeypatch)
    publish_file(source, target, tmp_path, fsync=False)
    assert target.read_bytes() == b"payload" and not source.exists()
    assert recorder.directory_fsyncs == 0

    source.write_bytes(b"payload-2")
    publish_file(source, target, tmp_path, fsync=True)
    assert target.read_bytes() == b"payload-2"
    assert recorder.directory_fsyncs == 1

    # A missing source fails the rename itself: no .published marker.
    with pytest.raises(OSError) as excinfo:
        publish_file(tmp_path / "missing", target, tmp_path, fsync=True)
    assert not getattr(excinfo.value, "published", False)

    # A directory-fsync failure happens after the rename: marked .published.
    source.write_bytes(b"payload-3")
    real_fsync = os.fsync

    def failing_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError("simulated directory fsync failure")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError) as excinfo:
        publish_file(source, target, tmp_path, fsync=True)
    assert excinfo.value.published is True
    assert target.read_bytes() == b"payload-3"  # the rename did happen


# ---------------------------------------------------------------------------
# Directory fsync after rename (durability of the publish itself)
# ---------------------------------------------------------------------------

class _FsyncRecorder:
    """Record which kinds of fds os.fsync is called on."""

    def __init__(self, monkeypatch):
        import os

        self.directory_fsyncs = 0
        self.file_fsyncs = 0
        real_fsync = os.fsync

        def recording_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                self.directory_fsyncs += 1
            else:
                self.file_fsyncs += 1
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)


def test_write_shard_fsyncs_directory_after_rename(tmp_path, monkeypatch):
    store = FileStore(tmp_path, fsync=True)
    recorder = _FsyncRecorder(monkeypatch)
    store.write_shard("ckpt-1", "rank0", [b"payload"])
    assert recorder.file_fsyncs == 1
    assert recorder.directory_fsyncs == 1  # the rename itself must be durable


def test_write_manifest_fsyncs_directory_after_rename(tmp_path, monkeypatch):
    store = FileStore(tmp_path, fsync=True)
    recorder = _FsyncRecorder(monkeypatch)
    store.write_manifest("ckpt-1", {"tag": "ckpt-1"})
    assert recorder.file_fsyncs == 1
    assert recorder.directory_fsyncs == 1


def test_shard_writer_commit_fsyncs_directory_after_rename(tmp_path, monkeypatch):
    store = FileStore(tmp_path, fsync=True)
    recorder = _FsyncRecorder(monkeypatch)
    writer = store.create_shard_writer("ckpt-1", "rank0", 4)
    writer.pwrite(0, b"abcd")
    writer.commit()
    assert recorder.file_fsyncs == 1
    assert recorder.directory_fsyncs == 1


def test_no_fsync_at_all_when_disabled(tmp_path, monkeypatch):
    store = FileStore(tmp_path, fsync=False)
    recorder = _FsyncRecorder(monkeypatch)
    store.write_shard("ckpt-1", "rank0", [b"payload"])
    store.write_manifest("ckpt-1", {"tag": "ckpt-1"})
    with store.create_shard_writer("ckpt-1", "rank1", 4) as writer:
        writer.pwrite(0, b"abcd")
        writer.commit()
    assert recorder.file_fsyncs == 0 and recorder.directory_fsyncs == 0


# ---------------------------------------------------------------------------
# prune_uncommitted racing an in-flight uncommitted writer
# ---------------------------------------------------------------------------

def test_prune_uncommitted_racing_inflight_writer(tmp_path):
    """Pruning a torn checkpoint from under an in-flight writer must neither
    crash the pruner nor let the late commit resurrect the checkpoint: the
    publish fails with CheckpointError and the tag stays gone."""
    store = FileStore(tmp_path)
    store.write_shard("committed", "rank0", [b"x"])
    store.write_manifest("committed", {"tag": "committed"})

    writer = store.create_shard_writer("torn", "rank0", 4)
    writer.pwrite(0, b"abcd")

    loader = CheckpointLoader(store)
    assert loader.prune_uncommitted() == ["torn"]

    with pytest.raises(CheckpointError):
        writer.commit()
    writer.abort()  # still safe after the failed commit
    assert store.list_checkpoints() == ["committed"]
