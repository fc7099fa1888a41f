"""Tests for the zero-copy I/O fast path: offset-addressed parallel shard
writes (pwrite + CRC folding) and the mmap-backed restore path."""

import os
import time
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CheckpointPolicy
from repro.core import DataStatesCheckpointEngine
from repro.core.flush_pipeline import FlushPipeline
from repro.core.lazy_snapshot import CopyStream, SnapshotJob, deadline_iter
from repro.exceptions import CheckpointError, ConsistencyError
from repro.io import FileStore
from repro.memory import PinnedHostPool
from repro.restart import CheckpointLoader, RestoreSpec
from repro.serialization import (
    build_header,
    checksum_stream,
    crc32,
    crc32_combine,
    deserialize_state,
    fold_section_checksums,
    serialize_state,
)
from repro.tensor import flatten_state_dict


def _state(seed=0, tensors=6, size=2048):
    rng = np.random.default_rng(seed)
    return {
        "model": {f"w{i}": rng.normal(size=size).astype(np.float64) for i in range(tensors)},
        "meta": {"iteration": seed, "note": "fastpath"},
    }


@pytest.fixture
def store(tmp_path):
    return FileStore(tmp_path)


# ---------------------------------------------------------------------------
# CRC32 combining
# ---------------------------------------------------------------------------

def test_crc32_combine_matches_zlib_on_concatenation():
    rng = np.random.default_rng(7)
    blob = rng.integers(0, 256, size=100_000, dtype=np.uint8).tobytes()
    for split in (0, 1, 13, 50_000, 99_999, 100_000):
        a, b = blob[:split], blob[split:]
        combined = crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b))
        assert combined == (zlib.crc32(blob) & 0xFFFFFFFF)


@settings(max_examples=150, deadline=None)
@given(blob=st.binary(max_size=3000), split=st.integers(0, 3000))
def test_crc32_combine_matches_zlib_on_random_splits(blob, split):
    a, b = blob[:split], blob[split:]  # either half may be empty
    assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)


@settings(max_examples=50, deadline=None)
@given(lengths=st.lists(st.sampled_from([0, 1, 7, 64, 1000, 4096]), min_size=1, max_size=40),
       seed=st.integers(0, 2**32 - 1))
def test_crc32_combine_folds_repeated_lengths(lengths, seed):
    """A checkpoint folds a handful of distinct tensor sizes hundreds of times:
    the memoised per-length operator must serve every repeat alike."""
    rng = np.random.default_rng(seed)
    pieces = [rng.integers(0, 256, size=n, dtype=np.uint8).tobytes() for n in lengths]
    crc = 0
    for piece in pieces:
        crc = crc32_combine(crc, zlib.crc32(piece), len(piece))
    assert crc == zlib.crc32(b"".join(pieces))


def test_crc32_combine_survives_more_lengths_than_it_memoises():
    from repro.serialization import checksum

    head = zlib.crc32(b"head")
    zeros = bytes(2 * checksum._ZERO_OPERATORS_LIMIT + 10)
    for length in range(1, len(zeros)):
        tail = zeros[:length]
        assert crc32_combine(head, zlib.crc32(tail), length) == zlib.crc32(tail, head)
    assert len(checksum._ZERO_OPERATORS) <= checksum._ZERO_OPERATORS_LIMIT
    with pytest.raises(ValueError):
        crc32_combine(head, 0, -1)


def test_fold_section_checksums_over_many_pieces():
    rng = np.random.default_rng(8)
    pieces = [rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
              for n in (1, 17, 4096, 0, 77777)]
    folded = fold_section_checksums(
        (zlib.crc32(piece) & 0xFFFFFFFF, len(piece)) for piece in pieces)
    assert folded == (zlib.crc32(b"".join(pieces)) & 0xFFFFFFFF)


def test_checksum_stream_matches_crc32():
    payload = os.urandom(1 << 20)
    assert checksum_stream(payload, chunk_size=4096) == crc32(payload)
    assert checksum_stream(memoryview(payload)) == crc32(payload)


# ---------------------------------------------------------------------------
# ShardWriter: offset-addressed out-of-order writes
# ---------------------------------------------------------------------------

def test_shard_writer_out_of_order_pwrites(store):
    pieces = {0: b"aaaa", 4: b"bbbbbb", 10: b"cc"}
    writer = store.create_shard_writer("ckpt", "rank0", total_bytes=12)
    for offset in (10, 0, 4):  # deliberately not in file order
        writer.pwrite(offset, pieces[offset])
    receipt = writer.commit()
    assert receipt.nbytes == 12
    assert store.read_shard("ckpt", "rank0") == b"aaaabbbbbbcc"


def test_shard_writer_concurrent_pwrites(store):
    rng = np.random.default_rng(3)
    chunks = [rng.integers(0, 256, size=1 << 16, dtype=np.uint8).tobytes() for _ in range(8)]
    writer = store.create_shard_writer("ckpt", "rank0", total_bytes=8 << 16)
    threads = [threading.Thread(target=writer.pwrite, args=(i << 16, chunk))
               for i, chunk in enumerate(chunks)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    writer.commit()
    assert store.read_shard("ckpt", "rank0") == b"".join(chunks)


def test_shard_writer_rejects_out_of_bounds(store):
    writer = store.create_shard_writer("ckpt", "rank0", total_bytes=8)
    with pytest.raises(CheckpointError):
        writer.pwrite(6, b"xyz")
    writer.abort()


def test_shard_writer_abort_leaves_no_files(store):
    writer = store.create_shard_writer("ckpt", "rank0", total_bytes=128)
    writer.pwrite(0, b"partial")
    writer.abort()
    directory = store.checkpoint_dir("ckpt")
    assert not store.shard_path("ckpt", "rank0").exists()
    assert list(directory.iterdir()) == []
    # abort is idempotent, and a closed writer rejects further writes.
    writer.abort()
    with pytest.raises(CheckpointError):
        writer.pwrite(0, b"late")


def test_shard_writer_context_manager_aborts_on_error(store):
    with pytest.raises(RuntimeError):
        with store.create_shard_writer("ckpt", "rank0", total_bytes=16) as writer:
            writer.pwrite(0, b"x")
            raise RuntimeError("boom")
    assert list(store.checkpoint_dir("ckpt").iterdir()) == []


# ---------------------------------------------------------------------------
# mmap restore
# ---------------------------------------------------------------------------

def test_mmap_zero_copy_deserialize_roundtrip(store):
    state = _state(seed=1)
    raw = serialize_state(state)
    store.write_shard("ckpt", "rank0", [raw])

    with store.open_shard_mmap("ckpt", "rank0") as mapped:
        assert len(mapped) == len(raw)
        loaded = deserialize_state(mapped.data, copy=False)
        for key, value in state["model"].items():
            np.testing.assert_array_equal(loaded["model"][key], value)
        # Zero-copy views are read-only windows into the map.
        assert not loaded["model"]["w0"].flags.writeable
    # The arrays keep the (closed-pending) map alive and readable.
    assert float(loaded["model"]["w1"][0]) == float(state["model"]["w1"][0])


def test_mmap_materialized_deserialize_is_writable(store):
    state = _state(seed=2)
    store.write_shard("ckpt", "rank0", [serialize_state(state)])
    with store.open_shard_mmap("ckpt", "rank0") as mapped:
        loaded = deserialize_state(mapped.data, copy=True)
    loaded["model"]["w0"][:] = 0.0  # writable, independent of the map
    np.testing.assert_array_equal(loaded["model"]["w1"], state["model"]["w1"])


def test_open_shard_mmap_missing_shard_raises(store):
    with pytest.raises(CheckpointError):
        store.open_shard_mmap("nope", "rank0")


# ---------------------------------------------------------------------------
# Parallel flush path end to end
# ---------------------------------------------------------------------------

class _StreamingOnlyStore(FileStore):
    """A file store without offset-addressed writers: engines stream to it."""

    create_shard_writer = None


class _UnmappedStore(FileStore):
    """A file store that cannot map: the loader lands every part."""

    open_shard_mmap = None


def _engine(store, host_buffer=32 << 20):
    return DataStatesCheckpointEngine(
        store, policy=CheckpointPolicy(host_buffer_size=host_buffer))


def test_parallel_and_streaming_paths_produce_identical_files(tmp_path):
    state = _state(seed=3)
    raws = {}
    for mode, store_cls in (("parallel", FileStore), ("streaming", _StreamingOnlyStore)):
        store = store_cls(tmp_path / mode)
        engine = _engine(store)
        engine.save(state, tag="ckpt", iteration=0)
        engine.wait_all()
        engine.shutdown()
        raws[mode] = store.read_shard("ckpt", "rank0")
        manifest = store.read_manifest("ckpt")
        assert manifest["shards"][0]["checksum"] == crc32(raws[mode])
    assert raws["parallel"] == raws["streaming"]


def test_out_of_order_written_shard_passes_restart_validation(store):
    """The acceptance property: a shard written by concurrent out-of-order
    pwrites must survive restart-time checksum validation and round-trip
    bit-exactly."""
    state = _state(seed=4, tensors=12, size=8192)
    engine = _engine(store)
    engine.save(state, tag="ooo", iteration=1)
    engine.wait_all()
    engine.shutdown()

    loader = CheckpointLoader(store)
    manifest = loader.validate("ooo")
    record = manifest.shards[0]
    # The parallel path records per-tensor CRCs; both the folded whole-file
    # checksum and every per-tensor checksum must hold.
    assert record.tensor_checksums is not None
    assert len(record.tensor_checksums) == 12
    loader.verify_tensor_checksums("ooo", record)
    # The per-tensor verify also works for stores without mmap.
    CheckpointLoader(_UnmappedStore(store.root)).verify_tensor_checksums("ooo", record)

    loaded = loader.restore(RestoreSpec.of_rank(0, tag="ooo"))
    for key, value in state["model"].items():
        np.testing.assert_array_equal(loaded["model"][key], value)


def test_corruption_in_parallel_written_shard_detected(store):
    engine = _engine(store)
    engine.save(_state(seed=5), tag="ckpt", iteration=0)
    engine.wait_all()
    engine.shutdown()

    path = store.shard_path("ckpt", "rank0")
    raw = bytearray(path.read_bytes())
    raw[-100] ^= 0xFF
    path.write_bytes(bytes(raw))

    loader = CheckpointLoader(store)
    with pytest.raises(ConsistencyError):
        loader.validate("ckpt")
    record = loader.manifest("ckpt").shards[0]
    with pytest.raises(ConsistencyError):
        loader.verify_tensor_checksums("ckpt", record)


def test_parallel_capture_failure_aborts_and_releases_pool(store):
    """A capture that dies mid-flush must abort the pwrite writer (no torn
    shard published) and release every staged allocation."""
    pool = PinnedHostPool(1 << 20)
    state = _state(seed=6, tensors=4, size=512)
    flattened = flatten_state_dict(state)
    header = build_header(flattened)
    broken = list(flattened.tensors)
    broken[2] = broken[2].__class__(
        path=broken[2].path, shape=broken[2].shape, dtype=broken[2].dtype,
        nbytes=broken[2].nbytes, device=broken[2].device, payload=None,
    )
    snapshot = SnapshotJob(tag="bad", shard_name="rank0", header=header,
                           skeleton=flattened.skeleton_bytes(), tensors=broken)
    stream = CopyStream(pool)
    pipeline = FlushPipeline(store, pool, rank=0, parallel_shard_writes=True)
    try:
        stream.submit(snapshot)
        job = pipeline.submit(snapshot)
        with pytest.raises(CheckpointError):
            job.wait(timeout=10.0)
        assert not store.shard_path("bad", "rank0").exists()
        assert list(store.checkpoint_dir("bad").iterdir()) == []
        assert pool.used_bytes == 0
    finally:
        stream.shutdown()
        pipeline.shutdown(wait=False)


def test_parallel_flag_falls_back_without_pwrite_store(tmp_path):
    """Stores that cannot hand out offset writers silently use streaming."""
    pool = PinnedHostPool(1 << 20)
    pipeline = FlushPipeline(_StreamingOnlyStore(tmp_path), pool)
    try:
        assert not pipeline.parallel_shard_writes
    finally:
        pipeline.shutdown(wait=False)


# ---------------------------------------------------------------------------
# Loader: single-pass validation + mmap reads
# ---------------------------------------------------------------------------

class _CountingStore(FileStore):
    def __init__(self, root):
        super().__init__(root)
        self.reads = 0
        self.maps = 0

    def read_shard(self, tag, shard_name, out=None):
        self.reads += 1
        return super().read_shard(tag, shard_name, out=out)

    def open_shard_mmap(self, tag, shard_name):
        self.maps += 1
        return super().open_shard_mmap(tag, shard_name)


def _commit_checkpoint(store, state, tag="ckpt"):
    engine = _engine(store)
    engine.save(state, tag=tag, iteration=0)
    engine.wait_all()
    engine.shutdown()


def test_load_all_with_validation_reads_each_shard_once(tmp_path):
    store = _CountingStore(tmp_path)
    state = _state(seed=7)
    _commit_checkpoint(store, state)

    loader = CheckpointLoader(store)
    store.reads = store.maps = 0
    states = loader.restore(RestoreSpec.full(tag="ckpt", validate=True, use_mmap=False))
    assert store.reads == 1  # previously: one read to validate + one to load
    np.testing.assert_array_equal(states[0]["model"]["w0"], state["model"]["w0"])

    store.reads = store.maps = 0
    states = loader.restore(RestoreSpec.full(tag="ckpt", validate=True, use_mmap=True))
    assert store.reads == 0 and store.maps == 1
    np.testing.assert_array_equal(states[0]["model"]["w3"], state["model"]["w3"])


def test_loader_mmap_detects_truncation_on_load(tmp_path):
    store = FileStore(tmp_path)
    _commit_checkpoint(store, _state(seed=9))
    path = store.shard_path("ckpt", "rank0")
    path.write_bytes(path.read_bytes()[:-32])
    loader = CheckpointLoader(store)
    with pytest.raises(ConsistencyError):
        loader.restore(RestoreSpec.full(tag="ckpt", validate=True))


# ---------------------------------------------------------------------------
# Engine policy knobs (satellite fixes)
# ---------------------------------------------------------------------------

def test_explicit_host_buffer_size_overrides_policy(store):
    policy = CheckpointPolicy(host_buffer_size=64 << 20)
    engine = DataStatesCheckpointEngine(store, policy=policy,
                                        host_buffer_size=8 << 20)
    try:
        assert engine.pool.capacity == 8 << 20
        assert engine.policy.host_buffer_size == 8 << 20
    finally:
        engine.shutdown(wait=False)


def test_policy_host_buffer_size_used_when_no_override(store):
    engine = DataStatesCheckpointEngine(
        store, policy=CheckpointPolicy(host_buffer_size=4 << 20))
    try:
        assert engine.pool.capacity == 4 << 20
    finally:
        engine.shutdown(wait=False)


def test_write_manifest_failure_leaves_no_temp_files(store, monkeypatch):
    import repro.io.filestore as filestore_module

    def broken_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(filestore_module.os, "replace", broken_replace)
    with pytest.raises(OSError):
        store.write_manifest("ckpt", {"tag": "ckpt"})
    monkeypatch.undo()
    leftovers = [p for p in store.checkpoint_dir("ckpt").iterdir()]
    assert leftovers == []


def test_engine_load_spec_without_mmap_lands_the_part(tmp_path):
    """Restore options are per call: the spec, not the engine, picks the
    landing path."""
    store = _CountingStore(tmp_path)
    state = _state(seed=10)
    engine = _engine(store)
    engine.save(state, tag="ckpt", iteration=0)
    engine.wait_all()
    store.reads = store.maps = 0
    loaded = engine.load(RestoreSpec(tag="ckpt", use_mmap=False))
    engine.shutdown()
    assert store.reads == 1 and store.maps == 0
    np.testing.assert_array_equal(loaded["model"]["w0"], state["model"]["w0"])
    assert loaded["model"]["w0"].flags.writeable


def test_datastates_engine_runs_one_copy_thread(tmp_path):
    before = set(threading.enumerate())

    def new_copy_threads():
        return [thread for thread in threading.enumerate()
                if thread not in before and thread.name.startswith("d2h-copy-")]

    policy = CheckpointPolicy(host_buffer_size=8 << 20, shards_per_rank=4)
    with DataStatesCheckpointEngine(FileStore(tmp_path), policy=policy) as engine:
        engine.save(_state(seed=12, tensors=8), tag="ckpt", iteration=0)
        engine.wait_all()
        assert [thread.name for thread in new_copy_threads()] == ["d2h-copy-r0-c0"]
    assert new_copy_threads() == []


def test_engine_load_uses_mmap_by_default(tmp_path):
    store = _CountingStore(tmp_path)
    state = _state(seed=11)
    engine = _engine(store)
    engine.save(state, tag="ckpt", iteration=0)
    engine.wait_all()
    store.reads = store.maps = 0
    loaded = engine.load(RestoreSpec(tag="ckpt"))
    engine.shutdown()
    assert store.maps == 1 and store.reads == 0
    # Engine loads are materialised: training mutates them in place.
    assert loaded["model"]["w0"].flags.writeable


def test_deadline_iter_without_a_timeout_waits_unboundedly():
    assert list(deadline_iter(["a", "b"], None)) == [("a", None), ("b", None)]


def test_deadline_iter_shares_one_deadline_across_items():
    """The caller's timeout bounds the whole wait: each item gets what is
    left of it, and an exhausted budget still polls once."""
    remaining = []
    for item, left in deadline_iter(range(3), 0.05):
        remaining.append(left)
        if item == 1:
            time.sleep(0.06)
    assert 0 < remaining[1] <= remaining[0] <= 0.05
    assert remaining[2] == 1e-6
