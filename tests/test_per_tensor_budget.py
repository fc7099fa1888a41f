"""A deterministic per-tensor budget for the datastates save path.

Call counts, not times: between ``save()`` returning and the manifest vote
nothing may cost a call chain per tensor.  The pipeline stages and writes
*extents* (runs of file-adjacent tensors, at most 4 MiB or a quarter of the
pool), so the number of pool allocations and of ``pwrite`` calls is set by the
bytes of the state and does not move when the same bytes are cut into twice as
many tensors.

The same kind of budget holds the incremental dirty scan in place: each
engine CRCs a part where it reads the part's tensors — ``datastates`` on its
copy thread, never on the caller's, and once per tensor per save — and all
four engines still write the same manifests.

And the restore side: a CAS restore reads each chunk once, straight into its
slice of the one buffer its part lands in, and a single-dtype state comes back
as views of those buffers — one read per chunk, one buffer per part, no copy
per tensor.
"""

import threading
import zlib

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import ENGINE_NAMES, DataStatesCheckpointEngine, create_real_engine
from repro.core.lazy_snapshot import MAX_EXTENT_BYTES
from repro.io import CASStore, FileStore
from repro.restart import RestoreSpec
from repro.serialization import build_header, plan_extents, plan_shards
from repro.tensor import flatten_state_dict

STATE_BYTES = 8 << 20
POOL_BYTES = 32 << 20


class _CountingFileStore(FileStore):
    """Counts every ``pwrite`` issued through the writers it hands out."""

    def __init__(self, root):
        super().__init__(root)
        self.pwrites = 0
        self.pwrite_bytes = 0

    def create_shard_writer(self, tag, shard_name, total_bytes):
        writer = super().create_shard_writer(tag, shard_name, total_bytes)
        real = writer.pwrite

        def pwrite(offset, data):
            self.pwrites += 1
            written = real(offset, data)
            self.pwrite_bytes += written
            return written

        writer.pwrite = pwrite
        return writer


def _state(tensors):
    each = STATE_BYTES // tensors // 4
    return {f"t{index:04d}": np.full(each, index, dtype=np.float32)
            for index in range(tensors)}


def _save_counting(tmp_path, tensors):
    state = _state(tensors)
    store = _CountingFileStore(tmp_path / f"n{tensors}")
    engine = DataStatesCheckpointEngine(
        store, policy=CheckpointPolicy(host_buffer_size=POOL_BYTES))
    allocations = []
    real_allocate = engine.pool.allocate

    def allocate(size, *args, **kwargs):
        allocations.append(size)
        return real_allocate(size, *args, **kwargs)

    engine.pool.allocate = allocate
    try:
        engine.save(state, tag="ckpt", iteration=0)
        engine.wait_all()
        restored = engine.load(RestoreSpec(tag="ckpt"))
    finally:
        engine.shutdown()
    for key, value in state.items():
        np.testing.assert_array_equal(restored[key], value)
    header = build_header(flatten_state_dict(state))
    extents = len(plan_extents(header.entries, min(MAX_EXTENT_BYTES, POOL_BYTES // 4)))
    shard_bytes = store.shard_size("ckpt", "rank0")
    assert store.pwrite_bytes == shard_bytes
    return extents, store.pwrites, len(allocations)


@pytest.mark.parametrize("tensors", [512, 1024])
def test_pwrites_and_pool_allocations_are_per_extent(tmp_path, tensors):
    extents, pwrites, allocations = _save_counting(tmp_path, tensors)
    assert extents == STATE_BYTES // MAX_EXTENT_BYTES  # 2: a matter of bytes
    assert pwrites <= extents + 1  # + the preamble
    assert allocations <= extents


def test_doubling_the_tensor_count_at_equal_bytes_adds_no_calls(tmp_path):
    assert _save_counting(tmp_path, 512) == _save_counting(tmp_path, 1024)


# ---------------------------------------------------------------------------
# The restore side: one read per chunk, one buffer per part, no copy per tensor
# ---------------------------------------------------------------------------

class _CountingReads(FileStore):
    """Records the ``out`` of every whole-shard read."""

    def __init__(self, root):
        super().__init__(root)
        self.outs = []

    def read_shard(self, tag, shard_name, out=None):
        self.outs.append(out)
        return super().read_shard(tag, shard_name, out=out)


@pytest.mark.parametrize("tensors", [64, 128])
def test_a_cas_restore_reads_each_chunk_once_into_one_buffer_per_part(tmp_path, tensors):
    parts, chunk_bytes = 4, 256 * 1024
    inner = _CountingReads(tmp_path)
    store = CASStore(inner, chunk_bytes=chunk_bytes)
    state = _state(tensors)
    with create_real_engine("datastates", store, policy=CheckpointPolicy(
            host_buffer_size=POOL_BYTES, shards_per_rank=parts)) as engine:
        engine.save(state, tag="ckpt", iteration=0)
        engine.wait_all()
        records = store.read_manifest("ckpt")["shards"]
        chunks = sum(len(record["chunks"]) for record in records)
        assert len(records) == parts and chunks >= STATE_BYTES // chunk_bytes
        inner.outs.clear()
        restored = engine.load(RestoreSpec(tag="ckpt"))

    for key, value in state.items():
        np.testing.assert_array_equal(restored[key], value)
    # C inner reads, every one handed the slice of a landing buffer to fill.
    assert len(inner.outs) == chunks
    assert all(isinstance(out, memoryview) and not out.readonly for out in inner.outs)
    landings = {id(out.obj) for out in inner.outs}
    assert len(landings) == parts
    # No ndarray.copy: every array is a writable view of one of the P buffers.
    for array in restored.values():
        assert array.flags.writeable and array.flags.aligned and not array.flags.owndata
        owner = array
        while isinstance(owner, np.ndarray) and id(owner) not in landings:
            owner = owner.base.obj if isinstance(owner.base, memoryview) else owner.base
        assert id(owner) in landings


# ---------------------------------------------------------------------------
# Where the incremental dirty scan runs
# ---------------------------------------------------------------------------

#: Sixteen tensors of pairwise different sizes, so a CRC call is attributed
#: to its tensor by its byte count alone.
SCAN_SIZES = [4096 + 64 * index for index in range(16)]


def _half_frozen_state(step):
    """The tensors of every other shard part change with ``step``; the rest
    (and the non-tensor leaf) never do."""
    state = {**{f"t{index:02d}": np.full(size // 8, index, dtype=np.float64)
                for index, size in enumerate(SCAN_SIZES)}, "note": "constant"}
    plan = plan_shards(flatten_state_dict(state), "rank0", shards_per_rank=4)
    for part in plan.parts[1::2]:
        for ref in part.tensors:
            np.add(ref.payload, step, out=ref.payload)
    return state


def _incremental_engine(engine_name, root):
    return create_real_engine(
        engine_name, CASStore(FileStore(root), chunk_bytes=8192),
        policy=CheckpointPolicy(host_buffer_size=4 << 20, incremental=True,
                                shards_per_rank=4))


def _crc_calls_of_an_incremental_save(engine_name, root, monkeypatch):
    """``(thread name, nbytes)`` of every ``zlib.crc32`` call made between an
    incremental ``save()`` and the end of its ``wait_all()``."""
    calls = []
    real = zlib.crc32

    def recording(data, *args):
        calls.append((threading.current_thread().name, memoryview(data).nbytes))
        return real(data, *args)

    with _incremental_engine(engine_name, root) as engine:
        engine.save(_half_frozen_state(0), "ckpt-0", iteration=0)
        engine.wait_all()
        monkeypatch.setattr(zlib, "crc32", recording)
        engine.save(_half_frozen_state(1), "ckpt-1", iteration=1)
        engine.wait_all()
        monkeypatch.undo()
        assert 0 < engine.stats()["parts_referenced"] < 4
    return calls


def test_datastates_scans_on_the_copy_thread_and_hashes_each_tensor_once(
        tmp_path, monkeypatch):
    calls = _crc_calls_of_an_incremental_save("datastates", tmp_path, monkeypatch)
    caller = threading.current_thread().name
    payload = [(thread, nbytes) for thread, nbytes in calls if nbytes in SCAN_SIZES]
    assert [call for call in payload if call[0] == caller] == []
    assert sorted(nbytes for _thread, nbytes in payload) == SCAN_SIZES
    assert {thread for thread, _nbytes in payload} == {"d2h-copy-r0-c0"}


@pytest.mark.parametrize("engine_name",
                         [name for name in ENGINE_NAMES if name != "datastates"])
def test_engines_that_read_inside_save_scan_on_the_calling_thread(
        engine_name, tmp_path, monkeypatch):
    calls = _crc_calls_of_an_incremental_save(engine_name, tmp_path, monkeypatch)
    caller = threading.current_thread().name
    on_caller = [nbytes for thread, nbytes in calls if thread == caller]
    assert all(size in on_caller for size in SCAN_SIZES)


def test_all_four_engines_write_the_same_incremental_manifests(tmp_path):
    """Five seeded saves, half the tensors frozen: chunk lists, checksums and
    reference counts are the same whichever engine ran the scan, wherever it
    ran it.  Per-tensor CRCs are equal wherever a record carries them
    (``datastates``' streaming sink records them only on referenced parts)."""
    written = {}
    for engine_name in ENGINE_NAMES:
        root = tmp_path / engine_name
        referenced = []
        with _incremental_engine(engine_name, root) as engine:
            for step in range(5):
                engine.save(_half_frozen_state(step), f"ckpt-{step}", iteration=step)
                engine.wait_all()
                referenced.append(engine.stats()["parts_referenced"])
            shards = {
                (tag, record["name"]): record
                for tag in engine.list_checkpoints()
                for record in engine.store.read_manifest(tag)["shards"]}
        written[engine_name] = (referenced, shards)

    golden_referenced, golden = written["deepspeed"]
    assert golden_referenced[0] == 0 and golden_referenced[-1] > golden_referenced[1] > 0
    assert len(golden) == 5 * 4
    for engine_name, (referenced, shards) in written.items():
        assert referenced == golden_referenced, engine_name
        assert shards.keys() == golden.keys()
        for key, record in shards.items():
            for field in ("chunks", "checksum", "nbytes"):
                assert record[field] == golden[key][field], (engine_name, key, field)
            if engine_name != "datastates" or record.get("tensor_checksums") is not None:
                assert record.get("tensor_checksums") == golden[key].get("tensor_checksums")
    lazy = written["datastates"][1]
    assert any(record.get("tensor_checksums") is not None for record in lazy.values())
