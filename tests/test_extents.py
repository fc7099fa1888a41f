"""Tests for coalesced extents end to end: the extent planner, capture-side
checksums, the single flush loop over both sinks (offset-addressed writer and
streaming ``write_shard``), its failure paths, and the on-disk identity the
whole change rests on."""

import dataclasses
import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CheckpointPolicy
from repro.core import CopyStream, DataStatesCheckpointEngine, FlushPipeline, SnapshotJob
from repro.core.lazy_snapshot import MAX_EXTENT_BYTES
from repro.exceptions import CheckpointError
from repro.io import FileStore
from repro.memory import PinnedHostPool
from repro.restart import CheckpointLoader, RestoreSpec
from repro.serialization import (
    TensorEntry,
    build_header,
    plan_extents,
    plan_shards,
    serialize_part,
    serialize_state,
)
from repro.tensor import flatten_state_dict


# ---------------------------------------------------------------------------
# The extent planner (pure)
# ---------------------------------------------------------------------------

def _entries(sizes, gaps=()):
    """Header entries of the given sizes, laid out back to back except for a
    hole before every index in ``gaps``."""
    entries, offset = [], 0
    for index, nbytes in enumerate(sizes):
        if index in gaps:
            offset += 7
        entries.append(TensorEntry(key=f"t{index}", dtype="uint8", shape=(nbytes,),
                                   offset=offset, nbytes=nbytes))
        offset += nbytes
    return tuple(entries)


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.one_of(st.just(0), st.integers(0, 64), st.integers(0, 5000)),
                      max_size=60),
       limit=st.integers(0, 4096),
       gaps=st.sets(st.integers(0, 59), max_size=4))
def test_plan_extents_properties(sizes, limit, gaps):
    entries = _entries(sizes, gaps)
    extents = plan_extents(entries, limit)
    # Every entry exactly once, in order, no empty run.
    covered = [index for start, stop in extents for index in range(start, stop)]
    assert covered == list(range(len(entries)))
    assert all(stop > start for start, stop in extents)
    for start, stop in extents:
        run = entries[start:stop]
        # At most ``limit`` bytes unless the run is a single tensor ...
        assert stop - start == 1 or sum(entry.nbytes for entry in run) <= limit
        # ... and adjacent in the payload region, so one buffer holds it.
        for left, right in zip(run, run[1:]):
            assert right.offset == left.offset + left.nbytes
    # Greedy: two neighbouring runs could not have been one.
    for (start, middle), (_middle, stop) in zip(extents, extents[1:]):
        merged = entries[start:stop]
        adjacent = all(right.offset == left.offset + left.nbytes
                       for left, right in zip(merged, merged[1:]))
        assert not adjacent or sum(entry.nbytes for entry in merged) > limit


def test_plan_extents_edge_cases():
    assert plan_extents((), 1024) == []
    # Zero-length tensors ride inside whatever run they fall in.
    assert plan_extents(_entries([0, 0, 0]), 1024) == [(0, 3)]
    assert plan_extents(_entries([10, 0, 10, 0]), 20) == [(0, 4)]
    # A tensor larger than the limit is an extent of its own.
    assert plan_extents(_entries([10, 5000, 10, 10]), 100) == [(0, 1), (1, 2), (2, 4)]
    # A hole in the payload region always splits.
    assert plan_extents(_entries([10, 10, 10], gaps={2}), 100) == [(0, 2), (2, 3)]


# ---------------------------------------------------------------------------
# Golden: bytes, whole-file checksum and per-tensor checksums, both sinks
# ---------------------------------------------------------------------------

class _StreamingOnlyStore(FileStore):
    """A file store without the offset-addressed writer (the CAS / faulty /
    test-double shape): the pipeline must stream through ``write_shard``."""

    create_shard_writer = None


def _many_small_tensors(count=300, seed=0):
    rng = np.random.default_rng(seed)
    state = {"layers": {}, "step": 7, "note": "golden"}
    for index in range(count):
        size = int(rng.integers(0, 700))  # includes zero-length tensors
        dtype = (np.float32, np.float64, np.int16, np.uint8)[index % 4]
        state["layers"][f"t{index:03d}"] = rng.integers(0, 255, size=size).astype(dtype)
    state["layers"]["big"] = rng.normal(size=40_000)  # larger than the extent limit
    state["layers"]["empty2d"] = np.zeros((3, 0), dtype=np.float32)
    state["layers"]["strided"] = np.arange(600, dtype=np.int32)[::3]
    state["layers"]["scalar"] = np.float64(3.25) * np.ones(())
    return state


@pytest.mark.parametrize("sink", ["writer", "streaming"])
@pytest.mark.parametrize("shards_per_rank", [1, 3])
def test_golden_bytes_and_checksums_through_both_sinks(tmp_path, sink, shards_per_rank):
    state = _many_small_tensors()
    store = (FileStore if sink == "writer" else _StreamingOnlyStore)(tmp_path)
    # A 64 KiB pool: extents of at most 16 KiB, so the state is many extents
    # (and the big tensor is one of its own) and the ring wraps repeatedly.
    policy = CheckpointPolicy(host_buffer_size=max(64 << 10, 40_000 * 8),
                              shards_per_rank=shards_per_rank, chunk_size=5000)
    with DataStatesCheckpointEngine(store, policy=policy) as engine:
        engine.save(state, tag="golden", iteration=3)
        engine.wait_all()
        assert engine.pool.used_bytes == 0

    plan = plan_shards(flatten_state_dict(state), "rank0", shards_per_rank=shards_per_rank)
    manifest = CheckpointLoader(store).validate("golden")
    assert [record.name for record in manifest.shards] == [part.name for part in plan.parts]
    for part, record in zip(plan.parts, manifest.shards):
        raw = store.read_shard("golden", part.name)
        assert raw == serialize_part(part, plan.skeleton)
        assert record.nbytes == len(raw)
        assert record.checksum == zlib.crc32(raw)
        if sink == "writer":
            payload = raw[len(raw) - part.payload_bytes:]
            assert tuple(record.tensor_checksums) == tuple(
                zlib.crc32(payload[entry.offset:entry.offset + entry.nbytes])
                for entry in part.header.entries)
        else:
            assert record.tensor_checksums is None
    if shards_per_rank == 1:
        assert store.read_shard("golden", "rank0") == serialize_state(state)


# ---------------------------------------------------------------------------
# Failure paths: nothing stays staged, nothing is published, on both sinks
# ---------------------------------------------------------------------------

class _FailingWriterStore(FileStore):
    """The ``fail_on``-th pwrite of every writer raises (0 is the preamble)."""

    fail_on = 2

    def create_shard_writer(self, tag, shard_name, total_bytes):
        writer = super().create_shard_writer(tag, shard_name, total_bytes)
        real, calls = writer.pwrite, itertools.count()

        def pwrite(offset, data):
            if next(calls) == self.fail_on:
                raise OSError("injected pwrite failure")
            return real(offset, data)

        writer.pwrite = pwrite
        return writer


class _FailingStreamStore(_StreamingOnlyStore):
    """``write_shard`` dies after pulling ``fail_on`` chunks (0 is the preamble)."""

    fail_on = 2

    def write_shard(self, tag, shard_name, chunks):
        def limited():
            for index, chunk in enumerate(chunks):
                if index == self.fail_on:
                    raise OSError("injected stream failure")
                yield chunk

        return super().write_shard(tag, shard_name, limited())


def _snapshot(state, tag="ckpt", corrupt=None):
    flattened = flatten_state_dict(state)
    tensors = list(flattened.tensors)
    if corrupt is not None:
        index, payload = corrupt
        tensors[index] = dataclasses.replace(tensors[index], payload=payload)
    return SnapshotJob(tag=tag, shard_name="rank0", header=build_header(flattened),
                       skeleton=flattened.skeleton_bytes(), tensors=tensors)


def _assert_nothing_left(store, pool, tag="ckpt"):
    assert pool.used_bytes == 0
    assert not store.shard_path(tag, "rank0").exists()
    directory = store.checkpoint_dir(tag)
    assert not directory.exists() or list(directory.iterdir()) == []


@pytest.mark.parametrize("store_cls", [_FailingWriterStore, _FailingStreamStore],
                         ids=["writer", "streaming"])
def test_write_failure_keeps_draining_so_the_capture_never_wedges(tmp_path, store_cls):
    # 1 MiB of state through a 256 KiB pool: unless the failed flush keeps
    # consuming and freeing extents, the capture blocks on pool space forever.
    state = {f"t{index:02d}": np.full(8192, index, dtype=np.float64) for index in range(16)}
    store = store_cls(tmp_path)
    pool = PinnedHostPool(256 << 10)
    stream = CopyStream(pool)
    pipeline = FlushPipeline(store, pool, parallel_shard_writes=True, chunk_size=1 << 20)
    snapshot = _snapshot(state)
    try:
        stream.submit(snapshot)
        job = pipeline.submit(snapshot)
        with pytest.raises(CheckpointError, match="injected"):
            job.wait(timeout=30.0)
        assert snapshot.wait_captured(timeout=30.0)  # ran to its end, no error
        _assert_nothing_left(store, pool)
    finally:
        stream.shutdown()
        pipeline.shutdown(wait=False)


@pytest.mark.parametrize("store_cls", [FileStore, _StreamingOnlyStore],
                         ids=["writer", "streaming"])
@pytest.mark.parametrize("corrupt", [
    # A broken reference: caught while resolving the extent's payloads,
    # before any pool space is reserved for it.
    (70, None),
    # A payload that does not fit its header entry: caught mid-copy, with the
    # extent's allocation in hand.
    (70, np.zeros(3, dtype=np.uint8)),
], ids=["unresolvable", "mid-copy"])
def test_capture_failure_mid_extent_frees_it_and_surfaces(tmp_path, store_cls, corrupt):
    # 100 x 1 KiB tensors, 16 KiB extents: tensor 70 sits inside the fifth.
    state = {f"t{index:03d}": np.full(128, index, dtype=np.float64) for index in range(100)}
    store = store_cls(tmp_path)
    pool = PinnedHostPool(64 << 10)
    stream = CopyStream(pool)
    pipeline = FlushPipeline(store, pool, parallel_shard_writes=True)
    snapshot = _snapshot(state, corrupt=corrupt)
    try:
        stream.submit(snapshot)
        job = pipeline.submit(snapshot)
        with pytest.raises(CheckpointError):
            job.wait(timeout=30.0)
        with pytest.raises(CheckpointError):
            snapshot.wait_captured(timeout=30.0)
        _assert_nothing_left(store, pool)
    finally:
        stream.shutdown()
        pipeline.shutdown(wait=False)


def test_writer_setup_failure_drains_the_staging_queue(tmp_path):
    """``create_shard_writer`` failing (a backpressure timeout, a full disk)
    happens before the first extent is consumed; the queue is drained all the
    same."""

    class _NoWriterToday(FileStore):
        def create_shard_writer(self, tag, shard_name, total_bytes):
            raise CheckpointError("injected: no writer")

    state = {f"t{index}": np.full(8192, index, dtype=np.float64) for index in range(8)}
    store = _NoWriterToday(tmp_path)
    pool = PinnedHostPool(128 << 10)
    stream = CopyStream(pool)
    pipeline = FlushPipeline(store, pool, parallel_shard_writes=True)
    snapshot = _snapshot(state)
    try:
        stream.submit(snapshot)
        with pytest.raises(CheckpointError, match="injected"):
            pipeline.submit(snapshot).wait(timeout=30.0)
        assert snapshot.wait_captured(timeout=30.0)
        _assert_nothing_left(store, pool)
    finally:
        stream.shutdown()
        pipeline.shutdown(wait=False)


# ---------------------------------------------------------------------------
# The structure-keyed plan cache
# ---------------------------------------------------------------------------

def _base_state(seed):
    rng = np.random.default_rng(seed)
    return {"model": {"w": rng.normal(size=(32, 8)).astype(np.float32),
                      "b": rng.normal(size=32).astype(np.float32),
                      "e": rng.normal(size=(4, 4))},
            "optimizer": {"m": rng.normal(size=(32, 8)), "step": seed},
            "iteration": seed}


def _added_tensor(state):
    state["model"]["extra"] = np.arange(5, dtype=np.int64)


def _changed_shape(state):
    state["model"]["w"] = state["model"]["w"].reshape(8, 32)


def _changed_dtype(state):
    state["model"]["b"] = state["model"]["b"].astype(np.int32)  # same nbytes


def _renamed_key(state):
    state["model"]["w2"] = state["model"].pop("w")


@pytest.mark.parametrize("shards_per_rank", [1, 2])
@pytest.mark.parametrize("mutate, next_shards, recomputed", [
    (None, None, False),
    (_added_tensor, None, True),
    (_changed_shape, None, True),
    (_changed_dtype, None, True),
    (_renamed_key, None, True),
    (None, 3, True),
], ids=["same-structure", "added-tensor", "changed-shape", "changed-dtype",
        "renamed-key", "changed-shards-per-rank"])
def test_plan_cache_hits_on_structure_and_misses_on_any_change(
        tmp_path, monkeypatch, shards_per_rank, mutate, next_shards, recomputed):
    import repro.core.base_engine as base_engine

    planned = []

    def counting_plan_shards(*args, **kwargs):
        planned.append(kwargs)
        return plan_shards(*args, **kwargs)

    monkeypatch.setattr(base_engine, "plan_shards", counting_plan_shards)
    store = FileStore(tmp_path)
    policy = CheckpointPolicy(host_buffer_size=1 << 20, shards_per_rank=shards_per_rank)
    with DataStatesCheckpointEngine(store, policy=policy) as engine:
        engine.save(_base_state(seed=1), tag="base", iteration=1)
        engine.wait_all()
        # Every array object is replaced (a new seed), non-tensor leaves change.
        state = _base_state(seed=2)
        if mutate is not None:
            mutate(state)
        if next_shards is not None:
            engine.policy = engine.policy.with_overrides(shards_per_rank=next_shards)
        engine.save(state, tag="next", iteration=2)
        engine.wait_all()
    assert len(planned) == (2 if recomputed else 1)

    # Hit or miss, what landed is what an uncached plan of this state writes.
    fresh = plan_shards(flatten_state_dict(state), "rank0",
                        shards_per_rank=next_shards or shards_per_rank)
    for part in fresh.parts:
        assert store.read_shard("next", part.name) == serialize_part(part, fresh.skeleton)
    restored = CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag="next"))
    assert restored["iteration"] == 2 and restored["optimizer"]["step"] == 2
    for group in ("model", "optimizer"):
        assert list(restored[group]) == list(state[group])
        for key, value in state[group].items():
            if isinstance(value, np.ndarray):
                assert restored[group][key].dtype == value.dtype
                assert restored[group][key].shape == value.shape
                assert restored[group][key].tobytes() == value.tobytes()


def test_plan_cache_does_not_pin_the_state(tmp_path):
    import gc
    import weakref

    engine = DataStatesCheckpointEngine(FileStore(tmp_path), host_buffer_size=1 << 20)
    try:
        state = _base_state(seed=3)
        alive = weakref.ref(state["model"]["w"])
        plan = engine.plan_shards(flatten_state_dict(state), "rank0")
        assert plan.parts[0].tensors[0].payload is not None
        del state, plan
        gc.collect()
        assert alive() is None
    finally:
        engine.shutdown(wait=False)


# ---------------------------------------------------------------------------
# Extent sizing follows the pool
# ---------------------------------------------------------------------------

def test_extent_limit_is_a_quarter_of_a_small_pool():
    state = {f"t{index:02d}": np.full(128, index, dtype=np.float64) for index in range(32)}
    pool = PinnedHostPool(64 << 10)
    snapshot = _snapshot(state)
    snapshot.capture(pool)
    sizes = []
    while (extent := snapshot.staged.get()) is not None:
        sizes.append(extent.allocation.size)
        assert len(extent.crcs) == len(extent.entries)
        pool.free(extent.allocation)
    assert sizes == [16 << 10, 16 << 10]
    assert MAX_EXTENT_BYTES == 4 << 20
