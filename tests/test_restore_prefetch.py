"""Restore-path tests: the prefetching load pipeline, the mmap-handle leak
regression, ``RestoreSpec(validate=False)`` semantics and the restore API's
surface.

Every restore runs at one depth, ``PREFETCH_DEPTH``.  A test parametrized by
``depth`` sets that constant (``None`` leaves it as shipped) to hold the
pipeline's window bookkeeping when the window is narrower or wider than a
set; it is not a caller option.
"""

import dataclasses
import gc
import inspect
import itertools
import threading
from unittest import mock

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import TwoPhaseCommitCoordinator, create_real_engine
from repro.exceptions import CheckpointError, ConsistencyError, RestartError
from repro.io import FileStore, ObjectStore, supports_mmap
from repro.restart import CheckpointLoader, RestoreSpec
from repro.restart import loader as loader_module


def _state(seed=0, tensors=6, size=2048):
    rng = np.random.default_rng(seed)
    return {
        "model": {f"w{i}": rng.normal(size=size) for i in range(tensors)},
        "iteration": seed,
    }


def _commit(store, state, tag="ckpt", shards_per_rank=4):
    policy = CheckpointPolicy(host_buffer_size=16 << 20,
                              shards_per_rank=shards_per_rank)
    with create_real_engine("deepspeed", store, policy=policy) as engine:
        engine.save(state, tag=tag, iteration=0)
        engine.wait_all()


def _set_depth(monkeypatch, depth):
    if depth is not None:
        monkeypatch.setattr(loader_module, "PREFETCH_DEPTH", depth)


class _TrackingStore(FileStore):
    """FileStore that tracks every mmap it hands out and can fail the Nth.

    Thread-safe: the prefetch pipeline opens parts from several workers.
    """

    def __init__(self, root, fail_on_open=None):
        super().__init__(root)
        self._track_lock = threading.Lock()
        self.handed_out = []
        self.opens = 0
        self.fail_on_open = fail_on_open

    def open_shard_mmap(self, tag, shard_name):
        with self._track_lock:
            self.opens += 1
            if self.fail_on_open is not None and self.opens >= self.fail_on_open:
                raise CheckpointError(f"injected failure opening {shard_name!r}")
        mapped = super().open_shard_mmap(tag, shard_name)
        with self._track_lock:
            self.handed_out.append(mapped)
        return mapped


# ---------------------------------------------------------------------------
# mmap-handle leak regression (satellite bugfix)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("opened", [0, 3])
def test_failed_set_open_closes_already_opened_mmaps(tmp_path, opened):
    """If opening a part of a shard-set fails — the first, or the last after
    three opened fine — every already-opened mmap must be closed."""
    store = _TrackingStore(tmp_path)
    _commit(store, _state(seed=1), shards_per_rank=4)

    store.fail_on_open = opened + 1  # this open and every later one raises
    loader = CheckpointLoader(store)
    with pytest.raises(CheckpointError, match="injected failure"):
        loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    assert len(store.handed_out) == opened
    assert all(mapped.data.closed for mapped in store.handed_out)


@pytest.mark.parametrize("victim", [0, 3])
def test_failed_validation_closes_already_opened_mmaps(tmp_path, victim):
    """A CRC failure on one part (the first or the last) must not leak the
    other parts' mappings."""
    store = _TrackingStore(tmp_path)
    _commit(store, _state(seed=2), shards_per_rank=4)

    # Corrupt one part's payload (same size, different bytes -> CRC mismatch).
    path = sorted(store.checkpoint_dir("ckpt").glob("*.shard"))[victim]
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))

    loader = CheckpointLoader(store)
    with pytest.raises(ConsistencyError, match="checksum"):
        loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    assert all(mapped.data.closed for mapped in store.handed_out)


def test_successful_load_closes_every_mmap(tmp_path):
    store = _TrackingStore(tmp_path)
    state = _state(seed=3)
    _commit(store, state, shards_per_rank=4)
    loader = CheckpointLoader(store)
    loaded = loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    np.testing.assert_array_equal(loaded["model"]["w0"], state["model"]["w0"])
    assert len(store.handed_out) == 4
    assert all(mapped.data.closed for mapped in store.handed_out)


# ---------------------------------------------------------------------------
# Prefetching pipeline: equivalence across depths, paths, and backends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("depth", [1, 2, 4, 8])
@pytest.mark.parametrize("use_mmap", [True, False])
def test_prefetch_depths_load_identical_state(tmp_path, monkeypatch, depth, use_mmap):
    store = FileStore(tmp_path)
    state = _state(seed=4)
    _commit(store, state, shards_per_rank=3)
    _set_depth(monkeypatch, depth)
    states = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt", use_mmap=use_mmap))
    for key, array in state["model"].items():
        np.testing.assert_array_equal(states[0]["model"][key], array)
    assert states[0]["iteration"] == 4


@pytest.mark.parametrize("depth", [1, 4])
def test_prefetch_on_object_store(monkeypatch, depth):
    """The object store has no mmap; the prefetch stage overlaps whole-object
    GETs instead, with identical results."""
    store = ObjectStore()
    state = _state(seed=5)
    _commit(store, state, shards_per_rank=3)
    assert not supports_mmap(store)
    _set_depth(monkeypatch, depth)
    loaded = CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag="ckpt"))
    np.testing.assert_array_equal(loaded["model"]["w5"], state["model"]["w5"])


def test_prefetch_overlaps_across_ranks_in_load_all(tmp_path):
    """load_all prefetches across the whole shard-set of every rank."""
    store = FileStore(tmp_path)
    coordinator = TwoPhaseCommitCoordinator(2, store)
    policy = CheckpointPolicy(host_buffer_size=16 << 20, shards_per_rank=2)
    states = {rank: _state(seed=10 + rank) for rank in (0, 1)}
    engines = [
        create_real_engine("async", store, rank=rank, world_size=2,
                           coordinator=coordinator, policy=policy)
        for rank in (0, 1)
    ]
    try:
        for rank, engine in enumerate(engines):
            engine.save(states[rank], tag="ckpt", iteration=1)
        for engine in engines:
            engine.wait_all()
    finally:
        for engine in engines:
            engine.shutdown()

    loader = CheckpointLoader(store)
    loaded = loader.restore(RestoreSpec.full(tag="ckpt"))
    assert sorted(loaded) == [0, 1]
    for rank in (0, 1):
        np.testing.assert_array_equal(loaded[rank]["model"]["w1"],
                                      states[rank]["model"]["w1"])


# ---------------------------------------------------------------------------
# The restore API: a loader takes a store, a spec carries two options
# ---------------------------------------------------------------------------

def test_loader_takes_the_store_only(tmp_path):
    assert list(inspect.signature(CheckpointLoader).parameters) == ["store"]
    for removed in ("verify_checksums", "use_mmap", "materialize", "prefetch_depth"):
        with pytest.raises(TypeError):
            CheckpointLoader(FileStore(tmp_path), **{removed: True})


def test_restore_spec_carries_validate_and_use_mmap_only():
    assert [field.name for field in dataclasses.fields(RestoreSpec)] == [
        "tag", "rank", "shard", "all_ranks", "target_topology", "validate", "use_mmap"]
    for removed in ("materialize", "prefetch_depth"):
        with pytest.raises(TypeError):
            RestoreSpec(**{removed: 1})
        with pytest.raises(TypeError):
            RestoreSpec.of_rank(0, **{removed: 1})


def test_validate_runs_through_the_pipeline_and_releases_it(tmp_path):
    store = _TrackingStore(tmp_path)
    _commit(store, _state(seed=8), shards_per_rank=4)
    loader = CheckpointLoader(store)
    assert [record.name for record in loader.validate("ckpt").shards] == [
        f"rank0-s{index:02d}" for index in range(4)]
    assert len(store.handed_out) == 4
    _assert_released(store, threads=("ckpt-prefetch", "ckpt-validate"))

    _corrupt_one_payload_byte(store, "ckpt")
    store.handed_out.clear()
    with pytest.raises(ConsistencyError, match="checksum"):
        loader.validate("ckpt")
    _assert_released(store, threads=("ckpt-prefetch", "ckpt-validate"))


def test_restore_reports_its_depth_and_per_part_timings(tmp_path):
    store = FileStore(tmp_path)
    _commit(store, _state(seed=9), shards_per_rank=4)
    loader = CheckpointLoader(store)
    loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    assert loader.effective_prefetch_depth == loader_module.PREFETCH_DEPTH == 4
    timings = loader.prefetch_timings()
    assert len(timings["fetch_seconds"]) == len(timings["deserialize_seconds"]) == 4


# ---------------------------------------------------------------------------
# RestoreSpec(validate=False) semantics (satellite bugfix)
# ---------------------------------------------------------------------------

def _corrupt_one_payload_byte(store, tag):
    victim = sorted(store.checkpoint_dir(tag).glob("*.shard"))[0]
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0xFF  # payload corruption: size unchanged, CRC broken
    victim.write_bytes(bytes(raw))


@pytest.mark.parametrize("use_mmap", [True, False])
def test_load_all_validate_false_skips_per_shard_checks(tmp_path, use_mmap):
    """The docstring always promised it; now the flag really skips the
    per-shard size/CRC pass instead of validating anyway."""
    store = FileStore(tmp_path)
    _commit(store, _state(seed=6), shards_per_rank=2)
    _corrupt_one_payload_byte(store, "ckpt")

    loader = CheckpointLoader(store)
    with pytest.raises(ConsistencyError):
        loader.restore(RestoreSpec.full(tag="ckpt", validate=True, use_mmap=use_mmap))
    # validate=False trusts the medium: the corrupted payload loads fine.
    states = loader.restore(RestoreSpec.full(tag="ckpt", validate=False, use_mmap=use_mmap))
    assert states[0]["iteration"] == 6


def test_load_all_validate_false_still_checks_manifest_completeness(tmp_path):
    import json

    store = FileStore(tmp_path)
    _commit(store, _state(seed=7), shards_per_rank=2)
    manifest = store.read_manifest("ckpt")
    manifest["world_size"] = 2  # rank 1 never contributed
    store.manifest_path("ckpt").write_text(json.dumps(manifest), "utf-8")

    loader = CheckpointLoader(store)
    with pytest.raises((ConsistencyError, RestartError)):
        loader.restore(RestoreSpec.full(tag="ckpt", validate=False))


# ---------------------------------------------------------------------------
# A mapped part is checked while it is copied out
# ---------------------------------------------------------------------------

def _assert_released(store, maps=True, threads=("ckpt-prefetch",)):
    """Every map handed out is closed (``maps=False``: none was handed out,
    the parts were landed) and no pipeline thread is left."""
    assert bool(store.handed_out) == maps
    assert all(mapped.data.closed for mapped in store.handed_out)
    assert [thread for thread in threading.enumerate()
            if thread.name.startswith(threads)] == []


@pytest.mark.parametrize("depth", [None, 1])
def test_single_mapped_part_is_checked_while_it_is_decoded(tmp_path, monkeypatch, depth):
    """No timing: the check waits for the decode to start, and completes.
    It runs beside the decode at every depth, one worker included: there
    is no serial path that would check before decoding."""
    store = _TrackingStore(tmp_path)
    state = _state(seed=20)
    _commit(store, state, shards_per_rank=1)
    decoding = threading.Event()
    real_checksum, real_decode = loader_module.checksum_stream, loader_module.decode_rank_state

    def checksum_after_decode_starts(buffer):
        if not decoding.wait(10):
            raise TimeoutError("the check ran before the decode")
        return real_checksum(buffer)

    def decode(*args, **kwargs):
        decoding.set()
        return real_decode(*args, **kwargs)

    monkeypatch.setattr(loader_module, "checksum_stream", checksum_after_decode_starts)
    monkeypatch.setattr(loader_module, "decode_rank_state", decode)
    _set_depth(monkeypatch, depth)
    loaded = CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag="ckpt"))
    np.testing.assert_array_equal(loaded["model"]["w3"], state["model"]["w3"])
    _assert_released(store)


def _elastic_model():
    rng = np.random.default_rng(21)
    return {f"w{i}": rng.standard_normal((8, 6)).astype(np.float32) for i in range(6)}


def _commit_elastic(store, parts):
    from repro.restart import elastic_topology, save_elastic_checkpoint

    model = _elastic_model()
    # w0 is replicated: a full reshape compares rank 1's copy with rank 0's.
    axes = {key: None if key == "w0" else 0 for key in model}
    save_elastic_checkpoint(
        store, {"model": model},
        elastic_topology(model, data_parallel=1, tensor_parallel=2, axes=axes,
                         shards_per_rank=parts),
        tag="ckpt", iteration=1)
    return elastic_topology(model, data_parallel=1, tensor_parallel=1, axes=axes,
                            shards_per_rank=parts)


def _committed(store, parts, mode):
    """Commit a checkpoint of ``parts`` parts per rank; returns the spec that
    restores it in ``mode`` and a check of what that restore returns.

    ``copy`` maps the parts and copies the arrays out (``failed_copy`` too,
    for a test that fails one of the copies); ``views`` lands them unmapped,
    and the arrays are views of the landing buffers; ``reshaped`` maps them
    and remaps the slices onto another grid."""
    if mode == "reshaped":
        target = _commit_elastic(store, parts)
        model = _elastic_model()

        def matches(states):
            for key, array in model.items():
                # One data-parallel rank holds the whole flat partition.
                np.testing.assert_array_equal(states[0]["model"][key], array.ravel())
        return RestoreSpec.full(tag="ckpt").reshaped(target), matches
    state = _state(seed=22)
    _commit(store, state, shards_per_rank=parts)

    def matches(loaded):
        for key, array in state["model"].items():
            np.testing.assert_array_equal(loaded["model"][key], array)
    return RestoreSpec.of_rank(0, tag="ckpt", use_mmap=mode != "views"), matches


def _flip(path, where):
    from repro.serialization import decode_preamble

    raw = bytearray(path.read_bytes())
    if where == "preamble":
        offset = 8 + 8 + 1  # inside the header table, past magic and length
    elif where == "first_tensor":
        header, _skeleton, payload_start = decode_preamble(bytes(raw))
        offset = payload_start + header.entries[0].offset
    else:
        offset = len(raw) - 1
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


def _fail_one_worker_copy(monkeypatch):
    """The first group of a copy-out that a prefetch worker copies, not the
    consumer, raises ``MemoryError``; returns the count of worker copies
    begun so far."""
    real_copy, consumer = loader_module.copy_pairs, threading.current_thread()
    worker_copies = itertools.count()

    def copy_or_fail(pairs, indices):
        if threading.current_thread() is not consumer and next(worker_copies) == 0:
            raise MemoryError("injected copy failure")
        real_copy(pairs, indices)

    monkeypatch.setattr(loader_module, "copy_pairs", copy_or_fail)
    return worker_copies


@pytest.mark.parametrize("where", ["preamble", "first_tensor", "last_byte"])
@pytest.mark.parametrize("parts", [1, 4])
@pytest.mark.parametrize("mode", ["copy", "views", "reshaped", "failed_copy"])
@pytest.mark.parametrize("depth", [1, 4])
def test_corrupt_mapped_part_fails_its_checksum(tmp_path, monkeypatch, where, parts, mode,
                                                depth):
    """Whatever the corrupt bytes break in the decode or the copy-out, the
    failed check is what is raised, and every map is closed behind it (in
    ``views`` mode the same part is landed instead, and fails the same
    check)."""
    store = _TrackingStore(tmp_path)
    spec, _matches = _committed(store, parts, mode)
    _flip(sorted(store.checkpoint_dir("ckpt").glob("rank0*.shard"))[-1], where)
    _set_depth(monkeypatch, depth)
    worker_copies = _fail_one_worker_copy(monkeypatch) if mode == "failed_copy" else None
    with pytest.raises(ConsistencyError, match="checksum"):
        CheckpointLoader(store).restore(spec)
    _assert_released(store, maps=mode != "views")
    if worker_copies is not None and depth > 1 and where != "preamble":
        assert next(worker_copies) > 0  # the injected copy failure fired


@pytest.mark.parametrize("parts", [1, 4])
@pytest.mark.parametrize("depth", [1, 4])
def test_corrupt_replicated_copy_fails_its_checksum_not_the_twin_compare(
        tmp_path, monkeypatch, parts, depth):
    """Rank 1's corrupt copy of the replicated w0 decodes fine and then fails
    the reshape's byte-for-byte twin compare; the failed check still wins."""
    store = _TrackingStore(tmp_path)
    spec, _matches = _committed(store, parts, "reshaped")
    _flip(sorted(store.checkpoint_dir("ckpt").glob("rank1*.shard"))[0], "first_tensor")
    _set_depth(monkeypatch, depth)
    with monkeypatch.context() as passing:
        # Every CRC32 compares equal: only the twin compare is left to fail.
        passing.setattr(loader_module, "checksum_stream", lambda _buffer: mock.ANY)
        with pytest.raises(RestartError, match="replicated tensor"):
            CheckpointLoader(store).restore(spec)
    store.handed_out.clear()
    with pytest.raises(ConsistencyError, match="checksum"):
        CheckpointLoader(store).restore(spec)
    _assert_released(store)


@pytest.mark.parametrize("parts", [1, 4])
@pytest.mark.parametrize("mode", ["copy", "reshaped"])
@pytest.mark.parametrize("depth", [1, 4])
def test_intact_mapped_restore_releases_every_map(tmp_path, monkeypatch, parts, mode, depth):
    store = _TrackingStore(tmp_path)
    spec, matches = _committed(store, parts, mode)
    _set_depth(monkeypatch, depth)
    matches(CheckpointLoader(store).restore(spec))
    _assert_released(store)


@pytest.mark.parametrize("parts", [1, 4])
@pytest.mark.parametrize("depth", [1, 4])
def test_decode_failure_with_passing_checks_is_a_restart_error(tmp_path, monkeypatch,
                                                               parts, depth):
    def broken_decode(*_args, **_kwargs):
        raise ValueError("injected decode failure")

    store = _TrackingStore(tmp_path)
    _commit(store, _state(seed=23), shards_per_rank=parts)
    monkeypatch.setattr(loader_module, "decode_rank_state", broken_decode)
    _set_depth(monkeypatch, depth)
    with pytest.raises(RestartError, match="injected decode failure"):
        CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag="ckpt"))
    _assert_released(store)


@pytest.mark.parametrize("parts", [1, 4])
def test_failed_worker_copy_is_a_restart_error(tmp_path, monkeypatch, parts):
    store = _TrackingStore(tmp_path)
    _commit(store, _state(seed=24), shards_per_rank=parts)
    _fail_one_worker_copy(monkeypatch)
    _set_depth(monkeypatch, 4)
    with pytest.raises(RestartError, match="shard 'rank0' of 'ckpt': injected copy failure"):
        CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag="ckpt"))
    _assert_released(store)


# ---------------------------------------------------------------------------
# A map's arrays are copied out on every prefetch worker
# ---------------------------------------------------------------------------

def _assert_owned(array):
    """Writable, and a view of memory the restore allocated: its ``.base``
    chain ends in an ndarray that owns its data — never a map or bytes."""
    assert array.flags.writeable
    while not array.flags.owndata:
        array = array.base
        assert isinstance(array, np.ndarray), type(array)


def _mixed_state():
    """Eight tensors of mixed dtypes: packed without padding, most slots
    are misaligned for their dtype."""
    rng = np.random.default_rng(25)
    dtypes = [np.int8, np.float64, np.float16, np.int64, np.uint8, np.float32,
              np.complex64, np.int16]
    return {"model": {f"t{i}": (rng.standard_normal(1000 + 37 * i) * 100).astype(dtype)
                      for i, dtype in enumerate(dtypes)},
            "iteration": 25}


@pytest.mark.parametrize("depth", [1, 4])
def test_mapped_copy_out_runs_on_every_prefetch_worker(tmp_path, monkeypatch, depth):
    """No timing: at depth 4, every group's copy waits on a two-party barrier,
    which a serial copy-out never passes.  At depth 1 the consumer copies
    the one group itself.  Either way each tensor is copied exactly once,
    into an owned, writable array."""
    store = _TrackingStore(tmp_path)
    state = _mixed_state()
    _commit(store, state, shards_per_rank=1)
    real_copy, consumer = loader_module.copy_pairs, threading.current_thread()
    barrier = threading.Barrier(2, timeout=10) if depth > 1 else None
    copied, copied_lock = [], threading.Lock()

    def copy_in_pairs(pairs, indices):
        with copied_lock:
            copied.append((threading.current_thread(), list(indices)))
        if barrier is not None:
            barrier.wait()
        real_copy(pairs, indices)

    monkeypatch.setattr(loader_module, "copy_pairs", copy_in_pairs)
    _set_depth(monkeypatch, depth)
    loaded = CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag="ckpt"))

    for key, array in state["model"].items():
        restored = loaded["model"][key]
        assert restored.dtype == array.dtype and restored.tobytes() == array.tobytes()
        _assert_owned(restored)
    assert sorted(index for _thread, indices in copied for index in indices) == \
        list(range(len(state["model"])))
    threads = {thread for thread, _indices in copied}
    assert len(copied) == depth and consumer in threads
    assert (threads == {consumer}) == (depth == 1)
    _assert_released(store)


# ---------------------------------------------------------------------------
# A restored rank's large arrays are views of one slab of its own
# ---------------------------------------------------------------------------

def _slab_model():
    """Tensors of ``SLAB_MIN_BYTES`` and more (still so in a half slice) and
    smaller ones, of mixed dtypes, with a 0-d and two zero-length tensors."""
    rng = np.random.default_rng(26)
    shapes = {"big_f32": ((128, 640), np.float32), "big_f64": ((48, 1000), np.float64),
              "big_f16": ((300, 512), np.float16), "big_i64": (40000, np.int64),
              "mid_i64": (20000, np.int64), "small_f32": ((7, 3), np.float32),
              "small_i8": (101, np.int8), "scalar": ((), np.float64),
              "empty": (0, np.float32), "empty_rows": ((0, 4), np.int64)}
    return {key: (rng.standard_normal(shape) * 100).astype(dtype)
            for key, (shape, dtype) in shapes.items()}


def _assert_slabs(states):
    """Each rank's large arrays share one owned base, no other rank's; its
    small ones own their data; all are writable and aligned for their dtype,
    and no two arrays share a byte."""
    arrays, slabs = [], set()
    for state in states.values():
        mine = list(state["model"].values())
        large = [array for array in mine if array.nbytes >= loader_module.SLAB_MIN_BYTES]
        (slab,) = {id(array.base) for array in large}
        assert large[0].base.flags.owndata and slab not in slabs
        slabs.add(slab)
        assert all(array.flags.owndata for array in mine
                   if array.nbytes < loader_module.SLAB_MIN_BYTES)
        arrays.extend(mine)
    for array in arrays:
        assert array.flags.writeable and array.flags.aligned
    for first, second in itertools.combinations(arrays, 2):
        assert not np.shares_memory(first, second)


@pytest.mark.parametrize("mode", ["mapped", "reshaped"])
@pytest.mark.parametrize("depth", [1, 4])
def test_slab_restore_is_bit_identical_and_holds_no_map(tmp_path, monkeypatch, mode, depth):
    """Saved replicated at dp1 x tp2 in two parts a rank, restored mapped
    (each rank the whole model) or reshaped onto dp2 x tp1 (each rank a flat
    half of it): the bytes of plain NumPy slicing, each rank in a slab of its
    own, and no shard left mapped, with the cyclic GC off."""
    from repro.restart import elastic_topology, save_elastic_checkpoint

    store = _TrackingStore(tmp_path)
    model = _slab_model()
    save_elastic_checkpoint(store, {"model": model},
                            elastic_topology(model, 1, 1, 2, shards_per_rank=2),
                            tag="ckpt", iteration=1)
    spec = RestoreSpec.full(tag="ckpt")
    if mode == "reshaped":
        spec = spec.reshaped(elastic_topology(model, 2, 1, 1))
    _set_depth(monkeypatch, depth)
    gc.collect()
    gc.disable()
    try:
        states = CheckpointLoader(store).restore(spec)
        with open("/proc/self/maps", encoding="utf-8") as maps:
            assert [line for line in maps if ".shard" in line] == []
    finally:
        gc.enable()
    for rank, state in states.items():
        for key, array in model.items():
            want = (array.reshape(-1) if mode == "mapped" else
                    np.array_split(array.reshape(-1), 2)[rank])
            got = state["model"][key]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (rank, key)
    _assert_slabs(states)
    _assert_released(store)
