"""Each restored part lands once.

A restore that cannot map a shard gives the store one buffer per part to fill
(``read_shard(out=)``): a CAS chunk is read straight into its slice of it and
size- and hash-checked there, the part's size + CRC32 check runs on it, and a
materialising restore returns aligned, writable views of it — nothing is
joined and nothing is copied but an array whose slot is misaligned for its
dtype.  A mapped part keeps its meaning: its arrays are copied out of the map.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CheckpointPolicy
from repro.core import create_real_engine
from repro.exceptions import CheckpointError, ConsistencyError, RestartError
from repro.io import (
    STORE_NAMES,
    CASStore,
    FaultPlan,
    FaultyStore,
    FileStore,
    ObjectStore,
    create_store,
    supports_mmap,
)
from repro.io.cas import CHUNK_SHARD_NAME, chunk_tag
from repro.restart import CheckpointLoader, RestoreSpec

CHUNK = 64 * 1024
STORES = STORE_NAMES + ["cas-over-faulty"]


def _store(name, root):
    if name == "cas-over-faulty":
        return CASStore(FaultyStore(FileStore(root)), chunk_bytes=CHUNK)
    if name == "cas":
        return create_store("cas", root=root, chunk_bytes=CHUNK)
    return create_store(name, root=root)


def _state(seed=0, tensors=16, each=8 * 1024):
    rng = np.random.default_rng(seed)
    return {"model": {f"w{i:02d}": rng.standard_normal(each).astype(np.float32)
                      for i in range(tensors)},
            "step": seed}


def _save(store, state, parts, tag="ckpt"):
    engine = create_real_engine("datastates", store, policy=CheckpointPolicy(
        shards_per_rank=parts, host_buffer_size=8 << 20))
    try:
        engine.save(state, tag=tag, iteration=0)
        engine.wait_all()
    finally:
        engine.shutdown()


def _arrays(state):
    return list(state["model"].values())


def _landing(array):
    """The landing buffer a restored array is a view of: the last array on
    its ``base`` chain (what it wraps, a ``bytearray``, takes no weakref)."""
    owner = array
    while True:
        below = owner.obj if isinstance(owner, memoryview) else owner.base
        if not isinstance(below, (np.ndarray, memoryview)):
            return owner
        owner = below


def _assert_equal(restored, state):
    assert restored["step"] == state["step"]
    assert list(restored["model"]) == list(state["model"])
    for key, expected in state["model"].items():
        got = restored["model"][key]
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), key


# ---------------------------------------------------------------------------
# Every store x mmap x validate x part count
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("parts", [1, 8])
@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("use_mmap", [True, False])
@pytest.mark.parametrize("store_name", STORES)
def test_restore_matrix(tmp_path, store_name, use_mmap, validate, parts):
    store = _store(store_name, tmp_path)
    state = _state(seed=3)
    _save(store, state, parts)
    loader = CheckpointLoader(store)
    spec = RestoreSpec.of_rank(0, tag="ckpt", validate=validate, use_mmap=use_mmap)

    restored = loader.restore(spec)
    _assert_equal(restored, state)
    for array in _arrays(restored):
        assert array.flags.aligned and array.flags.writeable
    # The arrays are the restore's own: scribbling on one reaches neither
    # the store nor a second restore.
    first = _arrays(restored)[0]
    first[...] = -1.0
    _assert_equal(loader.restore(spec), state)

    if not (use_mmap and supports_mmap(store)):
        # A single-dtype state is all views: P landing buffers, no copy, and
        # the buffers go when the state goes.
        assert all(not array.flags.owndata for array in _arrays(restored))
        buffers = {id(_landing(array)): _landing(array) for array in _arrays(restored)}
        assert len(buffers) == parts
        refs = [weakref.ref(buffer) for buffer in buffers.values()]
        del restored, first, array, buffers
        gc.collect()
        assert [ref() for ref in refs] == [None] * parts


@pytest.mark.parametrize("store_name", ["object", "cas"])
def test_validate_and_tensor_checksums_read_the_landed_image(tmp_path, store_name):
    """``validate`` and the per-tensor CRC pass decode the same shifted image
    the restore does (a single part and a set)."""
    store = _store(store_name, tmp_path)
    state = _state(seed=4)
    for parts, tag in ((1, "one"), (4, "set")):
        _save(store, state, parts, tag=tag)
        loader = CheckpointLoader(store)
        manifest = loader.validate(tag)
        for record in manifest.shards:
            loader.verify_tensor_checksums(tag, record)
        _assert_equal(loader.restore(RestoreSpec.of_shard("rank0", tag=tag)), state)


def test_unvalidated_garbage_still_fails_as_a_restart_error(tmp_path):
    """With ``validate=False`` nothing checks the landed bytes; a part whose
    preamble does not parse is left where it landed and reported by the
    deserialize stage, as before."""
    store = ObjectStore()
    _save(store, _state(seed=9), parts=2)
    key = store.shard_key("ckpt", "rank0-s01")
    store._put(key, b"\xff" * len(store._get(key)))
    with pytest.raises(RestartError, match="cannot deserialize"):
        CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag="ckpt", validate=False))
    with pytest.raises(ConsistencyError):
        CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag="ckpt"))


# ---------------------------------------------------------------------------
# The per-array copy: mixed dtypes pack without padding
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(odd=st.integers(min_value=0, max_value=40).map(lambda n: 2 * n + 1),
       parts=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
def test_misaligned_slots_are_copied_and_only_those(odd, parts, seed):
    rng = np.random.default_rng(seed)
    state = {"model": {
        "a_half": rng.standard_normal(odd).astype(np.float16),
        "b_single": rng.standard_normal(257).astype(np.float32),
        "c_long": rng.integers(-9, 9, size=65, dtype=np.int64),
        "d_single": rng.standard_normal(31).astype(np.float32),
    }, "step": seed}
    store = ObjectStore()
    _save(store, state, parts)
    restored = CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag="ckpt"))
    _assert_equal(restored, state)
    arrays = _arrays(restored)
    assert all(array.flags.aligned and array.flags.writeable for array in arrays)
    # An odd float16 count leaves whatever follows it in the part off its
    # dtype's boundary: those arrays, and no others, own their memory.
    assert any(array.flags.owndata for array in arrays)
    assert not restored["model"]["a_half"].flags.owndata


# ---------------------------------------------------------------------------
# read_shard(out=): the store contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("store_name", STORES)
def test_read_shard_out_fills_the_buffer_and_returns_a_view_of_it(tmp_path, store_name):
    store = _store(store_name, tmp_path)
    payload = np.random.default_rng(5).bytes(3 * CHUNK + 123)
    store.write_shard("t", "s", [payload])
    assert bytes(store.read_shard("t", "s")) == payload

    out = bytearray(len(payload))
    view = store.read_shard("t", "s", out=out)
    assert isinstance(view, memoryview) and view.obj is out
    assert bytes(out) == payload == bytes(view)

    # Exactly the shard's size, and writable — anything else is refused (a
    # tier chain goes on to ask its deeper levels, and reports the last).
    refusal = CheckpointError if store_name == "tiered" else ConsistencyError
    for wrong in (bytearray(len(payload) - 1), bytearray(len(payload) + 1),
                  bytes(len(payload))):
        with pytest.raises(refusal):
            store.read_shard("t", "s", out=wrong)
    with pytest.raises(CheckpointError):
        store.read_shard("t", "missing", out=bytearray(8))
    with pytest.raises(CheckpointError):
        store.read_shard("t", "missing")


def test_file_store_read_of_a_vanished_shard_is_a_checkpoint_error(tmp_path):
    store = FileStore(tmp_path)
    store.write_shard("t", "s", [b"x" * 10])
    store.shard_path("t", "s").unlink()
    for kwargs in ({}, {"out": bytearray(10)}):
        with pytest.raises(CheckpointError):
            store.read_shard("t", "s", **kwargs)


@pytest.mark.parametrize("damage", ["flip", "truncate", "extend"])
def test_damaged_chunk_is_refused_in_place(tmp_path, damage):
    inner = FileStore(tmp_path)
    store = CASStore(inner, chunk_bytes=CHUNK)
    state = _state(seed=6)
    _save(store, state, parts=2)
    record = next(r for r in store.read_manifest("ckpt")["shards"] if len(r["chunks"]) > 1)
    chunk_hash, nbytes = record["chunks"][1]
    path = inner.shard_path(chunk_tag(chunk_hash), CHUNK_SHARD_NAME)
    raw = bytearray(path.read_bytes())
    assert len(raw) == nbytes
    if damage == "flip":
        raw[nbytes // 2] ^= 0x40
    elif damage == "truncate":
        del raw[-5:]
    else:
        raw += b"\0" * 5
    path.write_bytes(bytes(raw))

    with pytest.raises(ConsistencyError):
        store.read_shard("ckpt", record["name"], out=bytearray(record["nbytes"]))
    with pytest.raises(ConsistencyError):
        store.read_shard("ckpt", record["name"])
    with pytest.raises(ConsistencyError):
        store.read_shard_range("ckpt", record["name"], CHUNK, 16)
    with pytest.raises(ConsistencyError):
        CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag="ckpt"))


def test_fault_injection_is_the_same_with_and_without_out(tmp_path):
    """``out`` must not become a side door around the fault filter: for one
    plan seed the injected faults of a CAS-over-faulty read are identical."""
    state = _state(seed=7)
    logs, outcomes = [], []
    for use_out in (False, True):
        faulty = FaultyStore(FileStore(tmp_path / f"out{use_out}"))
        store = CASStore(faulty, chunk_bytes=CHUNK)
        _save(store, state, parts=4)
        faulty.plan = FaultPlan(seed=11, read_error_prob=0.3, torn_read_prob=0.3)
        outcome = []
        for record in store.read_manifest("ckpt")["shards"]:
            kwargs = {"out": bytearray(record["nbytes"])} if use_out else {}
            try:
                outcome.append(bytes(store.read_shard("ckpt", record["name"], **kwargs)))
            except (CheckpointError, OSError) as exc:
                outcome.append(type(exc).__name__)
        logs.append(faulty.fault_log())
        outcomes.append(outcome)
    assert logs[0] == logs[1] and logs[0]
    assert {entry["kind"] for entry in logs[0]} >= {"persistent_error", "torn_read"}
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Memory: one buffer per part, nothing beside it
# ---------------------------------------------------------------------------

def test_unmapped_restore_allocates_what_it_returns(tmp_path):
    store = _store("cas", tmp_path)
    state = _state(seed=8, tensors=32, each=32 * 1024)   # 4 MiB
    _save(store, state, parts=8)
    returned = sum(array.nbytes for array in _arrays(state))
    loader = CheckpointLoader(store)
    loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))   # warm imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        restored = loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_equal(restored, state)
    assert peak <= 1.1 * returned, (peak, returned)
