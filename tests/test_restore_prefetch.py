"""Restore-path tests: the prefetching load pipeline, the mmap-handle leak
regression, ``RestoreSpec(validate=False)`` semantics, and retention edge
cases (``keep_latest(0)``)."""

import threading

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import TwoPhaseCommitCoordinator, create_real_engine
from repro.exceptions import CheckpointError, ConsistencyError, RestartError
from repro.io import FileStore, ObjectStore
from repro.restart import CheckpointLoader, RestoreSpec


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

@pytest.mark.parametrize("prefetch_depth", [0, 3])
def test_failed_set_open_closes_already_opened_mmaps(tmp_path, prefetch_depth):
    """If opening a later part of a shard-set fails, every already-opened
    mmap must be closed — the seed leaked them from the list comprehension."""
    store = _TrackingStore(tmp_path)
    _commit(store, _state(seed=1), shards_per_rank=4)

    store.fail_on_open = 3  # parts 1 and 2 open fine, part 3 raises
    loader = CheckpointLoader(store, prefetch_depth=prefetch_depth)
    with pytest.raises(CheckpointError, match="injected failure"):
        loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    assert len(store.handed_out) == 2
    assert all(mapped.data.closed for mapped in store.handed_out)


@pytest.mark.parametrize("prefetch_depth", [0, 3])
def test_failed_validation_closes_already_opened_mmaps(tmp_path, prefetch_depth):
    """A CRC failure on one part must not leak the other parts' mappings."""
    store = _TrackingStore(tmp_path)
    _commit(store, _state(seed=2), shards_per_rank=4)

    # Corrupt one part's payload (same size, different bytes -> CRC mismatch).
    victim = sorted(store.checkpoint_dir("ckpt").glob("*.shard"))[2]
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0xFF
    victim.write_bytes(bytes(raw))

    loader = CheckpointLoader(store, prefetch_depth=prefetch_depth)
    with pytest.raises(ConsistencyError, match="checksum"):
        loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    assert all(mapped.data.closed for mapped in store.handed_out)


def test_successful_load_closes_every_mmap(tmp_path):
    store = _TrackingStore(tmp_path)
    state = _state(seed=3)
    _commit(store, state, shards_per_rank=4)
    loader = CheckpointLoader(store, prefetch_depth=2)
    loaded = loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    np.testing.assert_array_equal(loaded["model"]["w0"], state["model"]["w0"])
    assert len(store.handed_out) == 4
    assert all(mapped.data.closed for mapped in store.handed_out)


# ---------------------------------------------------------------------------
# Prefetching pipeline: equivalence across depths, paths, and backends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("prefetch_depth", [0, 1, 2, 8])
@pytest.mark.parametrize("use_mmap", [True, False])
def test_prefetch_depths_load_identical_state(tmp_path, prefetch_depth, use_mmap):
    store = FileStore(tmp_path)
    state = _state(seed=4)
    _commit(store, state, shards_per_rank=3)
    loader = CheckpointLoader(store, use_mmap=use_mmap,
                              prefetch_depth=prefetch_depth)
    states = loader.restore(RestoreSpec.full(tag="ckpt"))
    for key, array in state["model"].items():
        np.testing.assert_array_equal(states[0]["model"][key], array)
    assert states[0]["iteration"] == 4


@pytest.mark.parametrize("prefetch_depth", [0, 4])
def test_prefetch_on_object_store(prefetch_depth):
    """The object store has no mmap; the prefetch stage overlaps whole-object
    GETs instead, with identical results."""
    store = ObjectStore()
    state = _state(seed=5)
    _commit(store, state, shards_per_rank=3)
    loader = CheckpointLoader(store, prefetch_depth=prefetch_depth)
    assert loader.use_mmap is False
    loaded = loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
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

    loader = CheckpointLoader(store, prefetch_depth=3)
    loaded = loader.restore(RestoreSpec.full(tag="ckpt"))
    assert sorted(loaded) == [0, 1]
    for rank in (0, 1):
        np.testing.assert_array_equal(loaded[rank]["model"]["w1"],
                                      states[rank]["model"]["w1"])


def test_negative_prefetch_depth_rejected(tmp_path):
    with pytest.raises(RestartError):
        CheckpointLoader(FileStore(tmp_path), prefetch_depth=-1)


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

    loader = CheckpointLoader(store, use_mmap=use_mmap)
    with pytest.raises(ConsistencyError):
        loader.restore(RestoreSpec.full(tag="ckpt", validate=True))
    # validate=False trusts the medium: the corrupted payload loads fine.
    states = loader.restore(RestoreSpec.full(tag="ckpt", validate=False))
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
# Retention: keep_latest(0)
# ---------------------------------------------------------------------------

def test_keep_latest_zero_deletes_every_checkpoint(tmp_path):
    """keep_latest(0) is the 'wipe the history' form: every committed
    checkpoint is deleted, and uncommitted (torn) directories are untouched."""
    store = FileStore(tmp_path)
    for index in range(3):
        _commit(store, _state(seed=index), tag=f"ckpt-{index}", shards_per_rank=1)
    store.write_shard("torn", "rank0", [b"half-flushed"])  # no manifest

    loader = CheckpointLoader(store)
    removed = loader.keep_latest(0)
    assert removed == ["ckpt-0", "ckpt-1", "ckpt-2"]
    assert loader.committed_checkpoints() == []
    # keep_latest only governs committed history; the torn dir is prune's job.
    assert store.list_checkpoints() == ["torn"]


# ---------------------------------------------------------------------------
# Auto prefetch depth (prefetch_depth=0)
# ---------------------------------------------------------------------------

def test_choose_prefetch_depth_tracks_fetch_deserialize_ratio():
    from repro.restart.loader import DEFAULT_PREFETCH_DEPTH
    from repro.restart import choose_prefetch_depth

    # Fetch-bound (remote store): ~6x slower fetches want a deep pipeline.
    assert choose_prefetch_depth([0.06] * 8, [0.01] * 8) == 7
    # Deserialize-bound (local mmap): the minimum useful depth of 2.
    assert choose_prefetch_depth([0.001] * 8, [0.02] * 8) == 2
    # Balanced: one in flight plus one of slack.
    assert choose_prefetch_depth([0.01] * 8, [0.01] * 8) == 2
    # Extreme ratios clamp at the pipeline cap.
    assert choose_prefetch_depth([1.0] * 8, [0.001] * 8) == 8
    assert choose_prefetch_depth([1.0] * 8, [0.001] * 8, max_depth=5) == 5
    # Too few samples (cold restore) or degenerate timings: the static
    # default — measuring must never make the first restore worse.
    assert choose_prefetch_depth([], []) == DEFAULT_PREFETCH_DEPTH
    assert choose_prefetch_depth([0.01] * 2, [0.01] * 8) == DEFAULT_PREFETCH_DEPTH
    assert choose_prefetch_depth([0.0] * 8, [0.0] * 8) == DEFAULT_PREFETCH_DEPTH


def test_auto_mode_starts_at_default_then_adapts(tmp_path):
    from repro.restart.loader import DEFAULT_PREFETCH_DEPTH

    store = FileStore(tmp_path)
    _commit(store, _state(seed=3), shards_per_rank=4)
    loader = CheckpointLoader(store, prefetch_depth=0)
    # Cold: no samples yet, so auto resolves to the static default.
    assert loader.effective_prefetch_depth == DEFAULT_PREFETCH_DEPTH

    restored = loader.restore(RestoreSpec.full(tag="ckpt"))
    want = _state(seed=3)
    for key, value in want["model"].items():
        np.testing.assert_array_equal(restored[0]["model"][key], value)

    # The restore populated both timing windows; auto now resolves from
    # them and stays within the pipeline's [2, cap] band.
    timings = loader.prefetch_timings()
    assert len(timings["fetch_seconds"]) >= 4
    assert len(timings["deserialize_seconds"]) >= 4
    from repro.restart.loader import MAX_AUTO_PREFETCH_DEPTH
    assert 2 <= loader.effective_prefetch_depth <= MAX_AUTO_PREFETCH_DEPTH


def test_auto_mode_timings_shared_across_restore_spec_options(tmp_path):
    """RestoreSpec-driven loader clones (validate=False etc.) keep feeding
    the same timing windows, so the session's measurements accumulate."""
    store = FileStore(tmp_path)
    _commit(store, _state(seed=5), shards_per_rank=3)
    loader = CheckpointLoader(store, prefetch_depth=0)
    loader.restore(RestoreSpec.full(tag="ckpt"))
    first = len(loader.prefetch_timings()["fetch_seconds"])
    assert first > 0
    loader.restore(RestoreSpec.full(tag="ckpt", validate=False))
    assert len(loader.prefetch_timings()["fetch_seconds"]) > first


# ---------------------------------------------------------------------------
# A mapped part is checked while it is copied out
# ---------------------------------------------------------------------------

def _prefetch_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("ckpt-prefetch")]


def _assert_released(store):
    assert store.handed_out
    assert all(mapped.data.closed for mapped in store.handed_out)
    assert _prefetch_threads() == []


@pytest.mark.parametrize("prefetch_depth", [None, 1])
def test_single_mapped_part_is_checked_while_it_is_decoded(tmp_path, monkeypatch,
                                                           prefetch_depth):
    """No timing: the check waits for the decode to start.  Beside the
    decode (every depth >= 2, one part included) it completes; before it
    (depth 1, strictly serial) it can only time out."""
    from repro.restart import loader as loader_module

    store = _TrackingStore(tmp_path)
    state = _state(seed=20)
    _commit(store, state, shards_per_rank=1)
    decoding = threading.Event()
    real_checksum, real_decode = loader_module.checksum_stream, loader_module.decode_rank_state

    def checksum_after_decode_starts(buffer):
        if not decoding.wait(10 if prefetch_depth is None else 0.5):
            raise TimeoutError("the check ran before the decode")
        return real_checksum(buffer)

    def decode(*args, **kwargs):
        decoding.set()
        return real_decode(*args, **kwargs)

    monkeypatch.setattr(loader_module, "checksum_stream", checksum_after_decode_starts)
    monkeypatch.setattr(loader_module, "decode_rank_state", decode)
    loader = CheckpointLoader(store, prefetch_depth=prefetch_depth)
    spec = RestoreSpec.of_rank(0, tag="ckpt")
    if prefetch_depth == 1:
        with pytest.raises(TimeoutError):
            loader.restore(spec)
    else:
        loaded = loader.restore(spec)
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
    restores it in ``mode`` and a check of what that restore returns."""
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
    return RestoreSpec.of_rank(0, tag="ckpt", materialize=mode == "copy"), matches


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


@pytest.mark.parametrize("where", ["preamble", "first_tensor", "last_byte"])
@pytest.mark.parametrize("parts", [1, 4])
@pytest.mark.parametrize("mode", ["copy", "views", "reshaped"])
@pytest.mark.parametrize("prefetch_depth", [1, 4])
def test_corrupt_mapped_part_fails_its_checksum(tmp_path, where, parts, mode,
                                                prefetch_depth):
    """Whatever the corrupt bytes break in the decode, the failed check is
    what is raised, and every map is closed behind it."""
    store = _TrackingStore(tmp_path)
    spec, _matches = _committed(store, parts, mode)
    _flip(sorted(store.checkpoint_dir("ckpt").glob("rank0*.shard"))[-1], where)
    loader = CheckpointLoader(store, prefetch_depth=prefetch_depth)
    with pytest.raises(ConsistencyError, match="checksum"):
        loader.restore(spec)
    _assert_released(store)


@pytest.mark.parametrize("parts", [1, 4])
@pytest.mark.parametrize("prefetch_depth", [1, 4])
def test_corrupt_replicated_copy_fails_its_checksum_not_the_twin_compare(
        tmp_path, parts, prefetch_depth):
    """Rank 1's corrupt copy of the replicated w0 decodes fine and then fails
    the reshape's byte-for-byte twin compare; the failed check still wins."""
    store = _TrackingStore(tmp_path)
    spec, _matches = _committed(store, parts, "reshaped")
    _flip(sorted(store.checkpoint_dir("ckpt").glob("rank1*.shard"))[0], "first_tensor")
    with pytest.raises(RestartError, match="replicated tensor"):
        CheckpointLoader(store, verify_checksums=False).restore(spec)
    store.handed_out.clear()
    with pytest.raises(ConsistencyError, match="checksum"):
        CheckpointLoader(store, prefetch_depth=prefetch_depth).restore(spec)
    _assert_released(store)


@pytest.mark.parametrize("parts", [1, 4])
@pytest.mark.parametrize("mode", ["copy", "reshaped"])  # views keep their map open
@pytest.mark.parametrize("prefetch_depth", [1, 4])
def test_intact_mapped_restore_releases_every_map(tmp_path, parts, mode, prefetch_depth):
    store = _TrackingStore(tmp_path)
    spec, matches = _committed(store, parts, mode)
    matches(CheckpointLoader(store, prefetch_depth=prefetch_depth).restore(spec))
    _assert_released(store)


@pytest.mark.parametrize("parts", [1, 4])
@pytest.mark.parametrize("prefetch_depth", [1, 4])
def test_decode_failure_with_passing_checks_is_a_restart_error(tmp_path, monkeypatch,
                                                               parts, prefetch_depth):
    from repro.restart import loader as loader_module

    def broken_decode(*_args, **_kwargs):
        raise ValueError("injected decode failure")

    store = _TrackingStore(tmp_path)
    _commit(store, _state(seed=23), shards_per_rank=parts)
    monkeypatch.setattr(loader_module, "decode_rank_state", broken_decode)
    loader = CheckpointLoader(store, prefetch_depth=prefetch_depth)
    with pytest.raises(RestartError, match="injected decode failure"):
        loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    _assert_released(store)
