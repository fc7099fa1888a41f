"""Tests for the real-mode DataStates checkpoint engine, consolidation, and flush pipeline."""

import threading

import numpy as np
import pytest

from repro.core import (
    DataStatesCheckpointEngine,
    SynchronousCheckpointEngine,
    TwoPhaseCommitCoordinator,
)
from repro.exceptions import CheckpointError, ConsistencyError, RestartError
from repro.io import FileStore
from repro.restart import RestoreSpec
from repro.serialization import ShardRecord


def _state(seed=0, size=256):
    rng = np.random.default_rng(seed)
    return {
        "model": {"w": rng.normal(size=(size, 4)).astype(np.float32),
                  "b": rng.normal(size=size).astype(np.float32)},
        "optimizer": {"step": seed, "m": rng.normal(size=(size, 4)),
                      "v": rng.normal(size=(size, 4))},
        "iteration": seed,
    }


@pytest.fixture
def store(tmp_path):
    return FileStore(tmp_path)


@pytest.fixture
def engine(store):
    eng = DataStatesCheckpointEngine(store, host_buffer_size=8 << 20)
    yield eng
    eng.shutdown(wait=False)


# ---------------------------------------------------------------------------
# Two-phase commit coordinator
# ---------------------------------------------------------------------------

def test_commit_requires_every_rank_vote(store):
    coordinator = TwoPhaseCommitCoordinator(world_size=2, store=store)
    store.write_shard("tag", "rank0", [b"a"])
    store.write_shard("tag", "rank1", [b"b"])
    coordinator.vote("tag", 0, [ShardRecord(rank=0, name="rank0", nbytes=1)])
    assert not coordinator.is_committed("tag")
    coordinator.vote("tag", 1, [ShardRecord(rank=1, name="rank1", nbytes=1)])
    assert coordinator.is_committed("tag")
    assert coordinator.wait_committed("tag", timeout=1.0)
    manifest = store.read_manifest("tag")
    assert manifest["world_size"] == 2
    assert len(manifest["shards"]) == 2


def test_duplicate_vote_rejected(store):
    coordinator = TwoPhaseCommitCoordinator(world_size=2, store=store)
    coordinator.vote("tag", 0, [ShardRecord(rank=0, name="rank0", nbytes=1)])
    with pytest.raises(ConsistencyError):
        coordinator.vote("tag", 0, [ShardRecord(rank=0, name="rank0", nbytes=1)])


def test_vote_from_out_of_range_rank_rejected(store):
    coordinator = TwoPhaseCommitCoordinator(world_size=2, store=store)
    with pytest.raises(ConsistencyError):
        coordinator.vote("tag", 5, [])


def test_failed_checkpoint_reported_to_waiters(store):
    coordinator = TwoPhaseCommitCoordinator(world_size=2, store=store)
    coordinator.vote("tag", 0, [ShardRecord(rank=0, name="rank0", nbytes=1)])
    coordinator.fail("tag", 1, "disk exploded")
    with pytest.raises(ConsistencyError):
        coordinator.wait_committed("tag", timeout=1.0)
    assert not coordinator.is_committed("tag")


def test_wait_for_unknown_tag_rejected(store):
    coordinator = TwoPhaseCommitCoordinator(world_size=1, store=store)
    with pytest.raises(ConsistencyError):
        coordinator.wait_committed("never-voted")


def test_pending_tags_listed(store):
    coordinator = TwoPhaseCommitCoordinator(world_size=2, store=store)
    coordinator.vote("tag", 0, [ShardRecord(rank=0, name="rank0", nbytes=1)])
    assert coordinator.pending_tags() == ["tag"]


# ---------------------------------------------------------------------------
# DataStatesCheckpointEngine: save / load
# ---------------------------------------------------------------------------

def test_save_and_load_roundtrip(engine):
    state = _state(seed=1)
    engine.save(state, tag="ckpt-1", iteration=1)
    engine.wait_all()
    assert engine.list_checkpoints() == ["ckpt-1"]
    loaded = engine.load(RestoreSpec(tag="ckpt-1"))
    assert loaded["iteration"] == 1
    np.testing.assert_array_equal(loaded["model"]["w"], state["model"]["w"])
    np.testing.assert_array_equal(loaded["optimizer"]["v"], state["optimizer"]["v"])


def test_snapshot_isolates_state_from_later_mutation(engine):
    """The defining property of a consistent snapshot: mutations made *after*
    wait_for_snapshot() returns must not leak into the checkpoint."""
    state = _state(seed=2)
    original = state["model"]["w"].copy()
    engine.save(state, tag="ckpt-mut", iteration=0)
    engine.wait_for_snapshot()
    state["model"]["w"][:] = -1.0   # the "optimizer update" mutates in place
    engine.wait_all()
    loaded = engine.load(RestoreSpec(tag="ckpt-mut"))
    np.testing.assert_array_equal(loaded["model"]["w"], original)


def test_multiple_checkpoints_accumulate(engine):
    for index in range(3):
        engine.save(_state(seed=index), tag=f"ckpt-{index}", iteration=index)
        engine.wait_for_snapshot()
    engine.wait_all()
    assert engine.list_checkpoints() == ["ckpt-0", "ckpt-1", "ckpt-2"]
    assert engine.latest_checkpoint() == "ckpt-2"
    assert engine.load(RestoreSpec(tag="ckpt-1"))["iteration"] == 1
    # No spec: this rank's shard of the latest committed checkpoint.
    assert engine.load()["iteration"] == 2


def test_handle_exposes_capture_and_durability(engine):
    handle = engine.save(_state(), tag="ckpt-h", iteration=0)
    assert handle.wait_captured(timeout=10.0)
    result = handle.wait_durable(timeout=10.0)
    assert result.nbytes > 0
    assert result.tag == "ckpt-h"
    assert engine.coordinator.wait_committed("ckpt-h", timeout=10.0)


def test_stats_reflect_activity(engine):
    engine.save(_state(), tag="ckpt-s", iteration=0)
    engine.wait_all()
    stats = engine.stats()
    assert stats["checkpoints_requested"] == 1
    assert stats["pending_flushes"] == 0
    assert stats["host_buffer_used_bytes"] == 0


def test_tensor_larger_than_host_buffer_rejected(store):
    engine = DataStatesCheckpointEngine(store, host_buffer_size=1024)
    try:
        with pytest.raises(CheckpointError):
            engine.save({"big": np.zeros(4096, dtype=np.float64)}, tag="too-big")
    finally:
        engine.shutdown(wait=False)


def test_state_larger_than_buffer_is_streamed_through(store):
    """The whole checkpoint can exceed the staging buffer as long as each
    tensor fits: flushes recycle the ring while the capture is in flight."""
    engine = DataStatesCheckpointEngine(store, host_buffer_size=256 * 1024)
    try:
        state = {f"t{i}": np.random.default_rng(i).normal(size=16384) for i in range(8)}
        # 8 tensors x 128 KiB = 1 MiB total vs a 256 KiB buffer.
        engine.save(state, tag="ckpt-stream", iteration=0)
        engine.wait_all()
        loaded = engine.load(RestoreSpec(tag="ckpt-stream"))
        for key, value in state.items():
            np.testing.assert_array_equal(loaded[key], value)
    finally:
        engine.shutdown(wait=False)


def test_load_missing_checkpoint_raises(engine):
    # load() routes through the CheckpointLoader restore path, which reports
    # missing/uncommitted checkpoints as RestartError.
    with pytest.raises(RestartError):
        engine.load(RestoreSpec(tag="does-not-exist"))


def test_save_after_shutdown_rejected(store):
    engine = DataStatesCheckpointEngine(store, host_buffer_size=1 << 20)
    engine.shutdown()
    with pytest.raises(CheckpointError):
        engine.save(_state(), tag="late")


def test_engine_as_context_manager(store):
    with DataStatesCheckpointEngine(store, host_buffer_size=4 << 20) as engine:
        engine.save(_state(), tag="ctx", iteration=0)
    loader_store = FileStore(store.root)
    assert loader_store.list_committed_checkpoints() == ["ctx"]


def test_no_manifest_until_commit(store):
    """A torn checkpoint (flush done on no rank / some ranks) must never have
    a manifest."""
    coordinator = TwoPhaseCommitCoordinator(world_size=2, store=store)
    engine = DataStatesCheckpointEngine(store, rank=0, world_size=2,
                                        coordinator=coordinator, host_buffer_size=4 << 20)
    try:
        engine.save(_state(), tag="partial", iteration=0)
        engine.wait_for_flushes()
        # Rank 1 never voted: the checkpoint must remain uncommitted.
        assert not coordinator.is_committed("partial")
        assert store.list_committed_checkpoints() == []
        assert store.list_checkpoints() == ["partial"]
    finally:
        engine.shutdown(wait=False)


def test_two_rank_checkpoint_commits_once_both_ranks_finish(store):
    coordinator = TwoPhaseCommitCoordinator(world_size=2, store=store)
    engines = [
        DataStatesCheckpointEngine(store, rank=rank, world_size=2,
                                   coordinator=coordinator, host_buffer_size=4 << 20)
        for rank in range(2)
    ]
    try:
        threads = [
            threading.Thread(target=lambda e=engine, r=rank: (
                e.save(_state(seed=r), tag="global", iteration=5, shard_name=f"rank{r}"),
                e.wait_for_flushes(),
            ))
            for rank, engine in enumerate(engines)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        assert coordinator.wait_committed("global", timeout=10.0)
        manifest = store.read_manifest("global")
        assert {item["name"] for item in manifest["shards"]} == {"rank0", "rank1"}
        assert manifest["iteration"] == 5
    finally:
        for engine in engines:
            engine.shutdown(wait=False)


# ---------------------------------------------------------------------------
# Synchronous baseline engine
# ---------------------------------------------------------------------------

def test_synchronous_engine_roundtrip(store):
    engine = SynchronousCheckpointEngine(store)
    state = _state(seed=4)
    engine.save(state, tag="sync-1", iteration=4)
    assert store.list_committed_checkpoints() == ["sync-1"]
    loaded = engine.load(RestoreSpec(tag="sync-1"))
    np.testing.assert_array_equal(loaded["model"]["w"], state["model"]["w"])


def test_synchronous_engine_is_immediately_durable(store):
    engine = SynchronousCheckpointEngine(store)
    engine.save(_state(), tag="sync-2", iteration=0)
    # No background work: wait_all and wait_for_snapshot are no-ops.
    engine.wait_for_snapshot()
    engine.wait_all()
    manifest = store.read_manifest("sync-2")
    assert manifest["shards"][0]["checksum"] is not None
