"""Tests for the tiered store: fast-tier commits, the background drain
pipeline (LOCAL -> DRAINING -> REPLICATED, manifest-last ordering), eviction
watermarks, nearest-tier restores after fast-tier loss, cross-tier GC,
crash-mid-drain resume, and ranged reads."""

import json
import threading

import numpy as np
import pytest

import repro.io.tiered as tiered
from repro.core import create_real_engine
from repro.exceptions import CheckpointError, ConfigurationError
from repro.io import (
    DrainState,
    FileStore,
    ObjectStore,
    ShardStore,
    TierChain,
    TierLevel,
    create_store,
    supports_mmap,
    supports_shard_writer,
)
from repro.io.tiered import TIER_INDEX_NAME
from repro.restart import CheckpointLoader, RestoreSpec


@pytest.fixture(autouse=True)
def _short_drain_backoff(monkeypatch):
    """Drain retries here back off 1 ms, not the module's 50 ms."""
    monkeypatch.setattr(tiered, "DRAIN_BACKOFF_S", 0.001)


def _state(seed=0, size=256):
    rng = np.random.default_rng(seed)
    return {
        "model": {"w": rng.normal(size=(size, 4)), "b": rng.normal(size=size)},
        "optimizer": {"m": rng.normal(size=(size, 4)), "step": seed},
        "iteration": seed,
    }


def _pair(fast, slow, **kwargs) -> TierChain:
    """The two-level chain: ``fast`` commits, drains to ``slow``."""
    return TierChain([TierLevel(fast, name="fast"), TierLevel(slow, name="slow")],
                     **kwargs)


def _tiered(tmp_path, **kwargs) -> TierChain:
    kwargs.setdefault("keep_local_latest", None)  # most tests want no eviction
    return _pair(FileStore(tmp_path / "fast"), ObjectStore(), **kwargs)


def _save(store, tags, seed_offset=0):
    """Commit one checkpoint per tag through a real engine."""
    with create_real_engine("datastates", store, host_buffer_size=8 << 20) as engine:
        for index, tag in enumerate(tags):
            engine.save(_state(seed=index + seed_offset), tag=tag, iteration=index)
            engine.wait_for_snapshot()
        engine.wait_all()


class _GatedSlowStore(ObjectStore):
    """An object store whose writes block until the test opens a gate."""

    def __init__(self):
        super().__init__(bucket="gated")
        self.gate = threading.Event()

    def write_shard(self, tag, shard_name, chunks):
        self.gate.wait(timeout=30.0)
        return super().write_shard(tag, shard_name, chunks)


class _FailingManifestSlowStore(ObjectStore):
    """Fails manifest PUTs until ``heal()`` — the crash-mid-drain fixture:
    shard parts reach the slow tier, the commit point never does."""

    def __init__(self):
        super().__init__(bucket="failing")
        self.fail = True

    def heal(self):
        self.fail = False

    def write_manifest(self, tag, manifest):
        if self.fail:
            raise CheckpointError("simulated slow-tier outage at manifest PUT")
        return super().write_manifest(tag, manifest)


# ---------------------------------------------------------------------------
# Registry and construction
# ---------------------------------------------------------------------------

def test_create_store_tiered_composes_backends(tmp_path):
    store = create_store("tiered", root=tmp_path / "t")
    assert isinstance(store, TierChain)
    assert isinstance(store, ShardStore)
    assert store.level_names == ["fast", "slow"]
    assert isinstance(store.levels[0].store, FileStore)
    assert isinstance(store.levels[-1].store, ObjectStore)
    assert store.levels[0].store.root == tmp_path / "t" / "fast"
    # Every optional capability is present (fast tier is a FileStore).
    assert supports_shard_writer(store)
    assert supports_mmap(store)


def test_create_store_tiered_custom_tiers(tmp_path):
    store = create_store("tiered", root=tmp_path, tiers="fast:object,slow:file",
                         drain_workers=3, keep_local_latest=0)
    assert isinstance(store.levels[0].store, ObjectStore)
    assert isinstance(store.levels[-1].store, FileStore)
    assert store.levels[-1].store.root == tmp_path / "slow"
    assert store.drain_workers == 3
    assert store.keep_local_latest == 0
    # None is the documented "never evict" mode, not "use the default".
    never = create_store("tiered", root=tmp_path / "n", keep_local_latest=None)
    assert never.keep_local_latest is None
    with pytest.raises(ConfigurationError):
        create_store("tiered", root=tmp_path, tiers="fast:tiered,slow:object")
    with pytest.raises(ConfigurationError):
        create_store("tiered")  # needs a root


def test_tiered_constructor_validation(tmp_path):
    fast = FileStore(tmp_path / "fast")
    with pytest.raises(CheckpointError):
        _pair(fast, fast)
    with pytest.raises(CheckpointError):
        _pair(fast, ObjectStore(), drain_workers=0)
    with pytest.raises(CheckpointError):
        _pair(fast, ObjectStore(), keep_local_latest=-1)


# ---------------------------------------------------------------------------
# Write path: fast-tier commit, background drain, manifest-last ordering
# ---------------------------------------------------------------------------

def test_commit_is_visible_before_the_drain_finishes(tmp_path):
    slow = _GatedSlowStore()
    store = _pair(FileStore(tmp_path / "fast"), slow, keep_local_latest=None)
    try:
        store.write_shard("ckpt-1", "rank0", [b"payload"])
        store.write_manifest("ckpt-1", {"tag": "ckpt-1", "shards": [
            {"rank": 0, "name": "rank0", "nbytes": 7, "checksum": None}]})
        # The local publish is the commit point; the drain is still gated.
        assert store.list_committed_checkpoints() == ["ckpt-1"]
        assert slow.list_committed_checkpoints() == []
        assert store.drain_status("ckpt-1") in (DrainState.LOCAL, DrainState.DRAINING)
    finally:
        slow.gate.set()
    store.wait_drained()
    assert store.drain_status("ckpt-1") is DrainState.REPLICATED
    assert slow.list_committed_checkpoints() == ["ckpt-1"]
    store.close()


def test_drain_orders_manifest_last(tmp_path):
    order = []
    real_put = ObjectStore._put

    class RecordingSlow(ObjectStore):
        def _put(self, key, payload):
            order.append(key)
            real_put(self, key, payload)

    store = _pair(FileStore(tmp_path / "fast"), RecordingSlow(),
                  keep_local_latest=None)
    _save(store, ["ckpt-1"])
    store.wait_drained()
    store.close()
    assert order, "nothing reached the slow tier"
    assert order[-1].endswith("manifest.json")
    assert all(key.endswith(".shard") for key in order[:-1])


def test_all_shard_bytes_replicated_identically(tmp_path):
    store = _tiered(tmp_path)
    _save(store, ["ckpt-1"])
    store.wait_drained()
    assert store.levels[0].store.read_shard("ckpt-1", "rank0") == \
        store.levels[-1].store.read_shard("ckpt-1", "rank0")
    assert store.levels[0].store.read_manifest("ckpt-1") == store.levels[-1].store.read_manifest("ckpt-1")
    metrics = store.drain_metrics()
    assert metrics["drained_checkpoints"] == 1
    assert metrics["bytes_drained"] == store.levels[0].store.total_bytes("ckpt-1")
    assert metrics["pending_drains"] == 0
    store.close()


# ---------------------------------------------------------------------------
# Eviction watermark
# ---------------------------------------------------------------------------

def test_eviction_keeps_newest_local(tmp_path):
    store = _tiered(tmp_path, keep_local_latest=1)
    _save(store, ["ckpt-1", "ckpt-2", "ckpt-3"])
    store.wait_drained()
    store.close()
    # Only the newest replicated checkpoint keeps its fast-tier copy ...
    assert store.levels[0].store.list_committed_checkpoints() == ["ckpt-3"]
    # ... but every checkpoint is still committed and restorable (slow tier).
    assert store.list_committed_checkpoints() == ["ckpt-1", "ckpt-2", "ckpt-3"]
    assert store.drain_metrics()["evicted_checkpoints"] == 2
    assert store.drain_status("ckpt-1") is DrainState.REPLICATED


def test_eviction_disabled_keeps_everything_local(tmp_path):
    store = _tiered(tmp_path, keep_local_latest=None)
    _save(store, ["ckpt-1", "ckpt-2"])
    store.wait_drained()
    store.close()
    assert store.levels[0].store.list_committed_checkpoints() == ["ckpt-1", "ckpt-2"]
    assert store.drain_metrics()["evicted_checkpoints"] == 0


def test_eviction_watermark_zero_evicts_all_replicated(tmp_path):
    store = _tiered(tmp_path, keep_local_latest=0)
    _save(store, ["ckpt-1", "ckpt-2"])
    store.wait_drained()
    store.close()
    assert store.levels[0].store.list_committed_checkpoints() == []
    assert store.list_committed_checkpoints() == ["ckpt-1", "ckpt-2"]


# ---------------------------------------------------------------------------
# Nearest-tier restores
# ---------------------------------------------------------------------------

def test_restore_from_slow_tier_after_local_loss_is_byte_identical(tmp_path):
    """The acceptance criterion: delete the fast tier's copy of a REPLICATED
    checkpoint and load_all restores byte-identical state from the slow tier."""
    store = _tiered(tmp_path)
    _save(store, ["ckpt-1"])
    store.wait_drained()
    reference = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1"))

    store.levels[0].store.delete_checkpoint("ckpt-1")  # simulated local loss
    assert store.list_committed_checkpoints() == ["ckpt-1"]
    for use_mmap in (True, False):
        restored = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1", use_mmap=use_mmap))
        for key in ("model", "optimizer"):
            for name, array in reference[0][key].items():
                np.testing.assert_array_equal(array, restored[0][key][name])
    store.close()


def test_reads_prefer_the_fast_tier(tmp_path):
    store = _tiered(tmp_path)
    _save(store, ["ckpt-1"])
    store.wait_drained()
    before = store.levels[-1].store.get_count
    CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1"))
    assert store.levels[-1].store.get_count == before  # served entirely from the fast tier
    store.close()


# ---------------------------------------------------------------------------
# Promote-on-read rehydration
# ---------------------------------------------------------------------------

def test_promotion_on_read_rehydrates_fast_tier(tmp_path):
    """A slow-tier fallback read lands the part back in the fast tier, and
    once every part is local the fast-tier manifest is republished
    (manifest-last) — so the next restore is served locally again."""
    store = _tiered(tmp_path)
    _save(store, ["ckpt-1"])
    store.wait_drained()
    reference = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1"))
    store.levels[0].store.delete_checkpoint("ckpt-1")  # simulated local loss

    restored = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1"))
    store.wait_drained(timeout=30.0)
    for name, array in reference[0]["model"].items():
        np.testing.assert_array_equal(array, restored[0]["model"][name])
    # Promotion rehydrated the fast tier with the commit invariant intact.
    assert store.levels[0].store.list_committed_checkpoints() == ["ckpt-1"]
    assert store.levels[0].store.read_manifest("ckpt-1") == store.levels[-1].store.read_manifest("ckpt-1")
    metrics = store.drain_metrics()
    assert metrics["promoted_checkpoints"] == 1
    assert metrics["promoted_parts"] >= 1
    assert metrics["bytes_promoted"] == store.levels[0].store.total_bytes("ckpt-1")

    # The next restore never touches the slow tier again.
    before = store.levels[-1].store.get_count
    CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1"))
    assert store.levels[-1].store.get_count == before
    store.close()


def test_promotion_failure_never_fails_the_read(tmp_path, monkeypatch):
    """Promotion is opportunistic: a read-only/full fast tier degrades to
    pure slow-tier restores instead of breaking them."""
    store = _tiered(tmp_path)
    _save(store, ["ckpt-1"])
    store.wait_drained()
    store.levels[0].store.delete_checkpoint("ckpt-1")

    def broken(*_args, **_kwargs):
        raise OSError("read-only file system")

    monkeypatch.setattr(store.levels[0].store, "write_shard", broken)
    restored = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1"))
    store.wait_drained(timeout=30.0)
    assert 0 in restored
    assert store.levels[0].store.list_committed_checkpoints() == []
    assert store.drain_metrics()["promoted_checkpoints"] == 0
    store.close()


# ---------------------------------------------------------------------------
# Cross-tier GC
# ---------------------------------------------------------------------------

def test_delete_removes_both_tiers(tmp_path):
    store = _tiered(tmp_path)
    _save(store, ["ckpt-1", "ckpt-2"])
    store.wait_drained()
    store.delete_checkpoint("ckpt-1")
    assert store.list_checkpoints() == ["ckpt-2"]
    assert store.levels[0].store.list_checkpoints() == ["ckpt-2"]
    assert store.levels[-1].store.list_checkpoints() == ["ckpt-2"]
    store.delete_checkpoint("ckpt-1")  # idempotent
    store.close()


def test_delete_during_inflight_drain_strands_no_keys(tmp_path):
    slow = _GatedSlowStore()
    store = _pair(FileStore(tmp_path / "fast"), slow, keep_local_latest=None)
    _save(store, ["ckpt-1"])
    deleter = threading.Thread(target=store.delete_checkpoint, args=("ckpt-1",))
    deleter.start()
    slow.gate.set()
    deleter.join(timeout=30.0)
    assert not deleter.is_alive()
    store.close()
    assert store.levels[0].store.list_checkpoints() == []
    assert slow.keys() == []  # no orphaned part/manifest objects
    assert store.list_checkpoints() == []


def test_prune_uncommitted_ignores_evicted_checkpoints(tmp_path):
    """An evicted checkpoint (slow-committed, fast-empty) must never look
    torn to the pruner."""
    store = _tiered(tmp_path, keep_local_latest=0)
    _save(store, ["ckpt-1"])
    store.wait_drained()
    store.close()
    assert CheckpointLoader(store).prune_uncommitted() == []
    assert store.list_committed_checkpoints() == ["ckpt-1"]


# ---------------------------------------------------------------------------
# Crash mid-drain and idempotent resume
# ---------------------------------------------------------------------------

def test_crash_mid_drain_restores_from_fast_and_resumes_idempotently(tmp_path):
    fast = FileStore(tmp_path / "fast")
    slow = _FailingManifestSlowStore()
    store = _pair(fast, slow, keep_local_latest=None)
    _save(store, ["ckpt-1"])
    with pytest.raises(CheckpointError, match="drain of checkpoint 'ckpt-1' failed"):
        store.wait_drained()
    store.close()

    # The "crash": parts reached the slow tier, the manifest did not, so the
    # slow tier is uncommitted while the fast tier still restores.
    assert any(key.endswith(".shard") for key in slow.keys())
    assert slow.list_committed_checkpoints() == []
    assert store.drain_status("ckpt-1") is DrainState.LOCAL
    reference = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1"))
    assert 0 in reference

    # "Restart": a new chain over the same tiers resumes the drain.
    slow.heal()
    parts_before = sum(1 for key in slow.keys() if key.endswith(".shard"))
    puts_before = slow.put_count
    resumed = _pair(fast, slow, keep_local_latest=None)
    resumed.wait_drained("ckpt-1")
    assert resumed.drain_status("ckpt-1") is DrainState.REPLICATED
    assert slow.list_committed_checkpoints() == ["ckpt-1"]
    # Idempotent resume: the already-drained parts were skipped, so the only
    # new PUT is the manifest itself.
    assert sum(1 for key in slow.keys() if key.endswith(".shard")) == parts_before
    assert slow.put_count == puts_before + 1
    assert resumed.drain_metrics()["resumed_drains"] == 1
    resumed.close()


def test_recovery_orders_by_iteration_not_tag_name(tmp_path):
    """After a lost sidecar the keep-local watermark must track the newest
    checkpoint by manifest iteration — lexicographic tag order would rank
    'iter-10' before 'iter-9' and evict the wrong fast copy."""
    fast = FileStore(tmp_path / "fast")
    slow = ObjectStore()
    store = _pair(fast, slow, keep_local_latest=None)
    with create_real_engine("datastates", store, host_buffer_size=8 << 20) as engine:
        engine.save(_state(seed=9), tag="iter-9", iteration=9)
        engine.wait_for_snapshot()
        engine.save(_state(seed=10), tag="iter-10", iteration=10)
        engine.wait_for_snapshot()
        engine.wait_all()
    store.wait_drained()
    store.close()
    (tmp_path / "fast" / TIER_INDEX_NAME).unlink()   # the lost sidecar
    # Un-commit iter-9 on the slow tier so the reopened store re-drains it
    # and runs an eviction pass afterwards.
    with slow._lock:
        del slow._objects[slow.manifest_key("iter-9")]

    reopened = _pair(fast, slow, keep_local_latest=1)
    reopened.wait_drained()
    reopened.close()
    # iter-10 (iteration 10) is the newest: it keeps the fast copy.
    assert fast.list_committed_checkpoints() == ["iter-10"]
    assert reopened.list_committed_checkpoints() == ["iter-10", "iter-9"]


def test_recovery_marks_slow_only_checkpoints_replicated(tmp_path):
    store = _tiered(tmp_path, keep_local_latest=0)
    _save(store, ["ckpt-1"])
    store.wait_drained()
    store.close()
    reopened = _pair(store.levels[0].store, store.levels[-1].store, keep_local_latest=0)
    assert reopened.drain_status("ckpt-1") is DrainState.REPLICATED
    assert reopened.drain_metrics()["resumed_drains"] == 0
    reopened.close()


def test_run_real_engine_forwards_store_kwargs_drain_knobs(tmp_path):
    """The tier knobs live on the store: ``store_kwargs`` reach the chain the
    comparison harness builds."""
    from repro.analysis import run_real_engine
    from repro.config import CheckpointPolicy

    row = run_real_engine(
        "deepspeed", tmp_path, iterations=2, hidden_size=32,
        policy=CheckpointPolicy(host_buffer_size=8 << 20),
        store_backend="tiered",
        store_kwargs={"drain_workers": 3, "keep_local_latest": 0})
    assert row["drain"]["drain_workers"] == 3
    assert row["drain"]["drained_checkpoints"] == 2
    assert row["drain"]["evicted_checkpoints"] == 2  # keep_local_latest=0


# ---------------------------------------------------------------------------
# Tier-index sidecar
# ---------------------------------------------------------------------------

def test_tier_index_sidecar_records_residency(tmp_path):
    store = _tiered(tmp_path, keep_local_latest=1)
    _save(store, ["ckpt-1", "ckpt-2"])
    store.wait_drained()
    store.close()
    sidecar = json.loads((tmp_path / "fast" / TIER_INDEX_NAME).read_text("utf-8"))
    assert sidecar["ckpt-1"]["state"] == "replicated"
    assert sidecar["ckpt-1"]["local"] is False    # evicted
    assert sidecar["ckpt-2"]["local"] is True     # the kept-local newest
    # The sidecar never shadows the fast tier's checkpoint listing.
    assert TIER_INDEX_NAME not in store.levels[0].store.list_checkpoints()


def test_tier_index_sidecar_never_lands_an_older_snapshot_last(tmp_path, monkeypatch):
    """Two persists race: the first snapshots, then stalls in its publish
    while residency changes and a second persist runs.  The sidecar must end
    with the newer residency — the second waits for the first instead of
    being overwritten by its older snapshot."""
    import repro.io.tiered as tiered

    store = _tiered(tmp_path)
    _save(store, ["ckpt-1"])
    store.wait_drained()
    first_publishing, second_published = threading.Event(), threading.Event()
    real_publish = tiered.publish_file

    def publish(*args, **kwargs):
        if not first_publishing.is_set():
            first_publishing.set()
            second_published.wait(timeout=0.5)  # times out once they are serialised
            return real_publish(*args, **kwargs)
        real_publish(*args, **kwargs)
        second_published.set()

    monkeypatch.setattr(tiered, "publish_file", publish)
    first = threading.Thread(target=store._persist_sidecar)
    first.start()
    assert first_publishing.wait(timeout=10.0)
    with store._lock:
        store._jobs["ckpt-1"].residency.discard(0)  # as an eviction would
    second = threading.Thread(target=store._persist_sidecar)
    second.start()
    for thread in (first, second):
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    sidecar = json.loads((tmp_path / "fast" / TIER_INDEX_NAME).read_text("utf-8"))
    assert sidecar["ckpt-1"]["local"] is False
    store.close()


# ---------------------------------------------------------------------------
# Ranged reads (satellite): pread / ranged GET / nearest tier
# ---------------------------------------------------------------------------

def test_file_store_read_shard_range(tmp_path):
    store = FileStore(tmp_path)
    store.write_shard("ckpt-1", "rank0", [b"0123456789"])
    assert store.read_shard_range("ckpt-1", "rank0", 0, 4) == b"0123"
    assert store.read_shard_range("ckpt-1", "rank0", 6, 4) == b"6789"
    with pytest.raises(CheckpointError):
        store.read_shard_range("ckpt-1", "rank0", 8, 4)   # past the end
    with pytest.raises(CheckpointError):
        store.read_shard_range("ckpt-1", "rank0", -1, 2)
    with pytest.raises(CheckpointError):
        store.read_shard_range("ckpt-1", "gone", 0, 1)


def test_object_store_read_shard_range_counts_requests():
    store = ObjectStore()
    store.write_shard("ckpt-1", "rank0", [b"0123456789"])
    before = store.get_count
    assert store.read_shard_range("ckpt-1", "rank0", 2, 5) == b"23456"
    assert store.get_count == before + 1
    with pytest.raises(CheckpointError):
        store.read_shard_range("ckpt-1", "rank0", 0, 11)


def test_object_store_shard_size_is_a_head_not_a_get():
    store = ObjectStore()
    store.write_shard("ckpt-1", "rank0", [b"0123456789"])
    before = store.get_count
    assert store.shard_size("ckpt-1", "rank0") == 10
    with pytest.raises(CheckpointError, match="does not exist"):
        store.shard_size("ckpt-1", "gone")
    assert store.get_count == before


def test_tiered_read_shard_range_falls_back_to_slow(tmp_path):
    store = _tiered(tmp_path)
    _save(store, ["ckpt-1"])
    store.wait_drained()
    whole = store.levels[0].store.read_shard("ckpt-1", "rank0")
    store.levels[0].store.delete_checkpoint("ckpt-1")
    assert store.read_shard_range("ckpt-1", "rank0", 4, 16) == whole[4:20]
    store.close()


# ---------------------------------------------------------------------------
# Drain retries: transient slow-tier failures are ridden out with backoff
# ---------------------------------------------------------------------------

def _flaky_slow(seed=0, **plan_kwargs):
    from repro.io import FaultPlan, FaultyStore

    return FaultyStore(ObjectStore(bucket="flaky"), FaultPlan(seed=seed, **plan_kwargs))


def test_drain_rides_out_transient_slow_tier_failures(tmp_path):
    """Every slow-tier op fails exactly once (a flaky NIC): the drain's
    bounded retries absorb it — replication succeeds with no failed drain."""
    slow = _flaky_slow(seed=1, write_error_prob=1.0, max_failures_per_op=1)
    store = _pair(FileStore(tmp_path / "fast"), slow, keep_local_latest=None)
    _save(store, ["ckpt-000"])
    store.wait_drained(timeout=30.0)
    metrics = store.drain_metrics()
    assert metrics["failed_drains"] == 0
    assert metrics["retried_drains"] >= 1
    assert metrics["drained_checkpoints"] == 1
    assert store.drain_status("ckpt-000") is DrainState.REPLICATED
    assert slow.inner.list_committed_checkpoints() == ["ckpt-000"]


def test_drain_stays_draining_until_retries_resolve(tmp_path):
    """Between attempts the checkpoint must stay DRAINING (satellite
    requirement): it only leaves the state on success or exhausted retries."""
    slow = _GatedSlowStore()
    store = _pair(FileStore(tmp_path / "fast"), slow, keep_local_latest=None)
    _save(store, ["ckpt-000"])
    assert store.drain_status("ckpt-000") in (DrainState.LOCAL, DrainState.DRAINING)
    slow.gate.set()
    store.wait_drained(timeout=30.0)
    assert store.drain_status("ckpt-000") is DrainState.REPLICATED


def test_exhausted_drain_retries_surface_in_counters_and_wait(tmp_path, monkeypatch):
    """Persistent slow-tier failure: retries exhaust, the drain fails loudly
    (wait_drained raises), and the checkpoint stays restorable from the
    fast tier."""
    monkeypatch.setattr(tiered, "DRAIN_RETRIES", 1)
    slow = _flaky_slow(seed=2, write_error_prob=1.0)  # persistent
    store = _pair(FileStore(tmp_path / "fast"), slow, keep_local_latest=None)
    _save(store, ["ckpt-000"])
    with pytest.raises(CheckpointError):
        store.wait_drained(timeout=30.0)
    metrics = store.drain_metrics()
    assert metrics["failed_drains"] == 1
    assert metrics["retried_drains"] == 1  # one retry granted, then exhausted
    assert metrics["drained_checkpoints"] == 0
    assert store.drain_status("ckpt-000") is DrainState.LOCAL
    # The commit invariant holds: the fast tier still restores bit-exactly.
    loaded = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-000"))
    np.testing.assert_array_equal(loaded[0]["model"]["w"], _state(0)["model"]["w"])


def test_zero_drain_retries_fail_on_first_error(tmp_path, monkeypatch):
    monkeypatch.setattr(tiered, "DRAIN_RETRIES", 0)
    slow = _flaky_slow(seed=3, write_error_prob=1.0, max_failures_per_op=1)
    store = _pair(FileStore(tmp_path / "fast"), slow, keep_local_latest=None)
    _save(store, ["ckpt-000"])
    with pytest.raises(CheckpointError):
        store.wait_drained(timeout=30.0)
    metrics = store.drain_metrics()
    assert metrics["failed_drains"] == 1
    assert metrics["retried_drains"] == 0


def test_drain_retry_settings_are_module_constants(tmp_path, monkeypatch):
    """Retries, their backoff and the backpressure bound are module
    constants, not settings of a chain: the constructor and the factory
    refuse them, drain_metrics() does not echo them, and the constant is
    what a link reads when it runs."""
    for knob in ("drain_retries", "drain_backoff_s", "backpressure_timeout_s"):
        with pytest.raises(TypeError):
            _tiered(tmp_path, **{knob: 1})
        with pytest.raises(TypeError):
            create_store("tiered", root=tmp_path / "t", **{knob: 1})
    monkeypatch.setattr(tiered, "DRAIN_RETRIES", 3)
    slow = _flaky_slow(seed=2, write_error_prob=1.0)  # persistent
    store = _pair(FileStore(tmp_path / "fast"), slow, keep_local_latest=None)
    _save(store, ["ckpt-000"])
    with pytest.raises(CheckpointError):
        store.wait_drained(timeout=30.0)
    metrics = store.drain_metrics()
    assert metrics["retried_drains"] == 3
    assert "drain_retries" not in metrics
    store.close()
