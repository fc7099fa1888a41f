"""Tests for the N-level tier chain: chain construction and the ``--tiers``
spec grammar, per-link drains through three levels, nearest-level-first
restores with multi-level promote-on-read, watermark eviction on interior
levels, commit backpressure at the level-0 watermark (``drain_wait_ms``),
pre-refactor sidecar compatibility, and the per-link generalization of the
analytic drain-lag loss window."""

import json
import threading
import time

import numpy as np
import pytest

from repro.config import PlatformSpec
from repro.core import create_real_engine
from repro.exceptions import CheckpointError, ConfigurationError
from repro.io import (
    DrainState,
    FaultPlan,
    FaultyStore,
    FileStore,
    ObjectStore,
    ShardStore,
    TierChain,
    TierChainLevelSpec,
    TierLevel,
    create_store,
    parse_tier_chain_spec,
)
from repro.io.tiered import TIER_INDEX_NAME
from repro.restart import CheckpointLoader, RestoreSpec
from repro.units import parse_bytes


def _state(seed=0, size=256):
    rng = np.random.default_rng(seed)
    return {
        "model": {"w": rng.normal(size=(size, 4)), "b": rng.normal(size=size)},
        "optimizer": {"m": rng.normal(size=(size, 4)), "step": seed},
        "iteration": seed,
    }


def _chain3(tmp_path, **kwargs) -> TierChain:
    """A 3-level file -> file -> object chain with no eviction by default."""
    kwargs.setdefault("keep_local_latest", None)
    kwargs.setdefault("drain_backoff_s", 0.01)
    return TierChain(
        [
            TierLevel(FileStore(tmp_path / "nvme"), name="nvme"),
            TierLevel(FileStore(tmp_path / "pfs"), name="pfs"),
            TierLevel(ObjectStore(), name="object"),
        ],
        **kwargs,
    )


def _save(store, tags, seed_offset=0):
    """Commit one checkpoint per tag through a real engine."""
    with create_real_engine("datastates", store, host_buffer_size=8 << 20) as engine:
        for index, tag in enumerate(tags):
            engine.save(_state(seed=index + seed_offset), tag=tag, iteration=index)
            engine.wait_for_snapshot()
        engine.wait_all()


def _commit_raw(store, tag, payload=b"0123456789", iteration=0):
    """Commit one single-shard checkpoint at the store protocol level."""
    store.write_shard(tag, "rank0", [payload])
    store.write_manifest(tag, {"tag": tag, "iteration": iteration, "shards": [
        {"rank": 0, "name": "rank0", "nbytes": len(payload), "checksum": None}]})


class _GatedStore(ObjectStore):
    """An object store whose shard writes block until the test opens a gate."""

    def __init__(self, bucket="gated"):
        super().__init__(bucket=bucket)
        self.gate = threading.Event()

    def write_shard(self, tag, shard_name, chunks):
        self.gate.wait(timeout=30.0)
        return super().write_shard(tag, shard_name, chunks)


# ---------------------------------------------------------------------------
# --tiers spec grammar
# ---------------------------------------------------------------------------

def test_parse_tier_chain_spec_full_grammar():
    entries = parse_tier_chain_spec(
        "nvme:file:/local/nvme:50GiB@0.8, pfs:file:/lustre/ckpts, object:object")
    assert entries == [
        TierChainLevelSpec(name="nvme", backend="file", root="/local/nvme",
                           capacity_bytes=50 * 2**30, watermark=0.8),
        TierChainLevelSpec(name="pfs", backend="file", root="/lustre/ckpts"),
        TierChainLevelSpec(name="object", backend="object"),
    ]


def test_parse_tier_chain_spec_capacity_units_and_order():
    # Decimal vs binary suffixes, and capacity tokens recognised regardless
    # of whether a root path precedes them.
    entries = parse_tier_chain_spec("a:file:1.5GB,b:object:/bucket:2MiB")
    assert entries[0].capacity_bytes == parse_bytes("1.5GB") == 1_500_000_000
    assert entries[0].root is None
    assert entries[1].root == "/bucket"
    assert entries[1].capacity_bytes == 2 * 2**20
    assert entries[1].watermark is None


@pytest.mark.parametrize("bad", [
    "nvme:file",                      # one level is not a chain
    "a:file,a:object",                # duplicate level names
    "a,b:object",                     # missing backend
    ":file,b:object",                 # missing name
    "a:file:/x:/y,b:object",          # two root paths
])
def test_parse_tier_chain_spec_rejects(bad):
    with pytest.raises(ConfigurationError):
        parse_tier_chain_spec(bad)


def test_tier_level_validation():
    store = ObjectStore()
    with pytest.raises(CheckpointError):
        TierLevel(store, capacity_bytes=0)
    with pytest.raises(CheckpointError):
        TierLevel(store, drain_workers=0)
    with pytest.raises(CheckpointError):
        TierLevel(store, watermark=0.0)
    with pytest.raises(CheckpointError):
        TierLevel(store, watermark=1.5)


# ---------------------------------------------------------------------------
# Factory: create_store("tiered", tiers=...)
# ---------------------------------------------------------------------------

def test_create_store_tiers_builds_chain(tmp_path):
    store = create_store(
        "tiered", root=tmp_path / "chain",
        tiers="nvme:file:16MiB@0.75,pfs:file,object:object")
    assert isinstance(store, TierChain)
    assert isinstance(store, ShardStore)
    assert store.level_names == ["nvme", "pfs", "object"]
    assert isinstance(store.fast, FileStore)
    assert isinstance(store.levels[1].store, FileStore)
    assert isinstance(store.slow, ObjectStore)
    # Per-level roots derive from the chain root and the level name.
    assert store.fast.root == tmp_path / "chain" / "nvme"
    assert store.levels[1].store.root == tmp_path / "chain" / "pfs"
    assert store.levels[0].capacity_bytes == 16 * 2**20
    assert store.levels[0].watermark == 0.75
    assert store.levels[1].capacity_bytes is None
    store.close()


def test_create_store_tiers_rejects_recursive_levels(tmp_path):
    with pytest.raises(ConfigurationError):
        create_store("tiered", root=tmp_path, tiers="a:tiered,b:object")
    with pytest.raises(ConfigurationError):
        create_store("tiered", root=tmp_path, tiers="a:file,b:faulty")


def test_chain_constructor_validation(tmp_path):
    fast = FileStore(tmp_path / "a")
    with pytest.raises(CheckpointError):
        TierChain([fast])  # one level is not a chain
    with pytest.raises(CheckpointError):
        TierChain([fast, fast])  # same store twice
    with pytest.raises(CheckpointError):
        TierChain([TierLevel(fast, name="x"),
                   TierLevel(ObjectStore(), name="x")])  # duplicate names
    with pytest.raises(CheckpointError):
        TierChain([fast, ObjectStore()], backpressure_timeout_s=0.0)


# ---------------------------------------------------------------------------
# Per-link drain through three levels
# ---------------------------------------------------------------------------

def test_three_level_chain_drains_link_by_link_and_restores(tmp_path):
    store = _chain3(tmp_path)
    try:
        _save(store, ["ckpt-1", "ckpt-2"])
        store.wait_drained(timeout=30.0)
        # Every level holds a committed copy; the deepest is the durability
        # floor, so REPLICATED means "manifest visible on the object level".
        for level in store.levels:
            assert sorted(level.store.list_committed_checkpoints()) == [
                "ckpt-1", "ckpt-2"]
        assert store.drain_status("ckpt-2") is DrainState.REPLICATED
        assert store.residency_names("ckpt-2") == ["nvme", "pfs", "object"]
        metrics = store.drain_metrics()
        assert metrics["tier_levels"] == 3
        assert metrics["drained_checkpoints"] == 2
        assert metrics["drain_wait_ms"] == 0.0  # unbounded chain: no gate
        restored = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1"))
        np.testing.assert_array_equal(restored[0]["model"]["w"],
                                      _state(seed=0)["model"]["w"])
    finally:
        store.close()


def test_chain_drain_publishes_manifest_last_per_link(tmp_path):
    """The interior level must never show a committed checkpoint before the
    parts landed there — same manifest-last invariant as a save, per link."""
    gated = _GatedStore()
    store = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme"),
        TierLevel(gated, name="mid"),
        TierLevel(ObjectStore(bucket="deep"), name="deep"),
    ], keep_local_latest=None)
    try:
        _commit_raw(store, "ckpt-1")
        # Link 0 is gated at its first shard PUT: nothing may be committed on
        # the interior or deep level yet.
        assert gated.list_committed_checkpoints() == []
        assert store.slow.list_committed_checkpoints() == []
        assert store.residency_names("ckpt-1") == ["nvme"]
    finally:
        gated.gate.set()
    store.wait_drained(timeout=30.0)
    assert gated.list_committed_checkpoints() == ["ckpt-1"]
    assert store.slow.list_committed_checkpoints() == ["ckpt-1"]
    store.close()


def test_chain_resumes_interrupted_mid_chain_drain(tmp_path):
    """Crash-mid-drain between links: parts on the interior level but no
    deep-level manifest.  A new chain over the same stores resumes from the
    deepest committed level and skips the up-to-date parts."""
    nvme = FileStore(tmp_path / "nvme")
    pfs = FileStore(tmp_path / "pfs")
    payload = b"x" * 4096
    # Hand-build the interrupted state: committed on nvme AND pfs (link 0
    # done), parts absent deeper (link 1 never ran).
    for target in (nvme, pfs):
        target.write_shard("ckpt-1", "rank0", [payload])
        target.write_manifest("ckpt-1", {"tag": "ckpt-1", "iteration": 0, "shards": [
            {"rank": 0, "name": "rank0", "nbytes": len(payload), "checksum": None}]})
    deep = ObjectStore()
    store = TierChain([TierLevel(nvme, name="nvme"), TierLevel(pfs, name="pfs"),
                       TierLevel(deep, name="object")], keep_local_latest=None)
    store.wait_drained(timeout=30.0)
    assert store.drains_resumed == 1
    assert deep.list_committed_checkpoints() == ["ckpt-1"]
    # The resumed drain had one link left: exactly one part crossed it.
    job_bytes = store.drain_metrics()["bytes_drained"]
    assert job_bytes == len(payload)
    assert store.read_shard("ckpt-1", "rank0") == payload
    store.close()


def _torn_source_chain(tmp_path, plan):
    """Level 0 tears shard reads per ``plan``; level 1 is a plain object store."""
    return TierChain([TierLevel(FaultyStore(FileStore(tmp_path / "l0"), plan), name="l0"),
                      TierLevel(ObjectStore(), name="object")],
                     keep_local_latest=None, drain_retries=2, drain_backoff_s=0.0)


def test_short_drain_copy_never_publishes_the_deeper_manifest(tmp_path):
    """Every read of the source is torn: the drain fails loudly and the
    deeper level never lists a checkpoint whose part is short."""
    store = _torn_source_chain(tmp_path, FaultPlan(torn_read_prob=1.0))
    try:
        _commit_raw(store, "ckpt-1", payload=b"x" * 4096)
        with pytest.raises(CheckpointError, match="2048 of 4096"):
            store.wait_drained(timeout=30.0)
        assert store.slow.list_committed_checkpoints() == []
        assert store.residency_names("ckpt-1") == ["l0"]
    finally:
        store.close()


def test_short_drain_copy_is_retried_to_a_full_copy(tmp_path):
    """Only the first read tears: the retry copies the whole part, and only
    then is the deeper manifest published."""
    key = "ckpt-1/rank0"
    seed = next(seed for seed in range(1000)
                if FaultPlan(seed=seed).roll("torn_read", key, 0) < 0.5
                <= FaultPlan(seed=seed).roll("torn_read", key, 1))
    store = _torn_source_chain(tmp_path, FaultPlan(seed=seed, torn_read_prob=0.5))
    payload = bytes(range(256)) * 16
    try:
        _commit_raw(store, "ckpt-1", payload=payload)
        store.wait_drained(timeout=30.0)
        assert store.drains_retried == 1
        assert store.slow.list_committed_checkpoints() == ["ckpt-1"]
        assert store.slow.read_shard("ckpt-1", "rank0") == payload
    finally:
        store.close()


# ---------------------------------------------------------------------------
# Nearest-level-first restores and promote-on-read
# ---------------------------------------------------------------------------

def test_restore_falls_through_and_promotes_every_level_above_hit(tmp_path):
    deep = ObjectStore()
    store = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme"),
        TierLevel(FileStore(tmp_path / "pfs"), name="pfs"),
        TierLevel(deep, name="object"),
    ], keep_local_latest=None)
    _save(store, ["ckpt-1"])
    store.wait_drained(timeout=30.0)
    store.close()

    # Lose the two shallow levels wholesale (node loss), keep the object tier.
    import shutil
    shutil.rmtree(tmp_path / "nvme")
    shutil.rmtree(tmp_path / "pfs")

    reopened = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme"),
        TierLevel(FileStore(tmp_path / "pfs"), name="pfs"),
        TierLevel(deep, name="object"),
    ], keep_local_latest=None)
    try:
        assert reopened.residency_names("ckpt-1") == ["object"]
        restored = CheckpointLoader(reopened).restore(RestoreSpec.full(tag="ckpt-1"))
        np.testing.assert_array_equal(restored[0]["model"]["w"],
                                      _state(seed=0)["model"]["w"])
        # Promote-on-read re-warmed BOTH shallow levels, manifest included.
        assert reopened.levels[0].store.list_committed_checkpoints() == ["ckpt-1"]
        assert reopened.levels[1].store.list_committed_checkpoints() == ["ckpt-1"]
        assert reopened.residency_names("ckpt-1") == ["nvme", "pfs", "object"]
        metrics = reopened.drain_metrics()
        assert metrics["promoted_parts"] > 0
        assert metrics["promoted_checkpoints"] == 1  # full level-0 rehydration
        assert metrics["bytes_promoted"] > 0
    finally:
        reopened.close()


def test_restore_from_interior_level_promotes_to_level_zero(tmp_path):
    """A hit on the middle level re-warms level 0 (promotion flows toward
    the trainer; the drain, not the promotion, fills the deeper level)."""
    deep = ObjectStore()
    pfs = FileStore(tmp_path / "pfs")
    payload = b"y" * 2048
    # Commit only on pfs: level 0 misses, level 1 hits, level 2 is empty.
    pfs.write_shard("ckpt-1", "rank0", [payload])
    pfs.write_manifest("ckpt-1", {"tag": "ckpt-1", "iteration": 0, "shards": [
        {"rank": 0, "name": "rank0", "nbytes": len(payload), "checksum": None}]})
    chain = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme"),
        TierLevel(pfs, name="pfs"), TierLevel(deep, name="object"),
    ], keep_local_latest=None, drain_backoff_s=0.01)
    try:
        # Recovery sees pfs-only residency and resumes the drain; wait it out
        # so the read below exercises promotion, not the drain.
        chain.wait_drained(timeout=30.0)
        assert chain.read_shard("ckpt-1", "rank0") == payload
        assert chain.levels[0].store.list_committed_checkpoints() == ["ckpt-1"]
        assert chain.residency_names("ckpt-1") == ["nvme", "pfs", "object"]
    finally:
        chain.close()


# ---------------------------------------------------------------------------
# Watermark eviction
# ---------------------------------------------------------------------------

def test_interior_level_evicts_back_below_watermark(tmp_path):
    """A capacity-bounded middle tier sheds replicated checkpoints once they
    reach the deeper level; the deepest level keeps everything."""
    payload = b"z" * 4096
    store = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme"),
        # Fits one payload comfortably, never two: the second drain's
        # eviction pass must trim the older checkpoint off the middle tier.
        TierLevel(FileStore(tmp_path / "pfs"), name="pfs",
                  capacity_bytes=6000, watermark=0.9),
        TierLevel(ObjectStore(), name="object"),
    ], keep_local_latest=None, drain_backoff_s=0.01)
    try:
        _commit_raw(store, "ckpt-1", payload, iteration=1)
        store.wait_drained("ckpt-1", timeout=30.0)
        _commit_raw(store, "ckpt-2", payload, iteration=2)
        store.wait_drained("ckpt-2", timeout=30.0)
        deadline = time.monotonic() + 10.0
        while (store.level_used_bytes(1) > 0.9 * 6000
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert store.level_used_bytes(1) <= 0.9 * 6000
        assert store.evicted_checkpoints >= 1
        assert "ckpt-1" not in store.levels[1].store.list_committed_checkpoints()
        # The chain still serves both (nearest remaining level), and the
        # deepest level still holds everything.
        assert sorted(store.slow.list_committed_checkpoints()) == [
            "ckpt-1", "ckpt-2"]
        assert store.read_shard("ckpt-1", "rank0") == payload
    finally:
        store.close()


def test_uncapacitied_level_zero_keeps_legacy_count_eviction(tmp_path):
    store = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme"),
        TierLevel(FileStore(tmp_path / "pfs"), name="pfs"),
        TierLevel(ObjectStore(), name="object"),
    ], keep_local_latest=1, drain_backoff_s=0.01)
    try:
        for index in (1, 2):
            _commit_raw(store, f"ckpt-{index}", iteration=index)
            store.wait_drained(f"ckpt-{index}", timeout=30.0)
        deadline = time.monotonic() + 10.0
        while (len(store.levels[0].store.list_committed_checkpoints()) > 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert store.levels[0].store.list_committed_checkpoints() == ["ckpt-2"]
        # keep_local_latest only governs level 0; interior levels without a
        # capacity are left alone.
        assert sorted(store.levels[1].store.list_committed_checkpoints()) == [
            "ckpt-1", "ckpt-2"]
    finally:
        store.close()


# ---------------------------------------------------------------------------
# Backpressure: commits block at the level-0 watermark
# ---------------------------------------------------------------------------

def test_commit_blocks_at_watermark_until_drain_frees_space(tmp_path):
    """The acceptance-criteria scenario: with level 0 over its watermark and
    the drain gated, the next commit blocks (instead of overflowing the
    level); opening the gate lets the drain replicate + evict, after which
    the blocked commit proceeds and ``drain_wait_ms`` shows the stall."""
    gated = _GatedStore()
    store = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme",
                  capacity_bytes=64 * 1024, watermark=0.9),
        TierLevel(gated, name="object"),
    ], keep_local_latest=None, drain_backoff_s=0.01)
    payload = b"a" * (60 * 1024)  # above the 57.6 KiB watermark on its own
    try:
        _commit_raw(store, "ckpt-1", payload, iteration=1)
        assert store.level_used_bytes(0) == len(payload)

        committed = threading.Event()

        def second_commit():
            _commit_raw(store, "ckpt-2", payload, iteration=2)
            committed.set()

        writer = threading.Thread(target=second_commit, daemon=True)
        writer.start()
        # The commit must be blocked, not failed and not landed: level 0
        # stays at one payload, below its byte capacity.
        assert not committed.wait(0.3)
        assert store.level_used_bytes(0) == len(payload)
        assert store.level_used_bytes(0) <= 64 * 1024

        gated.gate.set()  # drain ckpt-1 deeper -> eviction frees level 0
        assert committed.wait(30.0), "gated commit never unblocked"
        writer.join(timeout=30.0)
        store.wait_drained(timeout=30.0)
        assert store.drain_metrics()["drain_wait_ms"] > 0.0
        assert sorted(gated.list_committed_checkpoints()) == ["ckpt-1", "ckpt-2"]
        assert store.read_shard("ckpt-2", "rank0") == payload
    finally:
        gated.gate.set()
        store.close()


def test_large_incoming_write_evicts_past_the_watermark(tmp_path):
    """Regression: a pending commit bigger than the level's free headroom
    must drive eviction BELOW the watermark.  With the level just under its
    watermark, a headroom-blind eviction pass sees a healthy level, frees
    nothing, and the gate deadlocks until the backpressure timeout."""
    store = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme",
                  capacity_bytes=64 * 1024, watermark=0.9),
        TierLevel(ObjectStore(), name="object"),
    ], keep_local_latest=None, drain_backoff_s=0.01,
        backpressure_timeout_s=10.0)
    payload = b"c" * (40 * 1024)  # under the 57.6 KiB watermark on its own
    try:
        _commit_raw(store, "ckpt-1", payload, iteration=1)
        store.wait_drained("ckpt-1", timeout=30.0)
        # 40 KiB used + 40 KiB incoming > watermark: the gate must evict the
        # (replicated) first checkpoint instead of waiting out the timeout.
        start = time.monotonic()
        with store.create_shard_writer("ckpt-2", "rank0",
                                       len(payload)) as writer:
            writer.pwrite(0, payload)
            writer.commit()
        assert time.monotonic() - start < 5.0, "gate waited out the timeout"
        store.write_manifest("ckpt-2", {"tag": "ckpt-2", "iteration": 2, "shards": [
            {"rank": 0, "name": "rank0", "nbytes": len(payload), "checksum": None}]})
        store.wait_drained(timeout=30.0)
        assert "ckpt-1" not in store.levels[0].store.list_committed_checkpoints()
        assert store.read_shard("ckpt-2", "rank0") == payload
        assert store.read_shard("ckpt-1", "rank0") == payload  # deep copy survives
    finally:
        store.close()


def test_backpressure_times_out_loudly(tmp_path):
    gated = _GatedStore()
    store = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme",
                  capacity_bytes=16 * 1024, watermark=0.5),
        TierLevel(gated, name="object"),
    ], keep_local_latest=None, backpressure_timeout_s=0.2)
    payload = b"b" * (12 * 1024)
    try:
        _commit_raw(store, "ckpt-1", payload)
        with pytest.raises(CheckpointError, match="backpressure timeout"):
            store.write_shard("ckpt-2", "rank0", [payload])
        assert store.drain_metrics()["drain_wait_ms"] > 0.0
    finally:
        gated.gate.set()
        store.close()


def test_engine_stats_surface_drain_wait(tmp_path):
    store = create_store("tiered", root=tmp_path / "chain",
                         tiers="nvme:file:1GiB,object:object")
    with create_real_engine("datastates", store,
                            host_buffer_size=8 << 20) as engine:
        engine.save(_state(seed=0), tag="ckpt-1", iteration=0)
        engine.wait_all()
        # The chain's drain_metrics() is the one place the counter is read.
        assert "drain_wait_ms" not in engine.stats()
    assert store.drain_metrics()["drain_wait_ms"] == pytest.approx(0.0)  # never gated here
    store.wait_drained(timeout=30.0)
    store.close()


# ---------------------------------------------------------------------------
# Sidecar compatibility with the pre-chain two-tier store
# ---------------------------------------------------------------------------

def test_two_level_chain_restores_pre_refactor_sidecar(tmp_path):
    """A checkpoint written by the pre-chain two-tier store (sidecar entries
    carry only ``state``/``sequence``/``local``) restores bit-exactly
    through the chain, and the rewritten sidecar keeps the legacy keys."""
    fast = FileStore(tmp_path / "fast")
    slow = FileStore(tmp_path / "slow")
    payload = b"0123456789" * 100
    for target in (fast, slow):
        target.write_shard("ckpt-1", "rank0", [payload])
        target.write_manifest("ckpt-1", {"tag": "ckpt-1", "iteration": 3, "shards": [
            {"rank": 0, "name": "rank0", "nbytes": len(payload), "checksum": None}]})
    # The exact pre-refactor on-disk sidecar shape: no "levels" key.
    (tmp_path / "fast" / TIER_INDEX_NAME).write_text(json.dumps({
        "ckpt-1": {"state": "replicated", "sequence": 1, "local": True},
    }), encoding="utf-8")

    store = TierChain([TierLevel(fast, name="fast"), TierLevel(slow, name="slow")],
                      keep_local_latest=None)
    try:
        assert store.list_committed_checkpoints() == ["ckpt-1"]
        assert store.drain_status("ckpt-1") is DrainState.REPLICATED
        assert store.read_shard("ckpt-1", "rank0") == payload
        store.wait_drained(timeout=30.0)
        rewritten = json.loads(
            (tmp_path / "fast" / TIER_INDEX_NAME).read_text(encoding="utf-8"))
        entry = rewritten["ckpt-1"]
        # Legacy keys survive for old tooling; "levels" is additive.
        assert entry["state"] == "replicated"
        assert entry["local"] is True
        assert entry["levels"] == [0, 1]
    finally:
        store.close()


def test_level_zero_commit_writes_no_sidecar_on_the_committing_thread(tmp_path,
                                                                    monkeypatch):
    """The training-visible commit is the level-0 manifest alone: the
    sidecar is first written by the drain (its DRAINING record), and after
    the drain it records the tag on every level."""
    import repro.io.tiered as tiered

    publishers = []
    real_publish = tiered.publish_file

    def publish(*args, **kwargs):
        publishers.append(threading.current_thread())
        return real_publish(*args, **kwargs)

    monkeypatch.setattr(tiered, "publish_file", publish)
    store = _chain3(tmp_path)
    try:
        store.write_shard("ckpt-1", "rank0", [b"0123456789"])
        store.write_manifest("ckpt-1", {"tag": "ckpt-1", "iteration": 1, "shards": [
            {"rank": 0, "name": "rank0", "nbytes": 10, "checksum": None}]})
        assert threading.current_thread() not in publishers
        store.wait_drained(timeout=30.0)
        assert publishers
        sidecar = json.loads((tmp_path / "nvme" / TIER_INDEX_NAME).read_text(encoding="utf-8"))
        assert sidecar == {"ckpt-1": {"state": "replicated", "sequence": 1,
                                      "local": True, "levels": [0, 1, 2]}}
    finally:
        store.close()


def test_tiered_store_is_a_two_level_chain(tmp_path):
    """``create_store("tiered", root)`` with nothing else given builds the
    classic pair — same level names, level-0 root and sidecar entry shape as
    the two-tier store it replaced."""
    store = create_store("tiered", root=tmp_path)
    try:
        assert isinstance(store, TierChain)
        assert store.level_names == ["fast", "slow"]
        assert len(store.levels) == 2
        assert store.drain_metrics()["tier_levels"] == 2
        assert store.fast.root == tmp_path / "fast"
        assert isinstance(store.slow, ObjectStore)
        _save(store, ["ckpt-1"])
        store.wait_drained(timeout=30.0)
        sidecar = json.loads(
            (tmp_path / "fast" / TIER_INDEX_NAME).read_text(encoding="utf-8"))
        assert sidecar["ckpt-1"] == {"state": "replicated", "sequence": 1,
                                     "local": True, "levels": [0, 1]}
    finally:
        store.close()


def test_default_tiered_root_reopens_and_resumes_a_half_done_drain(tmp_path, monkeypatch):
    """A root written through the default factory reopens through it: the
    checkpoint whose drain died before its manifest reached the slow level
    restores from level 0 and is drained again."""
    store = create_store("tiered", root=tmp_path, drain_retries=0)

    def outage(tag, manifest):
        raise CheckpointError("simulated slow-level outage at manifest PUT")

    monkeypatch.setattr(store.slow, "write_manifest", outage)
    _save(store, ["ckpt-1"])
    with pytest.raises(CheckpointError):
        store.wait_drained(timeout=30.0)
    store.close()
    reference = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1"))

    reopened = create_store("tiered", root=tmp_path)
    try:
        assert reopened.drain_metrics()["resumed_drains"] == 1
        reopened.wait_drained(timeout=30.0)
        assert reopened.drain_status("ckpt-1") is DrainState.REPLICATED
        assert reopened.slow.list_committed_checkpoints() == ["ckpt-1"]
        restored = CheckpointLoader(reopened).restore(RestoreSpec.full(tag="ckpt-1"))
        for name, array in reference[0]["model"].items():
            np.testing.assert_array_equal(array, restored[0]["model"][name])
    finally:
        reopened.close()


# ---------------------------------------------------------------------------
# CLI: residency column
# ---------------------------------------------------------------------------

def test_cli_list_shows_residency_column(tmp_path, capsys):
    from repro.cli import main

    root = tmp_path / "chain"
    # Every level is directory-backed, so residency survives the reopen: the
    # CLI builds its own chain over the same root, and a fresh in-memory
    # object level would be re-drained in the background while `list` prints.
    tiers = "nvme:file,pfs:file,archive:file"
    store = create_store("tiered", root=root, tiers=tiers)
    _save(store, ["ckpt-1"])
    store.wait_drained(timeout=30.0)
    store.close()
    code = main(["list", "--workdir", str(root), "--store", "tiered",
                 "--tiers", tiers])
    out = capsys.readouterr().out
    assert code == 0
    assert "tiers" in out
    assert "all" in out  # fully drained: every level holds a copy


def test_residency_cell_formats(tmp_path):
    from repro.cli import _residency_cell

    gated = _GatedStore()
    store = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme"),
        TierLevel(FileStore(tmp_path / "pfs"), name="pfs"),
        TierLevel(gated, name="object"),
    ], keep_local_latest=None)
    try:
        _commit_raw(store, "ckpt-1")
        deadline = time.monotonic() + 10.0
        while (store.residency_names("ckpt-1") != ["nvme", "pfs"]
               and time.monotonic() < deadline):
            time.sleep(0.01)
        # Mid-drain: the first link completed, the gated one has not.
        assert _residency_cell(store, "ckpt-1") == "nvme+pfs"
    finally:
        gated.gate.set()
    store.wait_drained(timeout=30.0)
    assert _residency_cell(store, "ckpt-1") == "all"
    assert _residency_cell(store, "missing") == "-"
    assert _residency_cell(FileStore(tmp_path / "plain"), "ckpt-1") is None
    store.close()


# ---------------------------------------------------------------------------
# Analytic replay: per-link drain lags
# ---------------------------------------------------------------------------

def test_replay_tier_links_generalize_drain_lag():
    from repro.analysis import calibrate_engine
    from repro.analysis.replay import replay_config
    from repro.simulator import FailureEvent, FailureTrace

    platform = PlatformSpec.polaris()
    calibration = calibrate_engine("datastates", model_size="7B",
                                   checkpoint_interval=5, platform=platform)
    period = calibration["checkpoint_period_seconds"]
    strike = 10.0 * period + 1e-3
    trace = FailureTrace(
        [FailureEvent(time=strike, kind="node", target="node-0",
                      downtime=300.0)],
        horizon_s=strike + 3600.0, nodes=1024)

    total_bytes = (calibration["checkpoint_bytes_per_gpu"] * 1024
                   * platform.gpus_per_node)
    fast_link = total_bytes / 1e-4  # first link lags 0.1 ms: beats the strike
    slow_link = total_bytes / 1e6   # the deep link lags essentially forever
    chain = replay_config(trace, calibration, "tiered", platform,
                          tier_links=[fast_link, slow_link])
    lags = chain["drain_link_lag_seconds"]
    assert lags == pytest.approx([1e-4, 1e-4 + 1e6])  # cumulative per link
    # Loss is pinned to the FIRST link: once a checkpoint clears link 0 it
    # survives node loss, however far the deeper links lag.
    assert chain["drain_lag_losses"] == 0

    # And a slow first link reproduces the loss window.
    slow_first = replay_config(trace, calibration, "tiered", platform,
                               tier_links=[slow_link, fast_link])
    assert slow_first["drain_lag_losses"] == 1

    with pytest.raises(ConfigurationError):
        replay_config(trace, calibration, "tiered", platform,
                      tier_links=[0.0])
