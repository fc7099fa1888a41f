"""Tests for the N-level tier chain: chain construction and the ``--tiers``
spec grammar, per-link drains through three levels, one executor per link
(its thread bound, hand-offs, a delete behind a queued link, ``close``),
nearest-level-first restores with multi-level promote-on-read — behind the
read, as upward links on the link executors, once per checkpoint, waited out
by ``delete_checkpoint`` and ``close`` — watermark eviction on interior
levels and its pure victim choice against a sorted-list oracle, commit
backpressure at the level-0 watermark (``drain_wait_ms``), pre-refactor
sidecar compatibility, and the per-link generalization of the analytic
drain-lag loss window."""

import json
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.io.tiered as tiered
from repro.config import CheckpointPolicy, PlatformSpec
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
from repro.io.tiered import TIER_INDEX_NAME, _DrainJob, eviction_victims
from repro.restart import CheckpointLoader, RestoreSpec
from repro.units import parse_bytes


@pytest.fixture(autouse=True)
def _short_drain_backoff(monkeypatch):
    """Drain retries here back off 10 ms, not the module's 50 ms."""
    monkeypatch.setattr(tiered, "DRAIN_BACKOFF_S", 0.01)


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


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert predicate()


def _gated_chain3(tmp_path, gated, **kwargs) -> TierChain:
    """nvme -> pfs -> ``gated``: the deepest level's shard writes wait for
    its gate."""
    return TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme"),
        TierLevel(FileStore(tmp_path / "pfs"), name="pfs"),
        TierLevel(gated, name="object"),
    ], keep_local_latest=None, **kwargs)


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
    with pytest.raises(TypeError):  # drain_workers is the chain's alone
        TierLevel(store, drain_workers=1)
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
    assert isinstance(store.levels[0].store, FileStore)
    assert isinstance(store.levels[1].store, FileStore)
    assert isinstance(store.levels[-1].store, ObjectStore)
    # Per-level roots derive from the chain root and the level name.
    assert store.levels[0].store.root == tmp_path / "chain" / "nvme"
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
    with pytest.raises(TypeError):  # BACKPRESSURE_TIMEOUT_S is a module constant
        TierChain([fast, ObjectStore()], backpressure_timeout_s=1.0)


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
        assert store.levels[-1].store.list_committed_checkpoints() == []
        assert store.residency_names("ckpt-1") == ["nvme"]
    finally:
        gated.gate.set()
    store.wait_drained(timeout=30.0)
    assert gated.list_committed_checkpoints() == ["ckpt-1"]
    assert store.levels[-1].store.list_committed_checkpoints() == ["ckpt-1"]
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
                     keep_local_latest=None)


def test_short_drain_copy_never_publishes_the_deeper_manifest(tmp_path):
    """Every read of the source is torn: the drain fails loudly and the
    deeper level never lists a checkpoint whose part is short."""
    store = _torn_source_chain(tmp_path, FaultPlan(torn_read_prob=1.0))
    try:
        _commit_raw(store, "ckpt-1", payload=b"x" * 4096)
        with pytest.raises(CheckpointError, match="2048 of 4096"):
            store.wait_drained(timeout=30.0)
        assert store.levels[-1].store.list_committed_checkpoints() == []
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
        assert store.levels[-1].store.list_committed_checkpoints() == ["ckpt-1"]
        assert store.levels[-1].store.read_shard("ckpt-1", "rank0") == payload
    finally:
        store.close()


# ---------------------------------------------------------------------------
# One executor per link: bounded threads, hand-offs, deletes and close
# ---------------------------------------------------------------------------

def test_a_stalled_deep_level_holds_at_most_drain_workers_threads_per_link(tmp_path):
    """30 commits behind a gated deepest level: each link runs at most
    ``drain_workers`` drain threads while the gate is closed, every tag
    drains once it opens, and no drain thread outlives ``close()``."""
    before = set(threading.enumerate())

    def drain_threads(prefix="tiered-drain"):
        return [thread for thread in threading.enumerate()
                if thread not in before and thread.name.startswith(prefix)]

    gated = _GatedStore()
    store = _gated_chain3(tmp_path, gated, drain_workers=2)
    tags = [f"ckpt-{index:02d}" for index in range(30)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more hand-offs interleave with commits
    try:
        for index, tag in enumerate(tags):
            _commit_raw(store, tag, iteration=index)
        # Link 0 is open: every tag reaches pfs and queues for the gated link.
        _wait_for(lambda: all(store.residency_names(tag) == ["nvme", "pfs"]
                              for tag in tags))
        assert len(drain_threads()) <= 4
        assert 0 < len(drain_threads("tiered-drain-pfs")) <= 2
        assert len(drain_threads("tiered-drain-nvme")) <= 2
    finally:
        gated.gate.set()
        sys.setswitchinterval(switch_interval)
    store.wait_drained(timeout=30.0)
    assert sorted(gated.list_committed_checkpoints()) == tags
    metrics = store.drain_metrics()
    assert metrics["drained_checkpoints"] == 30
    assert metrics["bytes_drained"] == 30 * 2 * len(b"0123456789")  # two links each
    store.close()
    assert drain_threads() == []


def test_delete_behind_a_queued_link_waits_for_it_and_strands_nothing(tmp_path):
    """Tag A holds link 1 at a gate; tag B finished link 0 and is queued
    behind A.  Deleting B returns once B's queued link has run (after the
    gate opens), B leaves nothing on any level, and A still drains.  After
    ``close()`` a commit fails as a CheckpointError."""
    gated = _GatedStore()
    store = _gated_chain3(tmp_path, gated, drain_workers=1)
    try:
        _commit_raw(store, "ckpt-a", iteration=1)
        _commit_raw(store, "ckpt-b", iteration=2)
        _wait_for(lambda: store.residency_names("ckpt-b") == ["nvme", "pfs"])
        assert store.drain_status("ckpt-b") is DrainState.DRAINING
        deleter = threading.Thread(target=store.delete_checkpoint, args=("ckpt-b",))
        deleter.start()
        deleter.join(timeout=0.2)
        assert deleter.is_alive()  # B's link is queued behind A's, at the gate
    finally:
        gated.gate.set()
    deleter.join(timeout=30.0)
    assert not deleter.is_alive()
    for level in store.levels:
        assert "ckpt-b" not in level.store.list_checkpoints()
    assert [key for key in gated.keys() if key.startswith("ckpt-b/")] == []
    store.wait_drained("ckpt-a", timeout=30.0)
    assert store.residency_names("ckpt-a") == ["nvme", "pfs", "object"]
    store.close()
    with pytest.raises(CheckpointError, match="closed"):
        store.write_shard("ckpt-c", "rank0", [b"0123456789"])
    with pytest.raises(CheckpointError, match="closed"):
        store.write_manifest("ckpt-c", {"tag": "ckpt-c", "iteration": 3, "shards": []})
    assert "ckpt-c" not in store.list_checkpoints()


def test_close_without_wait_fails_the_hand_off_instead_of_hanging(tmp_path):
    """A link that finishes after ``close(wait=False)`` cannot queue the
    next link: the drain fails loudly (never hangs ``wait_drained``), the
    tag stays LOCAL, and the next chain over the same levels resumes it."""
    gated_mid, deep = _GatedStore(bucket="mid"), ObjectStore(bucket="deep")

    def chain():
        return TierChain([TierLevel(FileStore(tmp_path / "nvme"), name="nvme"),
                          TierLevel(gated_mid, name="mid"),
                          TierLevel(deep, name="deep")], keep_local_latest=None)

    store = chain()
    _commit_raw(store, "ckpt-1")
    _wait_for(lambda: store.drain_status("ckpt-1") is DrainState.DRAINING)
    store.close(wait=False)
    gated_mid.gate.set()
    with pytest.raises(CheckpointError, match="closed"):
        store.wait_drained("ckpt-1", timeout=30.0)
    assert store.drain_status("ckpt-1") is DrainState.LOCAL
    assert deep.list_committed_checkpoints() == []
    reopened = chain()
    try:
        reopened.wait_drained(timeout=30.0)
        assert deep.list_committed_checkpoints() == ["ckpt-1"]
    finally:
        reopened.close()


class _SizeBugStore(ObjectStore):
    """A level whose ``shard_size`` has a programming error."""

    def shard_size(self, tag, shard_name):
        raise TypeError("a bug in this level, not a missing part")


def test_shard_size_surfaces_a_level_bug_instead_of_asking_deeper(tmp_path):
    """Only what stores raise for a missing part (CheckpointError, OSError)
    falls through to a deeper level; a TypeError in a level surfaces."""
    deep = ObjectStore(bucket="deep")
    _commit_raw(deep, "ckpt-1")
    store = TierChain([TierLevel(_SizeBugStore(), name="l0"),
                       TierLevel(deep, name="deep")], keep_local_latest=None)
    try:
        with pytest.raises(TypeError, match="a bug in this level"):
            store.shard_size("ckpt-1", "rank0")
    finally:
        store.close()
    store = TierChain([TierLevel(FileStore(tmp_path / "l0"), name="l0"),
                       TierLevel(deep, name="deep")], keep_local_latest=None)
    try:
        assert store.shard_size("ckpt-1", "rank0") == 10  # FileNotFoundError on l0
        with pytest.raises(CheckpointError):
            store.shard_size("ckpt-1", "absent")  # the deepest level's error
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
        reopened.wait_drained(timeout=30.0)
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
    ], keep_local_latest=None)
    try:
        # Recovery sees pfs-only residency and resumes the drain; wait it out
        # so the read below exercises promotion, not the drain.
        chain.wait_drained(timeout=30.0)
        assert chain.read_shard("ckpt-1", "rank0") == payload
        chain.wait_drained(timeout=30.0)
        assert chain.levels[0].store.list_committed_checkpoints() == ["ckpt-1"]
        assert chain.residency_names("ckpt-1") == ["nvme", "pfs", "object"]
    finally:
        chain.close()


# ---------------------------------------------------------------------------
# Promotion behind the read: upward links on the link executors
# ---------------------------------------------------------------------------

def _deep_only_chain(level0):
    """A two-level chain whose checkpoint ``ckpt-1`` is committed on the deep
    level only (level 0 lost it), so every read of it is a deep hit."""
    deep = ObjectStore(bucket="deep")
    _commit_raw(deep, "ckpt-1")
    return TierChain([TierLevel(level0, name="l0"), TierLevel(deep, name="deep")],
                     keep_local_latest=None)


def _started(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


class _Recording:
    """Forwards everything to a store, recording the thread of each
    ``read_manifest``, ``shard_size`` and ``write_shard`` call."""

    COUNTED = ("read_manifest", "shard_size", "write_shard")

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name not in self.COUNTED:
            return attr

        def call(*args, **kwargs):
            self.calls.append((name, threading.get_ident()))
            return attr(*args, **kwargs)
        return call

    def count(self, name, thread=None):
        return sum(1 for called, ident in self.calls
                   if called == name and thread in (None, ident))


def test_a_size_bug_in_the_target_level_fails_the_drain(tmp_path):
    """Only CheckpointError/OSError from a target level's ``shard_size``
    mean "part absent": a TypeError there is a bug, and the drain fails
    loudly instead of committing on that level."""
    buggy = _SizeBugStore(bucket="buggy")
    store = TierChain([TierLevel(FileStore(tmp_path / "l0"), name="l0"),
                       TierLevel(buggy, name="buggy")], keep_local_latest=None)
    try:
        _commit_raw(store, "ckpt-1")
        with pytest.raises(CheckpointError, match="a bug in this level"):
            store.wait_drained(timeout=30.0)
        assert store.drain_metrics()["failed_drains"] == 1
        assert buggy.list_committed_checkpoints() == []
    finally:
        store.close()


def test_a_deep_restore_returns_before_its_promotion_lands(tmp_path):
    """The restore gets its bytes while the promotion's level-0 write is
    still held at a gate; the promotion lands once the gate opens."""
    gated = _GatedStore(bucket="l0")
    deep = ObjectStore(bucket="deep")
    _save(deep, ["ckpt-1"])
    store = TierChain([TierLevel(gated, name="l0"), TierLevel(deep, name="deep")],
                      keep_local_latest=None)
    out = {}
    try:
        reader = _started(lambda: out.update(state=CheckpointLoader(store).restore(
            RestoreSpec.full(tag="ckpt-1"))))
        reader.join(timeout=10.0)
        assert not reader.is_alive()  # the restore did not wait for level 0
        np.testing.assert_array_equal(out["state"][0]["model"]["w"],
                                      _state(seed=0)["model"]["w"])
        assert gated.list_committed_checkpoints() == []
        assert store.drain_status("ckpt-1") is DrainState.DRAINING
    finally:
        gated.gate.set()
    store.wait_drained(timeout=30.0)
    assert gated.list_committed_checkpoints() == ["ckpt-1"]
    assert store.drain_status("ckpt-1") is DrainState.REPLICATED
    assert store.drain_metrics()["promoted_checkpoints"] == 1
    store.close()


def test_a_deep_restore_promotes_once_per_link_off_the_restoring_thread(tmp_path):
    """An 8-part checkpoint held only on the object level of a 3-level
    chain: each link reads its source level's manifest once and probes
    ``shard_size`` once per part, and no level is written from the
    restoring thread."""
    nvme = _Recording(FileStore(tmp_path / "nvme"))
    pfs = _Recording(FileStore(tmp_path / "pfs"))
    deep = _Recording(ObjectStore(bucket="deep"))
    rng = np.random.default_rng(7)
    want = {"model": {f"w{index}": rng.normal(size=(64, 4)) for index in range(8)}}
    with create_real_engine("datastates", deep._inner, policy=CheckpointPolicy(
            host_buffer_size=8 << 20, shards_per_rank=8)) as engine:
        engine.save(want, tag="ckpt-1", iteration=0)
        engine.wait_all()
    assert len(deep.read_manifest("ckpt-1")["shards"]) == 8
    store = TierChain([TierLevel(nvme, name="nvme"), TierLevel(pfs, name="pfs"),
                       TierLevel(deep, name="object")], keep_local_latest=None)
    for level in (nvme, pfs, deep):
        level.calls.clear()  # the recovery scan's reads are not the restore's
    try:
        restored = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1"))
        store.wait_drained(timeout=30.0)
        for name, array in want["model"].items():
            np.testing.assert_array_equal(restored[0]["model"][name], array)
        me = threading.get_ident()
        # One read from the loader, one from the object -> pfs link.
        assert deep.count("read_manifest") - deep.count("read_manifest", me) == 1
        assert deep.count("read_manifest", me) == 1
        # The pfs -> nvme link reads pfs's manifest once.
        assert pfs.count("read_manifest") - pfs.count("read_manifest", me) == 1
        for level in (nvme, pfs):
            assert level.count("shard_size") <= 8
            assert level.count("write_shard") == 8
            assert level.count("write_shard", me) == 0
        assert nvme.list_committed_checkpoints() == ["ckpt-1"]
        metrics = store.drain_metrics()
        assert metrics["promoted_parts"] == 16
        assert metrics["promoted_checkpoints"] == 1
    finally:
        store.close()


def test_delete_during_a_promotion_waits_it_out(tmp_path):
    """A delete of a tag whose promotion is held at a level-0 gate returns
    only after the promotion stopped, and no level keeps the tag."""
    gated = _GatedStore(bucket="l0")
    store = _deep_only_chain(gated)
    try:
        reader = _started(store.read_shard, "ckpt-1", "rank0")
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        deleter = _started(store.delete_checkpoint, "ckpt-1")
        deleter.join(timeout=0.2)
        assert deleter.is_alive()  # the promotion holds the tag
    finally:
        gated.gate.set()
    deleter.join(timeout=30.0)
    assert not deleter.is_alive()
    for level in store.levels:
        assert "ckpt-1" not in level.store.list_checkpoints()
    assert gated.keys() == []
    store.close()


def test_close_during_a_promotion_finishes_it(tmp_path):
    """``close()`` waits a promotion held at a level-0 gate out: level 0
    commits the checkpoint, and no drain thread outlives the close."""
    before = set(threading.enumerate())
    gated = _GatedStore(bucket="l0")
    store = _deep_only_chain(gated)
    try:
        reader = _started(store.read_shard, "ckpt-1", "rank0")
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        closer = _started(store.close)
        closer.join(timeout=0.2)
        assert closer.is_alive()  # the promotion is still at the gate
    finally:
        gated.gate.set()
    closer.join(timeout=30.0)
    assert not closer.is_alive()
    assert gated.list_committed_checkpoints() == ["ckpt-1"]
    assert store.drain_metrics()["promoted_checkpoints"] == 1
    assert [thread for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("tiered-drain-")] == []


def test_a_failed_promotion_is_retried_and_never_fails_a_drain(tmp_path, monkeypatch):
    """Every level-0 write of a promotion fails: the link is retried like
    any link, on its executor, and then only logged — ``failed_drains``
    stays 0 and ``wait_drained`` does not raise."""
    level0 = FileStore(tmp_path / "l0")
    store = _deep_only_chain(level0)
    writers = []

    def broken(*_args, **_kwargs):
        writers.append(threading.get_ident())
        raise OSError("read-only file system")

    monkeypatch.setattr(level0, "write_shard", broken)
    try:
        assert store.read_shard("ckpt-1", "rank0") == b"0123456789"
        store.wait_drained(timeout=30.0)
        metrics = store.drain_metrics()
        assert metrics["failed_drains"] == 0
        assert metrics["retried_drains"] == 0  # drain counters count drains
        assert metrics["promoted_checkpoints"] == 0
        assert len(writers) == tiered.DRAIN_RETRIES + 1
        assert threading.get_ident() not in writers
        assert level0.list_committed_checkpoints() == []
        assert store.drain_status("ckpt-1") is DrainState.REPLICATED
    finally:
        store.close()


def test_a_torn_write_on_the_target_level_fails_the_drain(tmp_path):
    """Every shard write on the deep level lands short: the drain fails
    loudly, the deep level publishes no manifest, and level 0 keeps every
    checkpoint (eviction never drops the only good copy)."""
    deep = FaultyStore(ObjectStore(bucket="deep"), FaultPlan(torn_write_prob=1.0))
    store = TierChain([TierLevel(FileStore(tmp_path / "l0"), name="l0"),
                       TierLevel(deep, name="deep")])  # keep_local_latest=1
    try:
        for tag in ("ckpt-1", "ckpt-2"):
            _commit_raw(store, tag, iteration=int(tag[-1]))
        for tag in ("ckpt-1", "ckpt-2"):
            with pytest.raises(CheckpointError, match="wrote 5 of 10 bytes"):
                store.wait_drained(tag, timeout=30.0)
        assert deep.list_committed_checkpoints() == []
        assert store.levels[0].store.list_committed_checkpoints() == [
            "ckpt-1", "ckpt-2"]
        assert store.drain_metrics()["failed_drains"] == 2
        assert store.drain_status("ckpt-1") is DrainState.LOCAL
    finally:
        store.close()


def test_a_promotion_with_torn_level_zero_writes_leaves_no_part_there(tmp_path):
    """Every level-0 write of a promotion lands short: level 0 publishes no
    manifest and keeps no torn part, so a second read of the checkpoint
    still gets the deep level's whole bytes."""
    level0 = FaultyStore(FileStore(tmp_path / "l0"), FaultPlan(torn_write_prob=1.0))
    store = _deep_only_chain(level0)
    try:
        assert store.read_shard("ckpt-1", "rank0") == b"0123456789"
        store.wait_drained(timeout=30.0)
        assert level0.list_committed_checkpoints() == []
        assert level0.list_checkpoints() == []
        assert store.level_used_bytes(0) == 0
        assert store.drain_metrics()["promoted_parts"] == 0
        assert store.read_shard("ckpt-1", "rank0") == b"0123456789"
    finally:
        store.close()


def test_concurrent_deep_reads_write_each_part_to_level_zero_once(tmp_path):
    """Eight threads read every part of four deep-only checkpoints at once,
    with a short switch interval: one promotion at a time claims each
    checkpoint, and a later one finds every part in place, so level 0 sees
    one write per part."""
    deep = ObjectStore(bucket="deep")
    tags = [f"ckpt-{index}" for index in range(4)]
    parts = [f"rank0-s{index}" for index in range(4)]
    for iteration, tag in enumerate(tags):
        for name in parts:
            deep.write_shard(tag, name, [name.encode() * 64])
        deep.write_manifest(tag, {"tag": tag, "iteration": iteration, "shards": [
            {"rank": 0, "name": name, "nbytes": len(name) * 64, "checksum": None}
            for name in parts]})
    level0 = _Recording(ObjectStore(bucket="l0"))
    store = TierChain([TierLevel(level0, name="l0"), TierLevel(deep, name="deep")],
                      keep_local_latest=None)
    order = [(tag, name) for tag in tags for name in parts]
    wrong = []

    def reader(seed):
        for tag, name in random.Random(seed).sample(order, len(order)):
            if store.read_shard(tag, name) != name.encode() * 64:
                wrong.append((tag, name))

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [_started(reader, seed) for seed in range(8)]
        for thread in readers:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch_interval)
    assert wrong == []
    try:
        store.wait_drained(timeout=30.0)
        metrics = store.drain_metrics()
        assert metrics["promoted_checkpoints"] >= len(tags)
        assert metrics["promoted_parts"] == len(tags) * len(parts)
        assert level0.count("write_shard") == len(tags) * len(parts)
        assert sorted(level0.list_committed_checkpoints()) == tags
    finally:
        store.close()


class _FirstReadGatedStore(ObjectStore):
    """An object store whose first shard read waits for the test's gate."""

    def __init__(self, bucket):
        super().__init__(bucket=bucket)
        self.gate, self.held = threading.Event(), threading.Event()

    def read_shard(self, tag, shard_name, out=None):
        if not self.held.is_set():
            self.held.set()
            self.gate.wait(timeout=30.0)
        return super().read_shard(tag, shard_name, out=out)


def test_a_deep_read_that_outlives_a_promotion_copies_no_part_twice(tmp_path):
    """A deep read held past a whole promotion of its checkpoint, which a
    later read queued and which finished, copies no part to level 0 again:
    level 0 sees one write per part."""
    deep = _FirstReadGatedStore(bucket="deep")
    _commit_raw(deep, "ckpt-1")
    level0 = _Recording(ObjectStore(bucket="l0"))
    store = TierChain([TierLevel(level0, name="l0"),
                       TierLevel(deep, name="deep")], keep_local_latest=None)
    try:
        slow = _started(store.read_shard, "ckpt-1", "rank0")
        assert deep.held.wait(timeout=10.0)  # past level 0, held on deep
        assert store.read_shard("ckpt-1", "rank0") == b"0123456789"
        store.wait_drained(timeout=30.0)
        deep.gate.set()
        slow.join(timeout=10.0)
        assert not slow.is_alive()
        store.wait_drained(timeout=30.0)
        assert store.drain_metrics()["promoted_parts"] == 1
        assert level0.count("write_shard") == 1
        assert level0.list_committed_checkpoints() == ["ckpt-1"]
    finally:
        deep.gate.set()
        store.close()


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
    ], keep_local_latest=None)
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
        assert sorted(store.levels[-1].store.list_committed_checkpoints()) == [
            "ckpt-1", "ckpt-2"]
        assert store.read_shard("ckpt-1", "rank0") == payload
    finally:
        store.close()


def test_uncapacitied_level_zero_keeps_legacy_count_eviction(tmp_path):
    store = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme"),
        TierLevel(FileStore(tmp_path / "pfs"), name="pfs"),
        TierLevel(ObjectStore(), name="object"),
    ], keep_local_latest=1)
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


def _victims_oracle(jobs, level_index, level, deepest, used, tag_bytes,
                    keep_local_latest, headroom):
    """The eviction rules, restated over a sorted list."""
    if level_index == deepest:  # the durability floor
        return []
    eligible = [job.tag for job in sorted(jobs, key=lambda job: job.sequence)
                if level_index in job.residency
                and any(other > level_index for other in job.residency)]
    if level.capacity_bytes is not None:
        limit = max(0.0, level.watermark * level.capacity_bytes - headroom)
        left = [used - sum(tag_bytes.get((tag, level_index), 0) for tag in eligible[:count])
                for count in range(len(eligible) + 1)]
        count = next((count for count, rest in enumerate(left) if rest <= limit),
                     len(eligible))
        return eligible[:count]
    if level_index == 0 and keep_local_latest is not None:
        newest = set(eligible[::-1][:keep_local_latest])
        return [tag for tag in eligible if tag not in newest]
    return []


@st.composite
def _eviction_cases(draw):
    depth = draw(st.integers(2, 4))
    sequences = draw(st.lists(st.integers(0, 10_000), max_size=12, unique=True))
    jobs, tag_bytes = [], {}
    for index, sequence in enumerate(sequences):
        residency = draw(st.sets(st.integers(0, depth - 1), min_size=1))
        jobs.append(_DrainJob(tag=f"t{index}", sequence=sequence, residency=set(residency)))
        for level_index in residency:
            tag_bytes[(f"t{index}", level_index)] = draw(st.sampled_from([0, 5, 10, 20]))
    # Few whole sizes and limits, so "exactly at the limit" comes up often.
    level = TierLevel(ObjectStore(),
                      capacity_bytes=draw(st.none() | st.sampled_from([20, 40, 80])),
                      watermark=draw(st.sampled_from([0.5, 1.0])))
    level_index = draw(st.integers(0, depth - 1))
    # What the level holds: its residents' bytes, plus parts of tags not
    # yet committed there.
    used = sum(size for (_tag, index), size in tag_bytes.items() if index == level_index)
    return dict(jobs=jobs, level_index=level_index, level=level, deepest=depth - 1,
                used=used + draw(st.sampled_from([0, 5, 10])), tag_bytes=tag_bytes,
                keep_local_latest=draw(st.none() | st.integers(0, 5)),
                headroom=draw(st.sampled_from([0, 5, 10, 20])))


def _case(level_index, capacity_bytes, used, keep_local_latest, residents):
    """A hand-written eviction case: ``residents`` maps a tag to its
    ``{level: bytes}``; sequences follow their order."""
    return dict(
        jobs=[_DrainJob(tag=tag, sequence=index, residency=set(sizes))
              for index, (tag, sizes) in enumerate(residents.items())],
        level_index=level_index,
        level=TierLevel(ObjectStore(), capacity_bytes=capacity_bytes, watermark=0.5),
        deepest=2, used=used, keep_local_latest=keep_local_latest, headroom=0, tag_bytes={(tag, level): size for tag, sizes in residents.items()
                               for level, size in sizes.items()})


@settings(max_examples=200, deadline=None)
@given(_eviction_cases())
# Interior level: a victim frees its bytes on *this* level, and the level
# stops exactly at its limit (20 bytes over a 10-byte limit: one victim).
@example(_case(1, 20, 20, None, {"a": {0: 0, 1: 10, 2: 10}, "b": {1: 10, 2: 10}}))
# keep_local_latest above the number of candidates keeps them all.
@example(_case(0, None, 30, 4, {tag: {0: 10, 1: 10} for tag in "abc"}))
def test_eviction_victims_match_a_sorted_list_oracle(case):
    """Oldest first; only tags resident deeper; stop at or below
    ``watermark * capacity - headroom``; ``keep_local_latest`` keeps level
    0's newest; the deepest level never evicts."""
    residency_before = {job.tag: set(job.residency) for job in case["jobs"]}
    victims = eviction_victims(**{key: value for key, value in case.items()
                                  if key != "deepest"})
    assert [job.tag for job in victims] == _victims_oracle(**case)
    # Pure: nothing it was handed changed.
    assert {job.tag: job.residency for job in case["jobs"]} == residency_before


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
    ], keep_local_latest=None)
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


def test_large_incoming_write_evicts_past_the_watermark(tmp_path, monkeypatch):
    """Regression: a pending commit bigger than the level's free headroom
    must drive eviction BELOW the watermark.  With the level just under its
    watermark, a headroom-blind eviction pass sees a healthy level, frees
    nothing, and the gate deadlocks until the backpressure timeout."""
    store = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme",
                  capacity_bytes=64 * 1024, watermark=0.9),
        TierLevel(ObjectStore(), name="object"),
    ], keep_local_latest=None)
    monkeypatch.setattr(tiered, "BACKPRESSURE_TIMEOUT_S", 10.0)
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


def test_backpressure_times_out_loudly(tmp_path, monkeypatch):
    monkeypatch.setattr(tiered, "BACKPRESSURE_TIMEOUT_S", 0.2)
    gated = _GatedStore()
    store = TierChain([
        TierLevel(FileStore(tmp_path / "nvme"), name="nvme",
                  capacity_bytes=16 * 1024, watermark=0.5),
        TierLevel(gated, name="object"),
    ], keep_local_latest=None)
    payload = b"b" * (12 * 1024)
    try:
        _commit_raw(store, "ckpt-1", payload)
        with pytest.raises(CheckpointError, match="backpressure timeout"):
            store.write_shard("ckpt-2", "rank0", [payload])
        assert store.drain_metrics()["drain_wait_ms"] > 0.0
    finally:
        gated.gate.set()
        store.close()


class _DeleteBugStore(FileStore):
    """A level whose ``delete_checkpoint`` has a programming error."""

    def delete_checkpoint(self, tag):
        raise TypeError("a bug in this level's delete, not an outage")


def test_an_eviction_bug_under_backpressure_surfaces_at_once(tmp_path, monkeypatch):
    """The gate's eviction pass tolerates what an unavailable level raises
    (CheckpointError, OSError); a TypeError fails the commit at once instead
    of waiting out the backpressure timeout as "drains cannot keep up"."""
    monkeypatch.setattr(tiered, "BACKPRESSURE_TIMEOUT_S", 2.0)
    store = TierChain([
        TierLevel(_DeleteBugStore(tmp_path / "nvme"), name="nvme",
                  capacity_bytes=16 * 1024, watermark=0.5),
        TierLevel(ObjectStore(), name="object"),
    ], keep_local_latest=None)
    payload = b"d" * (12 * 1024)
    try:
        _commit_raw(store, "ckpt-1", payload)
        store.wait_drained("ckpt-1", timeout=30.0)  # replicated: evictable
        start = time.monotonic()
        with pytest.raises(TypeError, match="a bug in this level's delete"):
            store.write_shard("ckpt-2", "rank0", [payload])
        assert time.monotonic() - start < 1.0
    finally:
        store.close()


class _TotalBytesBugStore(FileStore):
    """A level whose ``total_bytes`` has a programming error."""

    def total_bytes(self, tag):
        raise TypeError("a bug in this level's accounting, not a missing tag")


def test_opening_a_chain_surfaces_an_accounting_bug_instead_of_undercounting(tmp_path):
    """Opening a chain accounts every level's resident bytes, which the
    backpressure gate counts against the watermark: a TypeError there
    surfaces instead of opening the chain with those bytes left out."""
    _commit_raw(FileStore(tmp_path / "nvme"), "ckpt-1", b"e" * (12 * 1024))
    with pytest.raises(TypeError, match="a bug in this level's accounting"):
        TierChain([
            TierLevel(_TotalBytesBugStore(tmp_path / "nvme"), name="nvme",
                      capacity_bytes=16 * 1024, watermark=0.5),
            TierLevel(ObjectStore(), name="object"),
        ], keep_local_latest=None)


class _RaisingObjectStore(ObjectStore):
    """An object level whose ``method`` raises ``error``; the rest works."""

    def __init__(self, method, error):
        super().__init__()
        setattr(self, method, self._raise)
        self._error = error

    def _raise(self, *args, **kwargs):
        raise self._error


def _chain_over(level0):
    return TierChain([
        TierLevel(level0, name="nvme", capacity_bytes=16 * 1024, watermark=0.5),
        TierLevel(ObjectStore(), name="object"),
    ], keep_local_latest=None)


def _committed_level(method, error):
    level0 = _RaisingObjectStore(method, error)
    _commit_raw(level0, "ckpt-1", b"f" * 1024, iteration=1)
    return level0


def test_opening_a_chain_surfaces_a_listing_bug_instead_of_skipping_the_level():
    """A level whose listing raises a TypeError is not "unavailable": the
    chain does not open with that level's bytes left out."""
    level0 = _committed_level("list_checkpoints", TypeError("a listing bug"))
    with pytest.raises(TypeError, match="a listing bug"):
        _chain_over(level0)


def test_opening_a_chain_surfaces_a_manifest_read_bug_instead_of_ordering_by_tag():
    """Recovery orders tags by manifest iteration; a TypeError from the read
    surfaces instead of quietly falling back to tag order."""
    level0 = _committed_level("read_manifest", TypeError("a manifest bug"))
    with pytest.raises(TypeError, match="a manifest bug"):
        _chain_over(level0)


def test_a_level_whose_listing_is_unavailable_opens_with_nothing_accounted():
    level0 = _committed_level("list_checkpoints", OSError("level offline"))
    store = _chain_over(level0)
    try:
        assert store.level_used_bytes(0) == 0
        assert store.read_manifest("ckpt-1")["iteration"] == 1
    finally:
        store.close()


def test_a_checkpoint_gone_since_the_listing_is_left_unaccounted():
    level0 = _committed_level("total_bytes", CheckpointError("gone"))
    store = _chain_over(level0)
    try:
        assert store.level_used_bytes(0) == 0
        assert store.read_manifest("ckpt-1")["iteration"] == 1
    finally:
        store.close()


def test_an_unreadable_manifest_at_open_falls_back_to_tag_order():
    """A manifest that cannot be read (OSError) leaves recovery to order the
    tag by name; the chain opens and still accounts the level's bytes."""
    level0 = _committed_level("read_manifest", OSError("manifest unreadable"))
    store = _chain_over(level0)
    try:
        assert store.level_used_bytes(0) == 1024
        assert store.list_committed_checkpoints() == ["ckpt-1"]
    finally:
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
        assert store.levels[0].store.root == tmp_path / "fast"
        assert isinstance(store.levels[-1].store, ObjectStore)
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
    monkeypatch.setattr(tiered, "DRAIN_RETRIES", 0)
    store = create_store("tiered", root=tmp_path)

    def outage(tag, manifest):
        raise CheckpointError("simulated slow-level outage at manifest PUT")

    monkeypatch.setattr(store.levels[-1].store, "write_manifest", outage)
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
        assert reopened.levels[-1].store.list_committed_checkpoints() == ["ckpt-1"]
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
