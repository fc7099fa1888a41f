"""Content-addressed multi-tenant store (``cas``) unit + integration suite.

Covers the chunk pool's content addressing (fixed-size sha256 chunks,
dedup, hash-verified reads), namespace scoping and quotas over one shared
pool, the refcounted two-phase cross-job GC (including the
concurrent-writer-vs-sweeper race and crash-recovery refcount rebuilds),
the engine-level incremental checkpoint path (``CheckpointPolicy.
incremental``) against its <60 %-of-full-bytes acceptance bar, the
``cas``-over-``object`` composition, and the simulated dedup model
(:class:`SimContentAddressedStorage`).
"""

import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CheckpointPolicy, PlatformSpec
from repro.core import ENGINE_NAMES, create_real_engine
from repro.exceptions import CheckpointError, ConfigurationError, ConsistencyError
from repro.io import (
    CASStore,
    FileStore,
    SimContentAddressedStorage,
    SimParallelFileSystem,
    create_store,
    make_cas_storage,
    make_parallel_fs,
    supports_shard_reference,
)
from repro.restart import RestoreSpec
from repro.io.cas import CHUNK_SHARD_NAME, INDEX_TAG, chunk_tag
from repro.simulator import Environment

CHUNK = 1024


def _pool(tmp_path, chunk_bytes=CHUNK, **kwargs) -> CASStore:
    return CASStore(FileStore(tmp_path / "pool"), chunk_bytes=chunk_bytes, **kwargs)


def _payload(seed, nbytes):
    return np.random.default_rng(seed).bytes(nbytes)


def _save(store, tag, payloads):
    """Write shards and commit a minimal (store-level) manifest."""
    records = []
    for name, payload in payloads.items():
        store.write_shard(tag, name, [payload])
        records.append({"name": name, "rank": 0, "nbytes": len(payload)})
    store.write_manifest(tag, {"tag": tag, "shards": records})


# ---------------------------------------------------------------------------
# Chunking and content addressing
# ---------------------------------------------------------------------------

def test_roundtrip_chunks_payload_at_chunk_bytes(tmp_path):
    store = _pool(tmp_path)
    payload = _payload(0, 2 * CHUNK + CHUNK // 2)
    _save(store, "ck", {"rank0": payload})

    assert store.read_shard("ck", "rank0") == payload
    assert store.shard_size("ck", "rank0") == len(payload)
    assert len(store.pool_chunks()) == 3  # 1024 + 1024 + 512
    metrics = store.dedup_metrics()
    assert metrics["chunks_written"] == 3
    assert metrics["bytes_written"] == len(payload)
    assert metrics["dedup_ratio"] == 1.0


def test_identical_rewrite_is_fully_deduped(tmp_path):
    store = _pool(tmp_path)
    payload = _payload(1, 3 * CHUNK)
    _save(store, "ck-1", {"rank0": payload})
    _save(store, "ck-2", {"rank0": payload})

    metrics = store.dedup_metrics()
    assert metrics["bytes_written"] == len(payload)       # second save free
    assert metrics["bytes_logical"] == 2 * len(payload)
    assert metrics["chunks_deduped"] == 3
    assert metrics["dedup_ratio"] == pytest.approx(0.5)
    assert store.read_shard("ck-2", "rank0") == payload
    assert store.refcount(store.pool_chunks()[0]) == 2


def test_repeated_content_within_one_shard_stores_one_chunk(tmp_path):
    store = _pool(tmp_path)
    payload = b"\xab" * (4 * CHUNK)
    _save(store, "ck", {"rank0": payload})

    assert len(store.pool_chunks()) == 1
    metrics = store.dedup_metrics()
    assert metrics["chunks_written"] == 1
    assert metrics["chunks_deduped"] == 3
    assert store.read_shard("ck", "rank0") == payload


def test_ranged_read_touches_only_covering_chunks(tmp_path, monkeypatch):
    store = _pool(tmp_path)
    payload = _payload(2, 3 * CHUNK)
    _save(store, "ck", {"rank0": payload})

    fetched = []
    real_read = store.inner.read_shard

    def counting_read(tag, shard_name, out=None):
        fetched.append(tag)
        return real_read(tag, shard_name, out=out)

    monkeypatch.setattr(store.inner, "read_shard", counting_read)
    got = store.read_shard_range("ck", "rank0", 1000, 100)
    assert got == payload[1000:1100]
    assert len(fetched) == 2  # range spans the first chunk boundary only


def test_corrupted_chunk_is_refused_loudly(tmp_path):
    store = _pool(tmp_path)
    payload = _payload(3, CHUNK)
    _save(store, "ck", {"rank0": payload})
    [chunk_hash] = store.pool_chunks()

    # Same-size garbage: the content hash no longer matches the address.
    store.inner.write_shard(chunk_tag(chunk_hash), CHUNK_SHARD_NAME,
                            [_payload(99, CHUNK)])
    with pytest.raises(ConsistencyError):
        store.read_shard("ck", "rank0")

    # Truncated garbage: detected by the size check before hashing.
    store.inner.write_shard(chunk_tag(chunk_hash), CHUNK_SHARD_NAME,
                            [payload[: CHUNK // 2]])
    with pytest.raises(ConsistencyError):
        store.read_shard("ck", "rank0")


def test_committed_manifest_carries_v3_chunk_lists(tmp_path):
    store = _pool(tmp_path)
    payload = _payload(4, 2 * CHUNK + 7)
    _save(store, "ck", {"rank0": payload})

    manifest = store.read_manifest("ck")
    assert manifest["version"] == 3
    [record] = manifest["shards"]
    sizes = [nbytes for _hash, nbytes in record["chunks"]]
    assert sizes == [CHUNK, CHUNK, 7]
    assert sum(sizes) == len(payload)


def test_commit_requires_every_shard_written_through_the_store(tmp_path):
    store = _pool(tmp_path)
    store.write_shard("ck", "rank0", [_payload(5, CHUNK)])
    with pytest.raises(CheckpointError):
        store.write_manifest(
            "ck", {"tag": "ck", "shards": [{"name": "ghost", "nbytes": 1}]})
    # The staged shard is readable before commit (engines verify mid-flight).
    assert len(store.read_shard("ck", "rank0")) == CHUNK


def test_capability_and_self_wrap_guard(tmp_path):
    store = _pool(tmp_path)
    assert supports_shard_reference(store)
    assert not supports_shard_reference(store.inner)
    with pytest.raises(ConfigurationError):
        CASStore(store)


# ---------------------------------------------------------------------------
# Namespaces and quotas
# ---------------------------------------------------------------------------

def test_namespaces_isolate_tags_but_share_chunks(tmp_path):
    pool = _pool(tmp_path)
    job_a = pool.namespace("jobA")
    job_b = pool.namespace("jobB")
    payload = _payload(6, 2 * CHUNK)
    _save(job_a, "ck-1", {"rank0": payload})
    _save(job_b, "base", {"rank0": payload})

    assert job_a.list_committed_checkpoints() == ["ck-1"]
    assert job_b.list_committed_checkpoints() == ["base"]
    metrics = pool.dedup_metrics()
    assert metrics["bytes_written"] == len(payload)  # second tenant free
    for chunk_hash in pool.pool_chunks():
        assert pool.refcount(chunk_hash) == 2
    assert job_b.read_shard("base", "rank0") == payload


def test_invalid_namespaces_rejected(tmp_path):
    pool = _pool(tmp_path)
    for bad in ("", "a/b", "a--b", ".hidden"):
        with pytest.raises(ConfigurationError):
            pool.namespace(bad)


def test_quota_is_enforced_at_commit_per_namespace(tmp_path):
    pool = _pool(tmp_path)
    team = pool.namespace("team", quota_bytes=2 * CHUNK)
    _save(team, "ck-1", {"rank0": _payload(7, CHUNK + CHUNK // 2)})
    with pytest.raises(CheckpointError):
        _save(team, "ck-2", {"rank0": _payload(8, CHUNK)})
    # Other tenants of the same pool are not throttled ...
    _save(pool.namespace("free"), "big", {"rank0": _payload(9, 4 * CHUNK)})
    # ... and pruning frees the quota for the blocked commit.
    team.delete_checkpoint("ck-1")
    team.write_manifest(
        "ck-2", {"tag": "ck-2",
                 "shards": [{"name": "rank0", "rank": 0, "nbytes": CHUNK}]})
    assert team.list_committed_checkpoints() == ["ck-2"]


# ---------------------------------------------------------------------------
# Cross-job refcounted GC
# ---------------------------------------------------------------------------

def test_cross_job_gc_never_deletes_a_still_referenced_chunk(tmp_path):
    pool = _pool(tmp_path)
    job_a = pool.namespace("jobA")
    job_b = pool.namespace("jobB")
    shared = _payload(10, 2 * CHUNK)
    unique = _payload(11, 2 * CHUNK)
    _save(job_a, "ck", {"shared": shared, "unique": unique})
    _save(job_b, "ck", {"shared": shared})

    job_a.delete_checkpoint("ck")
    removed = pool.sweep_unreferenced()

    # Only jobA's unique chunks go; everything jobB references survives.
    assert removed == 2
    assert len(pool.pool_chunks()) == 2
    assert job_b.read_shard("ck", "shared") == shared
    with pytest.raises(CheckpointError):
        job_a.read_shard("ck", "unique")


def test_sweep_reclaims_the_pool_after_the_last_reference(tmp_path):
    pool = _pool(tmp_path)
    job_b = pool.namespace("jobB")
    _save(job_b, "ck", {"rank0": _payload(12, 3 * CHUNK)})
    job_b.delete_checkpoint("ck")
    assert pool.sweep_unreferenced() == 3
    assert pool.pool_chunks() == []
    assert pool.dedup_metrics()["chunks_swept"] == 3
    # The emptied index is persisted: a cold open of the same pool agrees.
    reopened = CASStore(FileStore(tmp_path / "pool"), chunk_bytes=CHUNK)
    assert reopened.pool_chunks() == []
    assert reopened.list_committed_checkpoints() == []


def test_sweep_skips_a_chunk_repinned_by_a_concurrent_writer(tmp_path, monkeypatch):
    """The prune-vs-save race: a writer re-referencing a zero-refcount chunk
    between the sweeper's candidate listing and its per-chunk re-check must
    win — the pin taken at first use makes the re-check skip the chunk."""
    pool = _pool(tmp_path)
    payload = _payload(13, 2 * CHUNK)
    _save(pool, "old", {"rank0": payload})
    pool.delete_checkpoint("old")  # refcounts drop to zero, chunks linger

    writer = pool.namespace("writer")
    real_list = pool.inner.list_checkpoints

    def racy_list():
        candidates = real_list()
        # Interleave: the concurrent save lands (and pins) after the sweep
        # gathered its candidates but before any per-chunk re-check.
        writer.write_shard("new", "rank0", [payload])
        return candidates

    monkeypatch.setattr(pool.inner, "list_checkpoints", racy_list)
    assert pool.sweep_unreferenced() == 0
    monkeypatch.undo()

    writer.write_manifest(
        "new", {"tag": "new",
                "shards": [{"name": "rank0", "rank": 0, "nbytes": len(payload)}]})
    assert writer.read_shard("new", "rank0") == payload
    assert len(pool.pool_chunks()) == 2


def test_rewrite_after_a_completed_sweep_reuploads(tmp_path):
    """The other side of the race window: once the sweep deleted a chunk
    (and dropped it from the durable set), a later identical write must
    re-upload rather than trust the stale pool entry."""
    pool = _pool(tmp_path)
    payload = _payload(14, CHUNK)
    _save(pool, "old", {"rank0": payload})
    pool.delete_checkpoint("old")
    assert pool.sweep_unreferenced() == 1

    before = pool.dedup_metrics()["chunks_written"]
    _save(pool, "new", {"rank0": payload})
    assert pool.dedup_metrics()["chunks_written"] == before + 1
    assert pool.read_shard("new", "rank0") == payload


# ---------------------------------------------------------------------------
# Refcount index crash recovery
# ---------------------------------------------------------------------------

def test_lost_index_is_rebuilt_from_committed_manifests(tmp_path):
    pool = _pool(tmp_path)
    shared = _payload(15, 2 * CHUNK)
    _save(pool.namespace("jobA"), "ck", {"rank0": shared})
    _save(pool.namespace("jobB"), "ck", {"rank0": shared})
    pool.inner.delete_checkpoint(INDEX_TAG)  # crash loses the index

    reopened = CASStore(FileStore(tmp_path / "pool"), chunk_bytes=CHUNK)
    for chunk_hash in reopened.pool_chunks():
        assert reopened.refcount(chunk_hash) == 2
    assert reopened.sweep_unreferenced() == 0
    assert reopened.namespace("jobB").read_shard("ck", "rank0") == shared


def test_rebuild_corrects_a_stale_overcounting_index(tmp_path):
    """A crash between a prune's inner delete and its decrement persist
    leaves the index over-counting — stranded garbage, never data loss.
    ``rebuild_refcounts`` re-derives truth from committed manifests so the
    sweep can reclaim it."""
    pool = _pool(tmp_path)
    job_a, job_b = pool.namespace("jobA"), pool.namespace("jobB")
    _save(job_a, "ck-a", {"rank0": _payload(16, 2 * CHUNK)})
    keep = _payload(17, 2 * CHUNK)
    _save(job_b, "ck-b", {"rank0": keep})

    # Crash-prune ck-a: the inner tag vanishes, the decrement never lands.
    [inner_tag] = [tag for tag in pool.inner.list_committed_checkpoints()
                   if tag.endswith("ck-a")]
    pool.inner.delete_checkpoint(inner_tag)

    reopened = CASStore(FileStore(tmp_path / "pool"), chunk_bytes=CHUNK)
    assert len(reopened.pool_chunks()) == 4  # 2 stranded + 2 live
    counts = reopened.rebuild_refcounts()
    assert sum(counts.values()) == 2  # only ck-b's chunks are referenced
    assert reopened.sweep_unreferenced() == 2
    assert reopened.namespace("jobB").read_shard("ck-b", "rank0") == keep


def test_reference_to_a_swept_base_raises_and_keeps_no_pin(tmp_path):
    """``record_shard_reference`` racing ``delete_checkpoint`` + sweep: the
    referencer may have read the base's chunk list just before the delete.
    It must notice that the chunks are gone — under the sweeper's lock —
    instead of staging a list of swept chunks."""
    pool = _pool(tmp_path)
    payload = _payload(40, 3 * CHUNK)
    _save(pool, "base", {"rank0": payload})
    core = pool._core
    warmed = core.committed_shards("ns-default--base")
    pool.delete_checkpoint("base")
    assert pool.sweep_unreferenced() == 3

    with pytest.raises(CheckpointError, match="no manifest|never committed"):
        pool.record_shard_reference("next", "rank0", "base")
    # ... and with the chunk list the losing side of the race still holds:
    core.committed["ns-default--base"] = warmed
    first = warmed["rank0"].chunks[0][0]
    with pytest.raises(CheckpointError) as raised:
        pool.record_shard_reference("next", "rank0", "base")
    assert first[:12] in str(raised.value) and "'base'" in str(raised.value)
    assert core.pins == {}
    assert core.pending == {}
    core.committed.pop("ns-default--base")

    _save(pool, "next", {"rank0": payload})   # the same state, written again
    assert pool.read_shard("next", "rank0") == payload
    assert core.pins == {}


def test_reference_pins_the_whole_list_in_one_critical_section(tmp_path):
    """No sweep can run between the first and the last pin of a reference."""
    pool = _pool(tmp_path)
    _save(pool, "base", {"rank0": _payload(41, 4 * CHUNK)})
    core = pool._core
    real_pin, outcomes = core.pin, []

    def sweeper():
        free = core.lock.acquire(timeout=0.05)
        if free:
            core.lock.release()
        outcomes.append(free)

    def pin_while_a_sweeper_tries(chunk_hash):
        thread = threading.Thread(target=sweeper)
        thread.start()
        thread.join()
        return real_pin(chunk_hash)

    core.pin = pin_while_a_sweeper_tries
    try:
        pool.record_shard_reference("next", "rank0", "base")
    finally:
        core.pin = real_pin
    assert outcomes == [False] * 4   # the lock was never free mid-list


def test_a_replaced_pending_shard_is_counted_once(tmp_path):
    pool = _pool(tmp_path)
    payload = _payload(42, 2 * CHUNK + 5)
    pool.write_shard("ck", "rank0", [payload])
    pool.write_shard("ck", "rank0", [payload])            # a retried write
    _save(pool, "base", {"rank1": payload})
    pool.record_shard_reference("ck", "rank1", "base")
    pool.record_shard_reference("ck", "rank1", "base")    # a retried reference
    metrics = pool.dedup_metrics()
    assert metrics["bytes_logical"] == 3 * len(payload)   # rank0, base, rank1
    assert metrics["chunks_referenced"] == 3

    pool.write_shard("ck", "rank1", [payload])            # reference, then write
    metrics = pool.dedup_metrics()
    assert metrics["bytes_logical"] == 3 * len(payload)
    assert metrics["chunks_referenced"] == 0
    pool.write_manifest("ck", {"tag": "ck", "shards": [
        {"name": name, "rank": 0, "nbytes": len(payload)} for name in ("rank0", "rank1")]})
    assert pool._core.pins == {}
    assert pool.read_shard("ck", "rank1") == payload


def test_orphan_chunks_from_an_aborted_save_are_swept(tmp_path):
    pool = _pool(tmp_path)
    pool.write_shard("never-committed", "rank0", [_payload(18, 2 * CHUNK)])
    _save(pool, "ck", {"rank0": _payload(19, CHUNK)})

    # Crash: pins die with the process; the upload already hit the pool.
    reopened = CASStore(FileStore(tmp_path / "pool"), chunk_bytes=CHUNK)
    assert len(reopened.pool_chunks()) == 3
    assert reopened.sweep_unreferenced() == 2
    assert len(reopened.pool_chunks()) == 1
    assert reopened.list_committed_checkpoints() == ["ck"]


# ---------------------------------------------------------------------------
# Chunk lists against an independent oracle, however the stream is cut
# ---------------------------------------------------------------------------

def _oracle(stream, cb):
    return [(hashlib.sha256(stream[i:i + cb]).hexdigest(), len(stream[i:i + cb]))
            for i in range(0, len(stream), cb)]


def _recycling_producer(pieces, kinds):
    """Yield ``pieces`` as ``bytes`` / 1-D view / multi-byte-itemsize view,
    overwriting each yielded buffer as soon as the next piece is pulled —
    what the flush sink's pool really does to a view it handed out."""
    previous = None
    for piece, kind in zip(pieces, kinds):
        if previous is not None:
            previous[:] = 0xAA
        previous = None
        if kind == "bytes":
            yield piece
            continue
        previous = np.frombuffer(piece, dtype=np.uint8).copy()
        if kind == "wide" and len(piece) % 4 == 0:
            yield memoryview(previous.view(np.uint32))
        else:
            yield memoryview(previous)
    if previous is not None:
        previous[:] = 0xAA


@st.composite
def _cut_streams(draw):
    cb = draw(st.sampled_from([1, 7, 4096]))
    stream = draw(st.binary(max_size=min(3 * cb + 17, 64 * cb)))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    bounds = [0] + cuts + [len(stream)]   # repeated cuts make empty pieces
    pieces = [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    kinds = [draw(st.sampled_from(["bytes", "view", "wide"])) for _ in pieces]
    return cb, stream, pieces, kinds


@settings(max_examples=60, deadline=None)
@given(case=_cut_streams())
def test_chunk_list_matches_the_oracle_for_any_cut(tmp_path_factory, case):
    cb, stream, pieces, kinds = case
    store = _pool(tmp_path_factory.mktemp("oracle"), chunk_bytes=cb)
    receipt = store.write_shard("ck", "rank0", _recycling_producer(pieces, kinds))
    assert receipt.nbytes == len(stream)
    store.write_manifest("ck", {"tag": "ck", "shards": [
        {"name": "rank0", "rank": 0, "nbytes": len(stream)}]})

    (record,) = store.read_manifest("ck")["shards"]
    assert [tuple(item) for item in record["chunks"]] == _oracle(stream, cb)
    assert store.read_shard("ck", "rank0") == stream
    lo, hi = len(stream) // 3, len(stream) - len(stream) // 4
    assert store.read_shard_range("ck", "rank0", lo, hi - lo) == stream[lo:hi]
    assert store._core.pins == {}


def test_a_producer_that_dies_midway_leaves_no_pin(tmp_path):
    store = _pool(tmp_path)

    def dying():
        yield _payload(30, CHUNK + 10)
        yield memoryview(bytearray(_payload(31, 2 * CHUNK)))
        raise RuntimeError("capture died")

    with pytest.raises(RuntimeError):
        store.write_shard("ck", "rank0", dying())
    assert store._core.pins == {}
    assert store._core.pending == {}


def test_write_shard_copies_at_most_the_unfinished_tail(tmp_path):
    """A 4 x cb stream of views: the chunk being cut is a list of views, so
    the traced peak stays under 1.5 x cb (re-buffering every byte through a
    bytearray and two ``bytes`` copies peaked near 3 x cb)."""
    cb = 1 << 20
    store = _pool(tmp_path, chunk_bytes=cb)
    staging = np.random.default_rng(32).integers(0, 256, 4 * cb, dtype=np.uint8)
    view = memoryview(staging)
    step = cb // 2 + 4096   # never aligned: every chunk has a copied tail
    tracemalloc.start()
    try:
        store.write_shard("ck", "rank0",
                          (view[lo:lo + step] for lo in range(0, len(view), step)))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cb
    assert store._core.pending["ns-default--ck"]["rank0"].chunks == tuple(
        _oracle(staging.tobytes(), cb))


# ---------------------------------------------------------------------------
# Incremental checkpoints through the real engines
# ---------------------------------------------------------------------------

def _training_state(opt_seed):
    rng = np.random.default_rng(7)
    model = {f"w{i}": rng.standard_normal(4096) for i in range(8)}
    opt_rng = np.random.default_rng(opt_seed)
    optimizer = {f"m{i}": opt_rng.standard_normal(4096) for i in range(8)}
    return {"model": model, "optimizer": optimizer, "iteration": 0}


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_incremental_save_writes_under_sixty_percent(engine_name, tmp_path):
    """The headline acceptance bar: with only the optimizer state changed,
    an incremental save moves <60 % of the full checkpoint's bytes and the
    restore is bit-identical; an identical re-save moves ~zero bytes by
    recording the whole shard by reference."""
    store = create_store("cas", root=tmp_path / "pool", chunk_bytes=4096)
    policy = CheckpointPolicy(host_buffer_size=1 << 28, incremental=True)
    with create_real_engine(engine_name, store, policy=policy) as engine:
        engine.save(_training_state(1), "ckpt-1", iteration=1)
        engine.wait_all(timeout=30)
        full = store.dedup_metrics()["bytes_written"]

        changed = _training_state(2)  # only the optimizer half differs
        engine.save(changed, "ckpt-2", iteration=2)
        engine.wait_all(timeout=30)
        incremental = store.dedup_metrics()["bytes_written"] - full
        assert incremental < 0.6 * full

        restored = engine.load(RestoreSpec(tag="ckpt-2"))
        for key, value in changed["model"].items():
            np.testing.assert_array_equal(restored["model"][key], value)
        for key, value in changed["optimizer"].items():
            np.testing.assert_array_equal(restored["optimizer"][key], value)

        # Bit-identical re-save: every part is recorded by reference.
        before = store.dedup_metrics()["bytes_written"]
        engine.save(changed, "ckpt-3", iteration=2)
        engine.wait_all(timeout=30)
        assert store.dedup_metrics()["bytes_written"] == before
        assert engine.stats()["parts_referenced"] >= 1
        assert engine.stats()["bytes_referenced"] > 0
        resaved = engine.load(RestoreSpec(tag="ckpt-3"))
        np.testing.assert_array_equal(resaved["optimizer"]["m3"],
                                      changed["optimizer"]["m3"])


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_incremental_base_prune_keeps_referencing_checkpoints_whole(
        engine_name, tmp_path):
    """Deleting the base of an incremental chain must not damage the
    checkpoints that recorded parts of it by reference — the refcounts keep
    the shared chunks alive through the sweep."""
    store = create_store("cas", root=tmp_path / "pool", chunk_bytes=4096)
    policy = CheckpointPolicy(host_buffer_size=1 << 28, incremental=True)
    with create_real_engine(engine_name, store, policy=policy) as engine:
        state = _training_state(3)
        engine.save(state, "base", iteration=1)
        engine.wait_all(timeout=30)
        engine.save(state, "head", iteration=2)  # identical: pure reference
        engine.wait_all(timeout=30)

        store.delete_checkpoint("base")
        assert store.sweep_unreferenced() == 0  # every chunk still referenced
        restored = engine.load(RestoreSpec(tag="head"))
        np.testing.assert_array_equal(restored["model"]["w0"],
                                      state["model"]["w0"])


class _HeldReferences:
    """Forwards to a ``CASStore``; while armed, ``record_shard_reference``
    parks its caller — the ``datastates`` copy thread, at its scan — until
    the test releases it, and then fails if told to."""

    def __init__(self, inner):
        self._inner = inner
        self.armed = False
        self.fail = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def record_shard_reference(self, tag, shard_name, base_tag):
        if self.armed:
            self.entered.set()
            assert self.release.wait(30)
            if self.fail:
                raise OSError(f"injected: reference of {tag}/{shard_name}")
        return self._inner.record_shard_reference(tag, shard_name, base_tag)


class _LoggingFileStore(FileStore):
    def __init__(self, root):
        super().__init__(root)
        self.written_tags = []

    def write_shard(self, tag, shard_name, chunks):
        self.written_tags.append(tag)
        return super().write_shard(tag, shard_name, chunks)


def _half_frozen(step):
    rng = np.random.default_rng(11)
    return {"frozen": rng.standard_normal(8192),
            "hot": rng.standard_normal(8192) + step, "note": "constant"}


def _lazy_incremental_chain(tmp_path):
    """``ck-1`` <- ``ck-2`` (its frozen part a reference) on ``datastates``;
    the next save will park at the frozen part's reference."""
    bottom = _LoggingFileStore(tmp_path / "pool")
    store = _HeldReferences(CASStore(bottom, chunk_bytes=4096))
    engine = create_real_engine("datastates", store, policy=CheckpointPolicy(
        host_buffer_size=1 << 22, incremental=True, shards_per_rank=2))
    for step, tag in enumerate(["ck-1", "ck-2"]):
        engine.save(_half_frozen(step), tag, iteration=step)
        engine.wait_all(timeout=30)
    assert engine.stats()["parts_referenced"] == 1
    store.armed = True
    return engine, store, bottom


def test_base_pruned_under_a_lazy_scan_makes_its_parts_dirty(tmp_path):
    """The scan of a lazy engine runs after ``save`` returned, so the caller
    can retire the base first.  That costs a re-hash, never the tag."""
    engine, store, bottom = _lazy_incremental_chain(tmp_path)
    try:
        state = _half_frozen(2)
        engine.save(state, "ck-3", iteration=2)
        assert store.entered.wait(30)          # the copy thread is at the scan
        store.delete_checkpoint("ck-2")
        store.sweep_unreferenced()
        shared = {chunk_tag(chunk_hash)
                  for record in store.read_manifest("ck-1")["shards"]
                  for chunk_hash, _nbytes in record["chunks"]}
        del bottom.written_tags[:]
        store.release.set()
        engine.wait_all(timeout=30)

        assert store.list_committed_checkpoints() == ["ck-1", "ck-3"]
        assert engine.stats()["parts_referenced"] == 1   # none for ``ck-3``
        assert engine.pool.used_bytes == 0
        assert store._core.pins == {}
        # The frozen part was re-hashed and deduplicated, not re-uploaded.
        assert not shared & set(bottom.written_tags)
        restored = engine.load(RestoreSpec(tag="ck-3"))
        for key in ("frozen", "hot"):
            np.testing.assert_array_equal(restored[key], state[key])
    finally:
        store.release.set()
        engine.shutdown(wait=False)


def test_failed_lazy_reference_with_its_base_in_place_fails_the_tag(tmp_path):
    engine, store, _bottom = _lazy_incremental_chain(tmp_path)
    try:
        store.fail = True
        handle = engine.save(_half_frozen(2), "ck-3", iteration=2)
        assert store.entered.wait(30)
        store.release.set()
        with pytest.raises(CheckpointError, match="injected"):
            engine.wait_all(timeout=30)
        with pytest.raises(CheckpointError, match="injected"):
            handle.wait_captured(timeout=30)             # ... and at the gate
        assert "ck-3" not in store.list_committed_checkpoints()
        engine.wait_for_snapshot(timeout=30)     # the healthy part drains too
        for job in engine.pipeline.pending_jobs():
            assert job.done.wait(30)
        assert engine.pool.used_bytes == 0

        store.armed = False
        state = _half_frozen(3)
        engine.save(state, "ck-4", iteration=3).wait_durable(timeout=30)
        assert engine.coordinator.wait_committed("ck-4", timeout=30)
        np.testing.assert_array_equal(
            engine.load(RestoreSpec(tag="ck-4"))["hot"], state["hot"])
    finally:
        store.release.set()
        engine.shutdown(wait=False)


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_engines_roundtrip_over_cas_with_object_inner(engine_name, tmp_path):
    """The pool works over the S3-like backend's minimal core too."""
    store = create_store("cas", root=tmp_path / "pool", inner="object",
                         namespace="tenant", chunk_bytes=4096)
    policy = CheckpointPolicy(host_buffer_size=1 << 28, incremental=True)
    with create_real_engine(engine_name, store, policy=policy) as engine:
        state = _training_state(4)
        engine.save(state, "ck-1", iteration=1)
        engine.wait_all(timeout=30)
        engine.save(state, "ck-2", iteration=2)
        engine.wait_all(timeout=30)
        assert engine.list_checkpoints() == ["ck-1", "ck-2"]

        store.delete_checkpoint("ck-1")
        store.sweep_unreferenced()
        restored = engine.load(RestoreSpec(tag="ck-2"))
        for key, value in state["model"].items():
            np.testing.assert_array_equal(restored["model"][key], value)


# ---------------------------------------------------------------------------
# Simulated dedup model
# ---------------------------------------------------------------------------

class _RecordingBacking:
    """Constant-bandwidth backing model recording the bytes it was charged."""

    def __init__(self, env, bandwidth):
        self.env = env
        self.bandwidth = bandwidth
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    def write(self, nbytes, tag=None, **kwargs):
        self.bytes_written += nbytes
        return self.env.timeout(nbytes / self.bandwidth)

    def read(self, nbytes, tag=None, **kwargs):
        self.bytes_read += nbytes
        return self.env.timeout(nbytes / self.bandwidth)

    def metrics(self):
        return {"bytes_written": self.bytes_written}


def _run(env, storage, op, nbytes):
    record = {}

    def proc():
        yield getattr(storage, op)(nbytes)
        record["end"] = env.now

    env.process(proc())
    env.run()
    return record["end"]


def test_sim_cas_write_charges_hash_pass_then_physical_remainder():
    env = Environment()
    backing = _RecordingBacking(env, bandwidth=1e9)
    cas = SimContentAddressedStorage(env=env, backing=backing,
                                     dedup_fraction=0.5, hash_bandwidth=2e9)
    # 2 GB logical: 1 s hashing at 2 GB/s, then 1 GB physical at 1 GB/s.
    assert _run(env, cas, "write", 2e9) == pytest.approx(2.0, rel=1e-6)
    assert backing.bytes_written == pytest.approx(1e9)
    metrics = cas.metrics()
    assert metrics["bytes_deduped"] == pytest.approx(1e9)
    assert metrics["dedup_ratio"] == pytest.approx(0.5)
    assert metrics["backing_bytes_written"] == pytest.approx(1e9)


def test_sim_cas_full_dedup_never_touches_the_backing():
    env = Environment()
    backing = _RecordingBacking(env, bandwidth=1e9)
    cas = SimContentAddressedStorage(env=env, backing=backing,
                                     dedup_fraction=1.0, hash_bandwidth=2e9)
    assert _run(env, cas, "write", 2e9) == pytest.approx(1.0, rel=1e-6)
    assert backing.bytes_written == 0.0


def test_sim_cas_restore_reads_full_logical_bytes_plus_verify():
    env = Environment()
    backing = _RecordingBacking(env, bandwidth=1e9)
    cas = SimContentAddressedStorage(env=env, backing=backing,
                                     dedup_fraction=0.5, hash_bandwidth=2e9)
    # Restores reassemble every chunk: 2 s backing read + 1 s verify.
    assert _run(env, cas, "read", 2e9) == pytest.approx(3.0, rel=1e-6)
    assert backing.bytes_read == pytest.approx(2e9)


def test_sim_cas_validates_its_knobs():
    env = Environment()
    backing = _RecordingBacking(env, bandwidth=1e9)
    with pytest.raises(ConfigurationError):
        SimContentAddressedStorage(env=env, backing=backing, dedup_fraction=1.5)
    with pytest.raises(ConfigurationError):
        SimContentAddressedStorage(env=env, backing=backing, hash_bandwidth=0.0)


def test_make_cas_storage_defaults_to_the_shared_pfs():
    env = Environment()
    platform = PlatformSpec.polaris()
    cas = make_cas_storage(env, platform, node_id=0, dedup_fraction=0.25)
    assert isinstance(cas.backing, SimParallelFileSystem)
    shared = make_parallel_fs(env, platform)
    reused = make_cas_storage(env, platform, node_id=1, shared_pfs=shared)
    assert reused.backing is shared
