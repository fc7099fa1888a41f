"""Content-addressed multi-tenant store (``cas``) unit + integration suite.

Covers the chunk pool's content addressing (fixed-size sha256 chunks,
dedup, hash-verified reads), namespace scoping and quotas over one shared
pool, the mark-and-sweep cross-job GC (including the
concurrent-writer-vs-sweeper and prune-vs-commit races, several handles and
processes over one root, and the exact reference counts the committed
manifests give a reopened pool),
the engine-level incremental checkpoint path (``CheckpointPolicy.
incremental``) against its <60 %-of-full-bytes acceptance bar, and the
``cas``-over-``object`` composition.
"""

import hashlib
import multiprocessing
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CheckpointPolicy
from repro.core import ENGINE_NAMES, create_real_engine
from repro.exceptions import CheckpointError, ConfigurationError, ConsistencyError
from repro.io import (CASStore, FileStore, ObjectStore, create_store,
                      supports_shard_reference)
from repro.restart import CheckpointLoader, RestoreSpec
from repro.io.cas import CHUNK_SHARD_NAME, chunk_tag

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
# Cross-job mark-and-sweep GC
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
    # A cold open of the same pool counts the same (empty) state.
    reopened = CASStore(FileStore(tmp_path / "pool"), chunk_bytes=CHUNK)
    assert reopened.pool_chunks() == []
    assert reopened.list_committed_checkpoints() == []


def test_sweep_skips_a_chunk_repinned_by_a_concurrent_writer(tmp_path, monkeypatch):
    """The prune-vs-save race: a writer re-referencing an unreferenced chunk
    between the sweeper's candidate listing and its per-chunk re-check must
    win — the pin taken at first use makes the re-check skip the chunk."""
    pool = _pool(tmp_path)
    payload = _payload(13, 2 * CHUNK)
    _save(pool, "old", {"rank0": payload})
    pool.delete_checkpoint("old")  # no manifest names the chunks; they linger

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
    """The other side of the race window: once the sweep deleted a chunk,
    a later identical write must find it gone and re-upload it."""
    pool = _pool(tmp_path)
    payload = _payload(14, CHUNK)
    _save(pool, "old", {"rank0": payload})
    pool.delete_checkpoint("old")
    assert pool.sweep_unreferenced() == 1

    before = pool.dedup_metrics()["chunks_written"]
    _save(pool, "new", {"rank0": payload})
    assert pool.dedup_metrics()["chunks_written"] == before + 1
    assert pool.read_shard("new", "rank0") == payload


def test_a_prune_beside_a_commit_never_loses_the_committed_chunks(tmp_path):
    """A retention prune on one thread and a commit on another: the prune's
    store writes are held back until the commit has published, and a
    reopened and swept pool still restores the committed checkpoint."""
    pool = _pool(tmp_path)
    _save(pool, "old", {"rank0": _payload(18, 2 * CHUNK)})
    parked, committed = threading.Event(), threading.Event()
    real_write_manifest = pool.inner.write_manifest

    def write_manifest(tag, manifest):
        if threading.current_thread().name == "retire" and not parked.is_set():
            parked.set()
            committed.wait(10.0)
        receipt = real_write_manifest(tag, manifest)
        if (threading.current_thread() is threading.main_thread()
                and tag.startswith("ns-")):
            committed.set()
        return receipt

    pool.inner.write_manifest = write_manifest
    retire = threading.Thread(target=pool.delete_checkpoint, args=("old",),
                              name="retire")
    retire.start()
    parked.wait(1.0)
    new = _payload(19, 2 * CHUNK)
    _save(pool, "new", {"rank0": new})
    retire.join(10.0)
    assert not retire.is_alive()

    reopened = CASStore(FileStore(tmp_path / "pool"), chunk_bytes=CHUNK)
    reopened.sweep_unreferenced()
    assert reopened.read_shard("new", "rank0") == new


# ---------------------------------------------------------------------------
# Reference counts read from the committed manifests
# ---------------------------------------------------------------------------

def test_a_pool_with_no_index_object_reopens_with_exact_counts(tmp_path):
    pool = _pool(tmp_path)
    shared = _payload(15, 2 * CHUNK)
    _save(pool.namespace("jobA"), "ck", {"rank0": shared})
    _save(pool.namespace("jobB"), "ck", {"rank0": shared})

    reopened = CASStore(FileStore(tmp_path / "pool"), chunk_bytes=CHUNK)
    for chunk_hash in reopened.pool_chunks():
        assert reopened.refcount(chunk_hash) == 2
    assert reopened.sweep_unreferenced() == 0
    assert reopened.namespace("jobB").read_shard("ck", "rank0") == shared


def test_a_crash_pruned_checkpoints_chunks_go_at_the_next_sweep(tmp_path):
    """A prune that removed only the inner tag leaves the chunks
    stranded in the pool; a reopened pool counts only what the
    committed manifests name, so the next sweep reclaims them."""
    pool = _pool(tmp_path)
    job_a, job_b = pool.namespace("jobA"), pool.namespace("jobB")
    _save(job_a, "ck-a", {"rank0": _payload(16, 2 * CHUNK)})
    keep = _payload(17, 2 * CHUNK)
    _save(job_b, "ck-b", {"rank0": keep})

    # Crash-prune ck-a: the inner tag vanishes, its chunks stay.
    [inner_tag] = [tag for tag in pool.inner.list_committed_checkpoints()
                   if tag.endswith("ck-a")]
    pool.inner.delete_checkpoint(inner_tag)

    reopened = CASStore(FileStore(tmp_path / "pool"), chunk_bytes=CHUNK)
    chunks = reopened.pool_chunks()
    assert len(chunks) == 4  # 2 stranded + 2 live
    # only ck-b's chunks are referenced
    assert sum(reopened.refcount(chunk_hash) for chunk_hash in chunks) == 2
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

    def pin_while_a_sweeper_tries(*args):
        thread = threading.Thread(target=sweeper)
        thread.start()
        thread.join()
        return real_pin(*args)

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
# Several handles over one root: the sweep marks from the manifests, a
# writer asks the pool
# ---------------------------------------------------------------------------

def _datastates_save(store, state, tag):
    with create_real_engine("datastates", store, policy=CheckpointPolicy(
            host_buffer_size=1 << 22)) as engine:
        engine.save(state, tag, iteration=1)
        engine.wait_all(timeout=30)


def _assert_restores(store, tag, state):
    restored = CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag=tag))
    for group in ("model", "optimizer"):
        for key, value in state[group].items():
            np.testing.assert_array_equal(restored[group][key], value)


def test_a_handle_never_sweeps_a_checkpoint_another_handle_committed(tmp_path):
    sweeper = _pool(tmp_path, chunk_bytes=4096)
    writer = _pool(tmp_path, chunk_bytes=4096)
    state = _training_state(5)
    _datastates_save(writer, state, "ck")

    assert sweeper.sweep_unreferenced() == 0
    _assert_restores(writer, "ck", state)
    _assert_restores(sweeper, "ck", state)


def test_a_chunk_another_handle_swept_is_uploaded_again(tmp_path):
    """``writer`` wrote the chunks itself, then ``pruner`` deleted and swept
    them: the same bytes saved again must go back to the pool, not be
    deduplicated against chunks that are gone."""
    pruner, writer = _pool(tmp_path), _pool(tmp_path)
    payload = _payload(43, 3 * CHUNK)
    _save(writer, "t1", {"rank0": payload})
    pruner.delete_checkpoint("t1")
    assert pruner.sweep_unreferenced() == 3

    written = writer.dedup_metrics()["chunks_written"]
    _save(writer, "t2", {"rank0": payload})
    assert writer.dedup_metrics()["chunks_written"] == written + 3
    assert writer.read_shard("t2", "rank0") == payload
    assert _pool(tmp_path).read_shard("t2", "rank0") == payload


def _named_chunks(store, tag):
    return {chunk_hash for record in store.read_manifest(tag)["shards"]
            for chunk_hash, _nbytes in record["chunks"]}


def test_a_checkpoint_another_handle_recommitted_is_read_through_its_new_manifest(
        tmp_path):
    """``writer`` deletes and re-commits a tag ``reader`` has restored:
    ``reader``'s next restore returns the new bytes, and once it has read the
    new manifest its sweep no longer spares the old checkpoint's chunks."""
    reader = _pool(tmp_path, chunk_bytes=4096)
    writer = _pool(tmp_path, chunk_bytes=4096)
    _datastates_save(writer, _training_state(1), "t")
    _assert_restores(reader, "t", _training_state(1))
    old = _named_chunks(writer, "t")

    writer.delete_checkpoint("t")
    _datastates_save(writer, _training_state(2), "t")
    _assert_restores(reader, "t", _training_state(2))

    new = _named_chunks(reader, "t")
    assert old - new
    assert reader.sweep_unreferenced() == len(old - new)
    assert set(reader.pool_chunks()) == new


def test_a_checkpoint_another_handle_deleted_is_not_served_from_the_cache(tmp_path):
    """Once ``reader`` finds the manifest gone, it drops the chunk lists it
    cached: a shard read fails instead of returning the deleted bytes, and
    its sweep reclaims the chunks."""
    reader = _pool(tmp_path, chunk_bytes=4)
    writer = _pool(tmp_path, chunk_bytes=4)
    _save(writer, "t", {"s": b"xxxxXXXX"})
    assert reader.read_shard("t", "s") == b"xxxxXXXX"

    writer.delete_checkpoint("t")
    with pytest.raises(CheckpointError):
        reader.read_manifest("t")
    with pytest.raises(CheckpointError):
        reader.read_shard("t", "s")
    assert reader.sweep_unreferenced() == 2
    assert reader.pool_chunks() == []


def test_shard_size_and_ranged_reads_follow_a_recommitted_manifest(tmp_path):
    reader = _pool(tmp_path, chunk_bytes=4)
    writer = _pool(tmp_path, chunk_bytes=4)
    _save(writer, "t", {"s": b"xxxxXXXX"})
    assert reader.shard_size("t", "s") == 8

    writer.delete_checkpoint("t")
    _save(writer, "t", {"s": b"yyyyYYYYzzzz"})
    reader.read_manifest("t")
    assert reader.shard_size("t", "s") == 12
    assert reader.read_shard_range("t", "s", 2, 8) == b"yyYYYYzz"


def test_a_bare_shard_read_follows_a_recommitted_manifest(tmp_path):
    """No ``read_manifest`` on ``reader`` in between: each shard read takes
    the chunk list from the manifest as it is now, so ``reader`` gets the
    re-committed bytes and its sweep reclaims the old checkpoint's chunks."""
    reader = _pool(tmp_path, chunk_bytes=4)
    writer = _pool(tmp_path, chunk_bytes=4)
    _save(writer, "t", {"s": b"xxxxXXXX"})
    assert reader.read_shard("t", "s") == b"xxxxXXXX"

    writer.delete_checkpoint("t")
    _save(writer, "t", {"s": b"yyyyYYYY"})
    assert reader.read_shard("t", "s") == b"yyyyYYYY"
    assert bytes(reader.read_shard("t", "s", out=bytearray(8))) == b"yyyyYYYY"
    assert reader.read_shard_range("t", "s", 2, 4) == b"yyYY"
    assert reader.sweep_unreferenced() == 2
    assert reader.read_shard("t", "s") == b"yyyyYYYY"


def test_a_bare_shard_size_follows_a_recommitted_manifest(tmp_path):
    reader = _pool(tmp_path, chunk_bytes=4)
    writer = _pool(tmp_path, chunk_bytes=4)
    _save(writer, "t", {"s": b"xxxxXXXX"})
    assert reader.shard_size("t", "s") == 8

    writer.delete_checkpoint("t")
    _save(writer, "t", {"s": b"yyyyYYYYzzzz"})
    assert reader.shard_size("t", "s") == 12


@pytest.mark.parametrize("damage", ["oserror", "garbage"])
def test_an_unreadable_listed_manifest_fails_the_sweep_and_deletes_nothing(
        tmp_path, damage):
    pool = _pool(tmp_path)
    _save(pool, "keep", {"rank0": _payload(44, 2 * CHUNK)})
    _save(pool, "other", {"rank0": _payload(45, 2 * CHUNK)})
    [other] = [tag for tag in pool.inner.list_committed_checkpoints()
               if tag.endswith("--other")]
    inner = FileStore(tmp_path / "pool")
    real_read = inner.read_manifest

    def unreadable(tag):
        if tag == other:
            raise OSError(f"injected: manifest of {tag} unreadable")
        return real_read(tag)

    if damage == "oserror":
        inner.read_manifest = unreadable
    else:
        (tmp_path / "pool" / other / "manifest.json").write_text("{not json")
    reopened = CASStore(inner, chunk_bytes=CHUNK)

    with pytest.raises((OSError, ValueError)):
        reopened.sweep_unreferenced()
    assert reopened.pool_chunks() == pool.pool_chunks()
    assert len(reopened.pool_chunks()) == 4
    assert reopened.dedup_metrics()["chunks_swept"] == 0


def test_a_manifest_pruned_during_the_mark_is_skipped(tmp_path):
    pool = _pool(tmp_path)
    keep = _payload(46, 2 * CHUNK)
    _save(pool, "keep", {"rank0": keep})
    _save(pool, "gone", {"rank0": _payload(47, 2 * CHUNK)})
    inner = FileStore(tmp_path / "pool")
    real_read = inner.read_manifest

    def read_after_a_prune(tag):
        if tag.endswith("--gone"):
            inner.delete_checkpoint(tag)   # a concurrent prune wins the race
        return real_read(tag)

    inner.read_manifest = read_after_a_prune
    reopened = CASStore(inner, chunk_bytes=CHUNK)
    assert reopened.sweep_unreferenced() == 2
    assert reopened.read_shard("keep", "rank0") == keep


def test_asking_an_object_pool_for_a_chunk_is_no_get():
    store = CASStore(ObjectStore(), chunk_bytes=CHUNK)
    payload = _payload(48, 3 * CHUNK)
    _save(store, "ck-1", {"rank0": payload})
    gets = store.inner.get_count
    _save(store, "ck-2", {"rank0": payload})
    assert store.dedup_metrics()["chunks_deduped"] == 3
    assert store.inner.get_count == gets


def test_a_probe_that_raises_gives_every_pin_back(tmp_path, monkeypatch):
    """Only an absent chunk reads as "not in the pool"; any other error from
    the presence probe fails the write or the reference, holding no pin."""
    pool = _pool(tmp_path)
    payload = _payload(49, 3 * CHUNK)
    _save(pool, "base", {"rank0": payload})
    real_size, probes = pool.inner.shard_size, []

    def second_probe_breaks(tag, shard_name):
        probes.append(tag)
        if len(probes) == 2:
            raise RuntimeError("injected: probe failed")
        return real_size(tag, shard_name)

    monkeypatch.setattr(pool.inner, "shard_size", second_probe_breaks)
    with pytest.raises(RuntimeError, match="injected"):
        pool.record_shard_reference("next", "rank0", "base")
    assert pool._core.pins == {}
    del probes[:]
    with pytest.raises(RuntimeError, match="injected"):
        pool.write_shard("next", "rank0", [payload])
    assert pool._core.pins == {}
    assert pool._core.pending == {}


def _commit_in_another_process(root, tag, seed):
    """Child process: open its own pool over ``root`` and commit ``tag``."""
    _datastates_save(CASStore(FileStore(root), chunk_bytes=4096),
                     _training_state(seed), tag)


def test_a_checkpoint_another_process_committed_survives_the_sweep(tmp_path):
    pool = _pool(tmp_path, chunk_bytes=4096)   # opened before the child commits
    child = multiprocessing.get_context("spawn").Process(
        target=_commit_in_another_process, args=(tmp_path / "pool", "ck", 6))
    child.start()
    child.join(120)
    assert child.exitcode == 0

    assert pool.sweep_unreferenced() == 0
    _assert_restores(pool, "ck", _training_state(6))


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
    checkpoints that recorded parts of it by reference — their manifests keep
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
        deadline = time.monotonic() + 30
        while engine.pool.used_bytes and time.monotonic() < deadline:
            time.sleep(0.01)
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
