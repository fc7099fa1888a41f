"""Tests for the thread-safe pinned host pool."""

import threading
import time

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import DataStatesCheckpointEngine
from repro.exceptions import AllocationError
from repro.io import FileStore
from repro.memory import PinnedHostPool
from repro.restart import RestoreSpec


def test_allocate_returns_view_of_requested_size():
    pool = PinnedHostPool(1024)
    alloc = pool.allocate(100)
    assert alloc.segment.size == 100
    assert len(alloc.view) == 100
    assert pool.used_bytes == 100
    pool.free(alloc)
    assert pool.used_bytes == 0


def test_view_writes_land_in_backing_buffer():
    pool = PinnedHostPool(256)
    alloc = pool.allocate(16)
    np.frombuffer(alloc.view, dtype=np.uint8)[:] = 7
    assert bytes(alloc.view) == b"\x07" * 16
    pool.free(alloc)
    # The freed bytes are the next allocation's: the same backing bytes.
    again = pool.allocate(16)
    assert again.segment.offset == 0
    assert bytes(again.view) == b"\x07" * 16


def test_oversized_allocation_always_rejected():
    pool = PinnedHostPool(100)
    with pytest.raises(AllocationError):
        pool.allocate(101)


def test_non_blocking_allocation_raises_when_full():
    pool = PinnedHostPool(100)
    pool.allocate(90)
    with pytest.raises(AllocationError):
        pool.allocate(20, blocking=False)


def test_blocking_allocation_waits_for_free():
    pool = PinnedHostPool(100)
    first = pool.allocate(80)
    result = {}

    def blocked():
        result["alloc"] = pool.allocate(60, blocking=True, timeout=5.0)

    thread = threading.Thread(target=blocked)
    thread.start()
    time.sleep(0.05)
    assert "alloc" not in result
    pool.free(first)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert result["alloc"].segment.size == 60


def test_blocking_allocation_times_out():
    pool = PinnedHostPool(100)
    pool.allocate(90)
    with pytest.raises(AllocationError):
        pool.allocate(50, blocking=True, timeout=0.05)


def test_close_unblocks_waiters_with_error():
    pool = PinnedHostPool(100)
    pool.allocate(90)
    errors = []

    def blocked():
        try:
            pool.allocate(50, blocking=True, timeout=5.0)
        except AllocationError as exc:
            errors.append(exc)

    thread = threading.Thread(target=blocked)
    thread.start()
    time.sleep(0.05)
    pool.close()
    thread.join(timeout=5.0)
    assert errors


def test_reset_allows_reuse():
    pool = PinnedHostPool(100)
    pool.allocate(100)
    pool.reset()
    assert pool.allocate(100).segment.size == 100


def test_concurrent_producers_and_consumer():
    """Several producer threads allocate/fill slices while a consumer frees
    them; the pool must neither deadlock nor corrupt accounting."""
    pool = PinnedHostPool(4096)
    produced = []
    lock = threading.Lock()

    def producer(value):
        for _ in range(20):
            alloc = pool.allocate(128, blocking=True, timeout=10.0)
            np.frombuffer(alloc.view, dtype=np.uint8)[:] = value
            with lock:
                produced.append((value, alloc))

    def consumer():
        freed = 0
        deadline = time.time() + 10.0
        while freed < 60 and time.time() < deadline:
            with lock:
                item = produced.pop(0) if produced else None
            if item is None:
                time.sleep(0.001)
                continue
            value, alloc = item
            data = np.frombuffer(alloc.view, dtype=np.uint8)
            assert np.all(data == value)
            pool.free(alloc)
            freed += 1
        assert freed == 60

    threads = [threading.Thread(target=producer, args=(v,)) for v in (1, 2, 3)]
    consumer_thread = threading.Thread(target=consumer)
    for thread in threads:
        thread.start()
    consumer_thread.start()
    for thread in threads:
        thread.join(timeout=15.0)
    consumer_thread.join(timeout=15.0)
    assert pool.used_bytes == 0


def test_ring_wraparound_under_sustained_alloc_free():
    """Allocations larger than the tail gap must wrap to offset zero once the
    head segments retire; sustained traffic has to reuse the ring without
    fragmentation deadlocks."""
    pool = PinnedHostPool(1000)
    live = []
    offsets_seen = set()
    for index in range(50):
        alloc = pool.allocate(300, blocking=True, timeout=5.0)
        np.frombuffer(alloc.view, dtype=np.uint8)[:] = index % 251
        live.append((index % 251, alloc))
        offsets_seen.add(alloc.segment.offset)
        if len(live) == 3:
            # Free oldest-first, like the flush pipeline retiring tensors.
            value, oldest = live.pop(0)
            assert np.all(np.frombuffer(oldest.view, dtype=np.uint8) == value)
            pool.free(oldest)
    # The ring actually wrapped: offset 0 was reused after the first lap.
    assert 0 in offsets_seen and len(offsets_seen) >= 3
    assert pool.peak_used_bytes <= 1000
    for value, alloc in live:
        assert np.all(np.frombuffer(alloc.view, dtype=np.uint8) == value)
        pool.free(alloc)
    assert pool.used_bytes == 0


class _StreamingOnlyStore(FileStore):
    """A file store without offset-addressed writers: engines stream to it."""

    create_shard_writer = None


@pytest.mark.parametrize("store_cls", [_StreamingOnlyStore, FileStore],
                         ids=["streaming", "parallel"])
def test_two_inflight_checkpoints_larger_than_half_pool(tmp_path, store_cls):
    """Back-pressure acceptance: two concurrent in-flight checkpoints, each
    bigger than half the pinned pool, must flow through the ring without
    deadlock and round-trip byte-exactly on both write paths."""
    pool_bytes = 1 << 20  # 1 MiB pool ...
    rng = np.random.default_rng(42)
    states = {}
    for tag in ("ckpt-a", "ckpt-b"):
        # ... vs ~0.75 MiB per checkpoint (6 x 128 KiB tensors).
        states[tag] = {f"t{i}": rng.integers(0, 1 << 30, size=16384, dtype=np.int64)
                       for i in range(6)}
    store = store_cls(tmp_path)
    policy = CheckpointPolicy(host_buffer_size=pool_bytes)
    engine = DataStatesCheckpointEngine(store, policy=policy)
    try:
        for iteration, (tag, state) in enumerate(states.items()):
            engine.save(state, tag=tag, iteration=iteration)
        engine.wait_all()  # would hang forever on a wraparound/back-pressure bug
        assert engine.pool.used_bytes == 0
        # The ring was actually oversubscribed at some point (back-pressure
        # engaged) yet never exceeded its capacity.
        assert engine.pool.peak_used_bytes <= pool_bytes
        assert engine.pool.peak_used_bytes >= pool_bytes // 2
        for tag, state in states.items():
            loaded = engine.load(RestoreSpec(tag=tag))
            for key, value in state.items():
                np.testing.assert_array_equal(loaded[key], value)
    finally:
        engine.shutdown(wait=False)


def test_blocked_waits_counts_the_allocations_that_had_to_wait():
    pool = PinnedHostPool(100)
    first = pool.allocate(80)
    pool.free(pool.allocate(20, blocking=True, timeout=5.0))
    assert pool.blocked_waits == 0
    result = {}

    def blocked():
        result["alloc"] = pool.allocate(60, blocking=True, timeout=5.0)

    thread = threading.Thread(target=blocked)
    thread.start()
    time.sleep(0.05)
    pool.free(first)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert result["alloc"].segment.size == 60
    assert pool.blocked_waits == 1
