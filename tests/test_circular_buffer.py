"""Tests (including property-based) for the circular staging-buffer allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AllocationError
from repro.memory import CircularBufferManager


def test_basic_allocate_and_free():
    buf = CircularBufferManager(100)
    seg = buf.allocate(40)
    assert seg.offset == 0
    assert seg.size == 40
    assert buf.used_bytes == 40
    buf.free(seg)
    assert buf.used_bytes == 0


def test_allocations_are_contiguous_and_disjoint():
    buf = CircularBufferManager(100)
    a = buf.allocate(30)
    b = buf.allocate(30)
    c = buf.allocate(30)
    segments = sorted([(s.offset, s.end) for s in (a, b, c)])
    for (s1, e1), (s2, _e2) in zip(segments, segments[1:]):
        assert e1 <= s2
    assert all(0 <= s.offset and s.end <= 100 for s in (a, b, c))


def test_allocation_larger_than_capacity_rejected():
    buf = CircularBufferManager(100)
    with pytest.raises(AllocationError):
        buf.allocate(101)


def test_non_positive_allocation_rejected():
    buf = CircularBufferManager(100)
    with pytest.raises(AllocationError):
        buf.allocate(0)


def test_allocation_when_full_raises():
    buf = CircularBufferManager(100)
    buf.allocate(60)
    buf.allocate(40)
    with pytest.raises(AllocationError):
        buf.allocate(1)


def test_double_free_rejected():
    buf = CircularBufferManager(100)
    seg = buf.allocate(10)
    buf.free(seg)
    with pytest.raises(AllocationError):
        buf.free(seg)


def test_foreign_segment_rejected():
    buf_a = CircularBufferManager(100)
    buf_b = CircularBufferManager(100)
    seg = buf_a.allocate(10)
    with pytest.raises(AllocationError):
        buf_b.free(seg)


def test_fifo_reclamation_allows_wrap_around():
    buf = CircularBufferManager(100)
    a = buf.allocate(60)
    b = buf.allocate(30)
    buf.free(a)
    # 60 bytes at the front are free again; a 50-byte request must wrap there.
    c = buf.allocate(50)
    assert c.offset == 0
    assert c.end <= 60
    buf.free(b)
    buf.free(c)
    assert buf.used_bytes == 0


def test_out_of_order_free_reclaims_lazily():
    buf = CircularBufferManager(100)
    a = buf.allocate(50)
    b = buf.allocate(50)
    buf.free(b)
    # b is retired but a (older) still live: space is not reusable yet.
    assert buf.used_bytes == 100
    with pytest.raises(AllocationError):
        buf.allocate(10)
    buf.free(a)
    assert buf.used_bytes == 0
    assert buf.allocate(100).offset == 0


def test_reset_clears_everything():
    buf = CircularBufferManager(100)
    buf.allocate(70)
    buf.reset()
    assert buf.used_bytes == 0
    assert buf.allocate(100).offset == 0


def test_producer_consumer_cycle_many_rounds():
    """Simulates the steady-state checkpoint pattern: allocate N shards, free
    them in FIFO order, repeat many times without fragmentation failures."""
    buf = CircularBufferManager(1000)
    for _round in range(50):
        segments = [buf.allocate(size) for size in (300, 250, 200)]
        for seg in segments:
            buf.free(seg)
    assert buf.used_bytes == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=60))
def test_property_fifo_stream_never_overlaps_and_always_completes(sizes):
    """Allocating and freeing in FIFO order with bounded outstanding segments
    must always succeed, and live segments must never overlap."""
    capacity = 100
    buf = CircularBufferManager(capacity)
    live = []
    for size in sizes:
        # Keep freeing oldest segments until the new one fits.
        while True:
            try:
                seg = buf.allocate(size)
                break
            except AllocationError:
                assert live, "buffer reported full with nothing to free"
                buf.free(live.pop(0))
        # Invariants: inside the region, no overlap with live segments.
        assert 0 <= seg.offset and seg.end <= capacity
        for other in live:
            assert seg.end <= other.offset or other.end <= seg.offset
        live.append(seg)
        assert buf.used_bytes <= capacity
    for seg in live:
        buf.free(seg)
    assert buf.used_bytes == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(min_value=1, max_value=30),
                       st.booleans()), min_size=1, max_size=40)
)
def test_property_used_bytes_is_sum_of_unreclaimed(ops):
    """used_bytes always equals the sum of segments not yet reclaimed."""
    buf = CircularBufferManager(200)
    live = []      # allocated and not freed
    for size, do_free in ops:
        try:
            live.append(buf.allocate(size))
        except AllocationError:
            pass
        if do_free and live:
            seg = live.pop(0)
            buf.free(seg)
        # The manager's used bytes can never exceed capacity and never be
        # negative.
        assert 0 <= buf.used_bytes <= 200
    # After freeing everything the buffer must be empty again.
    for seg in live:
        buf.free(seg)
    assert buf.used_bytes == 0


def _scan_placement(segments, head, capacity, size):
    """Reference placement: scan every reserved interval for the free run at
    the head, else at offset zero (the allocator's original algorithm)."""
    if not segments:
        return 0 if size <= capacity else None
    intervals = sorted((seg.offset, seg.end) for seg in segments)
    next_occupied = capacity
    for start, end in intervals:
        if start <= head < end:
            break
        if start >= head:
            next_occupied = min(next_occupied, start)
    else:
        if next_occupied - head >= size:
            return head
    if intervals[0][0] >= size and head != 0:
        if not any(start <= 0 < end for start, end in intervals):
            return 0
    return None


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=120),
       ops=st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=130),
                              st.integers(min_value=0, max_value=1000)),
                    min_size=1, max_size=80))
def test_property_head_tail_placement_matches_the_interval_scan(capacity, ops):
    """Every placement — and every refusal — equals the full interval scan's,
    under allocations of any size and frees in any order."""
    buf = CircularBufferManager(capacity)
    live = []
    for is_free, size, pick in ops:
        if is_free and live:
            buf.free(live.pop(pick % len(live)))
            continue
        expected = _scan_placement(buf._segments, buf._head, capacity, size)
        if expected is None:
            with pytest.raises(AllocationError):
                buf.allocate(size)
        else:
            segment = buf.allocate(size)
            assert segment.offset == expected
            live.append(segment)
