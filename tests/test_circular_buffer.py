"""Tests (including property-based) for the circular staging-buffer allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AllocationError
from repro.memory import CircularBufferManager
from repro.serialization import MAX_EXTENT_BYTES, TensorEntry, plan_extents


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


def test_out_of_order_free_is_reusable_at_once():
    buf = CircularBufferManager(100)
    a = buf.allocate(50)
    b = buf.allocate(50)
    buf.free(b)
    # b is freed while a (older) is still live: its bytes come back at once.
    assert buf.used_bytes == 50
    c = buf.allocate(50)
    assert c.offset == 50
    buf.free(a)
    assert buf.used_bytes == 50
    assert buf.allocate(10).offset == 0


def _gaps(live, capacity):
    """The free runs ``(offset, size)`` between live segments."""
    gaps, offset = [], 0
    for segment in sorted(live, key=lambda s: s.offset):
        if segment.offset > offset:
            gaps.append((offset, segment.offset - offset))
        offset = segment.end
    if capacity > offset:
        gaps.append((offset, capacity - offset))
    return gaps


def test_capacity_admission_after_freeing_the_oldest():
    """Ten 9-byte extents fill ``[0, 90)`` of a 100-byte buffer; freeing the
    two oldest opens ``[0, 18)`` beside the never-used ``[90, 100)``.  Every
    request that some gap fits is admitted until the buffer is full.  A ring
    that jumps its head back to offset 0 as soon as the front is free refuses
    the last request: ``[90, 100)`` sits behind its head until the tail
    passes it."""
    buf = CircularBufferManager(100)
    live = [buf.allocate(9) for _ in range(10)]
    for segment in live[:2]:
        buf.free(segment)
    live = live[2:]
    for size in (10, 8, 10):
        assert any(gap >= size for _, gap in _gaps(live, 100))
        live.append(buf.allocate(size))
    assert buf.used_bytes == 100
    assert _gaps(live, 100) == []


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


def _first_fit(live, capacity, size):
    """Reference placement: the lowest offset whose ``size`` bytes overlap no
    live segment, found by trying every offset in turn; None if none fits."""
    for offset in range(capacity - size + 1):
        if all(offset + size <= seg.offset or seg.end <= offset for seg in live):
            return offset
    return None


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=120),
       ops=st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=130),
                              st.integers(min_value=0, max_value=1000)),
                    min_size=1, max_size=80))
def test_property_placement_matches_a_first_fit_scan(capacity, ops):
    """Every placement — and every refusal — equals a reference first-fit
    scan over the live segments, under allocations of any size and frees in
    any order."""
    buf = CircularBufferManager(capacity)
    live = []
    for is_free, size, pick in ops:
        if is_free and live:
            buf.free(live.pop(pick % len(live)))
            continue
        expected = _first_fit(live, capacity, size)
        if expected is None:
            with pytest.raises(AllocationError):
                buf.allocate(size)
        else:
            segment = buf.allocate(size)
            assert segment.offset == expected
            live.append(segment)
        assert buf.used_bytes == sum(seg.size for seg in live)


def _replay(sizes, lag, capacity):
    """Stage ``sizes`` in order with the consumer ``lag`` extents behind (the
    oldest is freed before the ``lag + 1``-th would be live).  Checks the
    first-fit bound of every placement; returns (highest end, peak in-flight
    bytes)."""
    buf = CircularBufferManager(capacity)
    live, top, peak = [], 0, 0
    for size in sizes:
        if len(live) == lag:
            buf.free(live.pop(0))
        segment = buf.allocate(size)
        gaps_below = [gap for offset, gap in _gaps(live, capacity) if offset < segment.offset]
        live.append(segment)
        in_flight = sum(seg.size for seg in live)
        assert all(gap < size for gap in gaps_below)
        assert segment.end <= in_flight + sum(gaps_below)
        top, peak = max(top, segment.end), max(peak, in_flight)
    return top, peak


def _hifreq_extents():
    """The pool allocations of one checkpoint of the benchmark's
    ``hifreq_file`` state (64 MiB in 200 tensors): an int64 counter, then
    per layer two float32 weight matrices of 238,912 elements and four
    biases/norms of 7,584 (66 and 133 in all), back to back as
    ``build_header`` lays them out, cut at the 4 MiB extent bound."""
    nbytes = [8]
    for layer in range(34):
        nbytes += [238_912 * 4] * (2 if layer < 33 else 0)
        nbytes += [7_584 * 4] * min(4, 133 - 4 * layer)
    entries, offset = [], 0
    for index, size in enumerate(nbytes):
        entries.append(TensorEntry(key=f"t{index}", dtype="uint8", shape=(size,),
                                   offset=offset, nbytes=size))
        offset += size
    return [entries[stop - 1].offset + entries[stop - 1].nbytes - entries[start].offset
            for start, stop in plan_extents(entries, MAX_EXTENT_BYTES)]


def test_footprint_follows_the_bytes_in_flight():
    """Counted, no clock: where the pool's highest byte ends up when the
    flush lags the capture by ``k`` extents.

    Derivation.  Let extent ``s`` of ``n`` bytes be placed at offset ``o``,
    and ``I(s)`` be the live bytes just after, ``s`` included.  First fit
    puts ``s`` in the lowest gap that fits, so every gap below ``o`` is
    narrower than ``n``.  The bytes below ``o`` are live bytes or gap bytes,
    hence ``o + n <= I(s) + gaps_below(s) <= I(s) + g(s) * (n - 1)``, where
    ``g(s)`` counts the gaps below ``o``.  Each such gap ends where a live
    segment begins, so ``g(s) <= k - 1`` and the highest byte is at most
    ``peak + (k - 1) * (largest - 1)``.  With equal extents of ``e`` bytes,
    every offset is a multiple of ``e`` (first fit places at 0 or at a live
    segment's end), so a gap narrower than ``e`` is empty, ``g(s) = 0``, and
    every allocation ends at or below ``k * e``.

    The tighter ``peak + largest`` does not hold for ``hifreq_file``: its
    first extent carries the 8-byte counter, so it fits no slot another
    extent freed, and the 2 MiB tail extent leaves a hole narrower than any
    extent in the slot it reuses.  Over 60 checkpoints it holds at lags 1-5,
    8, 16 and 17; at lag 9 the highest byte sits 4 extents above the
    in-flight peak and at lag 20 five (the bound above allows 8 and 19).
    Still, at every lag up to 24 the highest byte stays more than one extent
    below the capacity (0.26-0.45 of it at lags 8-13, where the benchmark's
    pool peaks).  The FIFO ring this allocator replaced placed every extent
    at its head and wrapped only at the end: the same replay reached byte
    134,214,928 of the 135,263,504-byte pool (0.992) at every lag from 2 up,
    whatever the bytes in flight.
    """
    extents = _hifreq_extents()
    assert (len(extents), max(extents), sum(extents)) == (17, 4_065_288, 67_107_464)
    largest = max(extents)
    capacity = 2 * sum(extents) + (1 << 20)   # hifreq_file's host_buffer_size
    for lag in range(1, 25):
        top, peak = _replay(extents * 60, lag, capacity)
        assert top <= peak + (lag - 1) * (largest - 1)
        assert top < capacity - largest


@pytest.mark.parametrize("lag", [1, 2, 3, 8, 16, 31, 32])
def test_equal_extents_stay_within_lag_extents(lag):
    size = MAX_EXTENT_BYTES
    buf = CircularBufferManager(32 * size + 12345)
    live = []
    for _ in range(200):
        if len(live) == lag:
            buf.free(live.pop(0))
        segment = buf.allocate(size)
        assert segment.end <= lag * size
        live.append(segment)
