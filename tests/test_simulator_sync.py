"""Tests for Barrier, SimHostBuffer, consensus latency, and the trace recorder."""

import pytest

from repro.exceptions import CapacityError, SimulationError
from repro.simulator import Barrier, Environment, SimHostBuffer, TraceRecorder, consensus_latency


# ---------------------------------------------------------------------------
# Barrier
# ---------------------------------------------------------------------------

def test_barrier_releases_all_parties_together():
    env = Environment()
    barrier = Barrier(env, parties=3)
    release_times = []

    def party(delay):
        yield env.timeout(delay)
        yield barrier.wait()
        release_times.append(env.now)

    for delay in (1.0, 2.0, 5.0):
        env.process(party(delay))
    env.run()
    assert release_times == [5.0, 5.0, 5.0]


def test_barrier_is_reusable_across_generations():
    env = Environment()
    barrier = Barrier(env, parties=2)
    releases = []

    def party(name):
        for _ in range(3):
            yield env.timeout(1.0)
            yield barrier.wait()
            releases.append((name, env.now))

    env.process(party("a"))
    env.process(party("b"))
    env.run()
    assert len(releases) == 6
    assert {t for _n, t in releases} == {1.0, 2.0, 3.0}


def test_barrier_single_party_never_blocks():
    env = Environment()
    barrier = Barrier(env, parties=1)
    times = []

    def party():
        yield barrier.wait()
        times.append(env.now)

    env.process(party())
    env.run()
    assert times == [0.0]


def test_barrier_requires_positive_parties():
    env = Environment()
    with pytest.raises(SimulationError):
        Barrier(env, parties=0)


# ---------------------------------------------------------------------------
# SimHostBuffer
# ---------------------------------------------------------------------------

def test_host_buffer_reserve_and_release():
    env = Environment()
    buf = SimHostBuffer(env, capacity=100)
    assert not list(buf.reserve(60))  # granted without waiting
    assert buf.used == 60
    assert buf.free == 40
    buf.release(60)
    assert buf.used == 0


def test_host_buffer_blocks_until_space_released():
    env = Environment()
    buf = SimHostBuffer(env, capacity=100)
    times = []

    def producer():
        yield from buf.reserve(80)
        times.append(("first", env.now))
        yield from buf.reserve(80)     # must wait for the release at t=5
        times.append(("second", env.now))

    def consumer():
        yield env.timeout(5.0)
        buf.release(80)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [("first", 0.0), ("second", 5.0)]


def test_host_buffer_fifo_waiters():
    env = Environment()
    buf = SimHostBuffer(env, capacity=100)
    order = []

    def claim(name, amount, delay):
        yield env.timeout(delay)
        yield from buf.reserve(amount)
        order.append(name)

    def release_later():
        yield env.timeout(10.0)
        buf.release(100)

    assert not list(buf.reserve(100))  # granted without waiting
    env.process(claim("first", 30, 1.0))
    env.process(claim("second", 30, 2.0))
    env.process(release_later())
    env.run()
    assert order == ["first", "second"]


def test_host_buffer_oversized_reservation_rejected():
    env = Environment()
    buf = SimHostBuffer(env, capacity=10)
    with pytest.raises(CapacityError):
        list(buf.reserve(11))


def test_host_buffer_over_release_rejected():
    env = Environment()
    buf = SimHostBuffer(env, capacity=10)
    with pytest.raises(CapacityError):
        buf.release(1)


def test_host_buffer_peak_tracking():
    env = Environment()
    buf = SimHostBuffer(env, capacity=100)
    list(buf.reserve(40))
    list(buf.reserve(50))
    buf.release(50)
    assert buf.peak_used == 90


def test_host_buffer_reserve_does_not_jump_queued_waiters():
    """A small reservation that would fit queues behind an earlier waiter
    that does not: FIFO order, no barging."""
    env = Environment()
    buf = SimHostBuffer(env, capacity=100)
    assert not list(buf.reserve(90))  # granted without waiting
    granted = []

    def claim(label, nbytes, delay):
        yield env.timeout(delay)
        yield from buf.reserve(nbytes)
        granted.append((label, env.now))

    def release_later():
        yield env.timeout(5.0)
        buf.release(90)

    env.process(claim("large", 50, 1.0))
    env.process(claim("small", 5, 2.0))
    env.process(release_later())
    env.run()
    assert granted == [("large", 5.0), ("small", 5.0)]
    assert buf.used == 55


# ---------------------------------------------------------------------------
# consensus latency
# ---------------------------------------------------------------------------

def test_consensus_latency_single_node():
    assert consensus_latency(4, 4, 10e-6) == pytest.approx(2 * 10e-6)


def test_consensus_latency_grows_logarithmically_with_nodes():
    lat_small = consensus_latency(8, 4, 10e-6)     # 2 nodes -> 1 hop
    lat_large = consensus_latency(512, 4, 10e-6)   # 128 nodes -> 7 hops
    assert lat_large > lat_small
    assert lat_large == pytest.approx(2 * 7 * 10e-6)


def test_consensus_latency_validates_inputs():
    with pytest.raises(SimulationError):
        consensus_latency(0, 4, 1e-6)
    with pytest.raises(SimulationError):
        consensus_latency(4, 0, 1e-6)


# ---------------------------------------------------------------------------
# TraceRecorder
# ---------------------------------------------------------------------------

def test_trace_records_spans_and_counters():
    trace = TraceRecorder()
    trace.record_span("rank0", "d2h", 0.0, 1.5, "layer1")
    trace.record_span("rank0", "flush", 1.0, 4.0)
    trace.record_span("rank1", "d2h", 0.0, 2.0)
    trace.add_counter("checkpoints", 1)
    trace.add_counter("checkpoints", 1)
    assert trace.total_time(actor="rank0") == pytest.approx(4.5)
    assert trace.total_time(category="d2h") == pytest.approx(3.5)
    assert trace.counter("checkpoints") == 2
    assert set(trace.actors()) == {"rank0", "rank1"}
    assert set(trace.categories()) == {"d2h", "flush"}


def test_trace_span_duration_is_its_length():
    span = TraceRecorder().record_span("rank0", "flush", 1.25, 4.0, "layer2")
    assert span.duration == pytest.approx(2.75)
    assert (span.actor, span.category, span.label) == ("rank0", "flush", "layer2")


def test_trace_span_rejects_negative_duration():
    trace = TraceRecorder()
    with pytest.raises(ValueError):
        trace.record_span("a", "x", 2.0, 1.0)


def test_trace_busy_intervals_merge_overlaps():
    trace = TraceRecorder()
    trace.record_span("rank0", "flush", 0.0, 2.0)
    trace.record_span("rank0", "flush", 1.0, 3.0)
    trace.record_span("rank0", "flush", 5.0, 6.0)
    assert trace.busy_intervals("rank0") == [(0.0, 3.0), (5.0, 6.0)]


def test_trace_merge_combines_recorders():
    a = TraceRecorder()
    b = TraceRecorder()
    a.record_span("r", "x", 0, 1)
    b.record_span("r", "x", 1, 2)
    a.add_counter("n", 1)
    b.add_counter("n", 2)
    a.merge(b)
    assert len(a.spans) == 2
    assert a.counter("n") == 3


def test_trace_spans_for_filters_by_actor_and_category():
    trace = TraceRecorder()
    first = trace.record_span("rank0", "d2h", 0.0, 1.0)
    second = trace.record_span("rank0", "flush", 1.0, 2.0)
    third = trace.record_span("rank1", "d2h", 0.0, 3.0)
    assert trace.spans_for(actor="rank0") == [first, second]
    assert trace.spans_for(category="d2h") == [first, third]
    assert trace.spans_for(actor="rank1", category="flush") == []
    assert trace.spans_for() == [first, second, third]
