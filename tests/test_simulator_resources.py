"""Tests for Resource (counting semaphore) and FairShareLink (bandwidth sharing)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.simulator import Environment, FairShareLink, Resource


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    env.run()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.in_use == 2
    assert res.queue_length == 1


def test_resource_release_grants_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    env.run()
    assert not r2.triggered
    res.release(r1)
    env.run()
    assert r2.triggered


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    second = res.request()
    third = res.request()
    res.release(first)
    env.run()
    assert second.triggered and not third.triggered


def test_resource_rejects_foreign_request():
    env = Environment()
    res_a = Resource(env, capacity=1)
    res_b = Resource(env, capacity=1)
    req = res_a.request()
    with pytest.raises(SimulationError):
        res_b.release(req)


def test_resource_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_serializes_processes():
    env = Environment()
    res = Resource(env, capacity=1)
    spans = []

    def worker(name):
        req = res.request()
        yield req
        start = env.now
        yield env.timeout(2.0)
        spans.append((name, start, env.now))
        res.release(req)

    env.process(worker("a"))
    env.process(worker("b"))
    env.run()
    assert spans == [("a", 0.0, 2.0), ("b", 2.0, 4.0)]


# ---------------------------------------------------------------------------
# FairShareLink
# ---------------------------------------------------------------------------

def _run_transfer(env, link, nbytes, cap=None, start_delay=0.0):
    """Helper: run one transfer process and record (start, end)."""
    record = {}

    def proc():
        if start_delay:
            yield env.timeout(start_delay)
        record["start"] = env.now
        yield link.transfer(nbytes, cap=cap)
        record["end"] = env.now

    env.process(proc())
    return record


def test_single_flow_uses_full_capacity():
    env = Environment()
    link = FairShareLink(env, capacity=100.0)
    record = _run_transfer(env, link, 1000.0)
    env.run()
    assert record["end"] - record["start"] == pytest.approx(10.0)


def test_flow_cap_limits_rate():
    env = Environment()
    link = FairShareLink(env, capacity=100.0)
    record = _run_transfer(env, link, 1000.0, cap=10.0)
    env.run()
    assert record["end"] - record["start"] == pytest.approx(100.0)


def test_default_flow_cap_applies():
    env = Environment()
    link = FairShareLink(env, capacity=100.0, default_flow_cap=20.0)
    record = _run_transfer(env, link, 100.0)
    env.run()
    assert record["end"] - record["start"] == pytest.approx(5.0)


def test_two_equal_flows_share_fairly():
    env = Environment()
    link = FairShareLink(env, capacity=100.0)
    a = _run_transfer(env, link, 500.0)
    b = _run_transfer(env, link, 500.0)
    env.run()
    # Both run concurrently at 50 each -> 10 seconds.
    assert a["end"] == pytest.approx(10.0)
    assert b["end"] == pytest.approx(10.0)


def test_shorter_flow_finishes_then_longer_speeds_up():
    env = Environment()
    link = FairShareLink(env, capacity=100.0)
    short = _run_transfer(env, link, 200.0)
    long = _run_transfer(env, link, 600.0)
    env.run()
    # Shared 50/50 until the short one finishes at t=4 (200 bytes at 50 B/s);
    # the long one then has 400 bytes left at 100 B/s -> finishes at t=8.
    assert short["end"] == pytest.approx(4.0)
    assert long["end"] == pytest.approx(8.0)


def test_late_arrival_slows_existing_flow():
    env = Environment()
    link = FairShareLink(env, capacity=100.0)
    first = _run_transfer(env, link, 1000.0)
    second = _run_transfer(env, link, 500.0, start_delay=5.0)
    env.run()
    # First alone for 5 s (500 done), then sharing at 50 B/s.  Both have 500
    # left at t=5 -> second finishes at 15; first finishes at 15 as well.
    assert second["end"] == pytest.approx(15.0)
    assert first["end"] == pytest.approx(15.0)


def test_capped_flows_do_not_contend_below_capacity():
    env = Environment()
    link = FairShareLink(env, capacity=100.0)
    a = _run_transfer(env, link, 100.0, cap=10.0)
    b = _run_transfer(env, link, 100.0, cap=10.0)
    env.run()
    assert a["end"] == pytest.approx(10.0)
    assert b["end"] == pytest.approx(10.0)


def test_many_capped_flows_saturate_aggregate_capacity():
    env = Environment()
    link = FairShareLink(env, capacity=50.0)
    records = [_run_transfer(env, link, 100.0, cap=10.0) for _ in range(10)]
    env.run()
    # 10 flows x 10 B/s cap = 100 > 50 capacity, so each effectively gets 5.
    for record in records:
        assert record["end"] == pytest.approx(20.0)


def test_zero_byte_transfer_completes_instantly():
    env = Environment()
    link = FairShareLink(env, capacity=10.0)
    event = link.transfer(0)
    assert event.triggered


def test_negative_transfer_rejected():
    env = Environment()
    link = FairShareLink(env, capacity=10.0)
    with pytest.raises(SimulationError):
        link.transfer(-1)


def test_link_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(SimulationError):
        FairShareLink(env, capacity=0.0)


def test_bytes_transferred_accounting():
    env = Environment()
    link = FairShareLink(env, capacity=100.0)
    _run_transfer(env, link, 300.0)
    _run_transfer(env, link, 200.0)
    env.run()
    assert link.bytes_transferred == pytest.approx(500.0)


def test_sub_epsilon_residual_is_counted_as_transferred():
    """A flow retired with a float residue still delivers it, and a small
    residual is still a transfer: 2.0 + 2.00001 bytes count as 4.00001 and
    the second flow ends at 4.00001, not when the first one does."""
    env = Environment()
    link = FairShareLink(env, capacity=1.0)
    first = _run_transfer(env, link, 2.0)
    second = _run_transfer(env, link, 2.00001)
    env.run()
    assert link.bytes_transferred == pytest.approx(4.00001, rel=1e-9)
    assert first["end"] == pytest.approx(4.0, abs=1e-12)
    assert second["end"] == pytest.approx(4.00001, abs=1e-12)


def test_a_flow_terminates_where_the_clock_is_coarse():
    """At ``now`` = 1e9 the clock steps by ~1.2e-7 s: a residual that needs
    less than that is retired instead of re-arming a timer that fires at the
    same instant forever."""
    start = 1e9
    env = Environment(initial_time=start)
    link = FairShareLink(env, capacity=1.0)
    records = [_run_transfer(env, link, size) for size in (1.0, 1.0 + 1e-8, 3.0)]
    env.run(max_events=1000)
    assert [record["end"] - start for record in records] == pytest.approx(
        [3.0, 3.0, 5.0], abs=1e-6)
    assert link.active_flows == 0
    assert link.bytes_transferred == pytest.approx(5.0 + 1e-8, rel=1e-9)


def test_busy_time_and_utilization():
    env = Environment()
    link = FairShareLink(env, capacity=100.0)
    _run_transfer(env, link, 500.0)          # busy 0..5

    def idle_then_more():
        yield env.timeout(10.0)
        yield link.transfer(500.0)            # busy 10..15

    env.process(idle_then_more())
    env.run()
    assert link.busy_time == pytest.approx(10.0)
    assert link.utilization() == pytest.approx(10.0 / 15.0)


def test_estimate_duration_uncontended():
    env = Environment()
    link = FairShareLink(env, capacity=100.0, default_flow_cap=25.0)
    assert link.estimate_duration(100.0) == pytest.approx(4.0)
    assert link.estimate_duration(100.0, cap=50.0) == pytest.approx(2.0)


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8),
    capacity=st.floats(min_value=1.0, max_value=1e4),
)
@example(sizes=[2.0, 2.00001], capacity=1.0)
def test_property_all_bytes_delivered_and_capacity_respected(sizes, capacity):
    """All flows complete, total bytes are conserved, and the makespan is at
    least the work/capacity lower bound."""
    env = Environment()
    link = FairShareLink(env, capacity=capacity)
    records = [_run_transfer(env, link, size) for size in sizes]
    env.run()
    for record, size in zip(records, sizes):
        assert "end" in record
    total = sum(sizes)
    makespan = max(record["end"] for record in records)
    assert makespan >= total / capacity - 1e-6
    assert link.bytes_transferred == pytest.approx(total, rel=1e-6)
