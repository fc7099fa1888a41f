"""Tests for FairShareLink (bandwidth sharing)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.simulator import Environment, FairShareLink


# ---------------------------------------------------------------------------
# FairShareLink
# ---------------------------------------------------------------------------

def _run_transfer(env, link, nbytes, cap=None, start_delay=0.0):
    """Helper: run one transfer process and record (start, end) and its flow."""
    record = {}

    def proc():
        if start_delay:
            yield env.timeout(start_delay)
        record["start"] = env.now
        record["flow"] = yield link.transfer(nbytes, cap=cap)
        record["end"] = env.now

    env.process(proc())
    return record


def _delivered(records):
    """Bytes the finished flows of ``records`` delivered."""
    return sum(r["flow"].nbytes - r["flow"].remaining for r in records)


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


def test_a_link_idle_between_flows_serves_the_next_at_full_rate():
    env = Environment()
    link = FairShareLink(env, capacity=100.0)
    first = _run_transfer(env, link, 500.0)
    second = _run_transfer(env, link, 500.0, start_delay=10.0)
    env.run()
    assert first["end"] == pytest.approx(5.0)
    assert (second["start"], second["end"]) == pytest.approx((10.0, 15.0))
    assert _delivered([first, second]) == pytest.approx(1000.0)


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


def test_sub_epsilon_residual_is_counted_as_transferred():
    """A flow retired with a float residue still delivers it, and a small
    residual is still a transfer: 2.0 + 2.00001 bytes count as 4.00001 and
    the second flow ends at 4.00001, not when the first one does."""
    env = Environment()
    link = FairShareLink(env, capacity=1.0)
    first = _run_transfer(env, link, 2.0)
    second = _run_transfer(env, link, 2.00001)
    env.run()
    assert _delivered([first, second]) == pytest.approx(4.00001, rel=1e-9)
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
    assert all("end" in record for record in records)
    assert _delivered(records) == pytest.approx(5.0 + 1e-8, rel=1e-9)


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
    assert _delivered(records) == pytest.approx(total, rel=1e-6)
