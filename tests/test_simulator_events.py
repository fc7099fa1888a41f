"""Tests for the discrete-event engine: events, timeouts, processes, conditions."""

import pytest

from repro.exceptions import SimulationError
from repro.simulator import Environment


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_environment_custom_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(2.5)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [2.5]


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1.0, value="payload")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["payload"]


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        for _ in range(3):
            yield env.timeout(1.0)
            times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [1.0, 2.0, 3.0]


def test_two_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def slow():
        yield env.timeout(2.0)
        order.append("slow")

    def fast():
        yield env.timeout(1.0)
        order.append("fast")

    env.process(slow())
    env.process(fast())
    env.run()
    assert order == ["fast", "slow"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((env.now, value))

    def trigger():
        yield env.timeout(3.0)
        gate.succeed(42)

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == [(3.0, 42)]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_event_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_process_return_value_propagates():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return "result"

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == ["result"]


def test_finished_process_holds_its_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return 7

    process = env.process(proc())
    assert not process.triggered
    env.run()
    assert process.triggered and process.ok
    assert process.value == 7


def test_event_is_processed_once_its_callbacks_ran():
    env = Environment()
    gate = env.event()
    gate.succeed("done")
    assert gate.triggered and not gate.processed
    env.run()
    assert gate.processed
    assert gate.value == "done"


def test_process_exception_propagates_to_parent():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise ValueError("child failed")

    def parent(caught):
        try:
            yield env.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    caught = []
    env.process(parent(caught))
    env.run()
    assert caught == ["child failed"]


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_yielding_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 5  # not an Event

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_run_until_bound():
    env = Environment()

    def proc():
        yield env.timeout(10.0)

    env.process(proc())
    final = env.run(until=4.0)
    assert final == 4.0
    assert env.now == 4.0


def test_all_of_waits_for_every_event():
    env = Environment()
    completion = []

    def proc():
        yield env.all_of([env.timeout(1.0), env.timeout(3.0), env.timeout(2.0)])
        completion.append(env.now)

    env.process(proc())
    env.run()
    assert completion == [3.0]


def test_all_of_empty_completes_immediately():
    env = Environment()
    seen = []

    def proc():
        yield env.all_of([])
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [0.0]


def test_all_of_propagates_failure():
    env = Environment()
    gate = env.event()
    caught = []

    def proc():
        try:
            yield env.all_of([env.timeout(1.0), gate])
        except RuntimeError:
            caught.append(env.now)

    def trigger():
        yield env.timeout(2.0)
        gate.fail(RuntimeError("nope"))

    env.process(proc())
    env.process(trigger())
    env.run()
    assert caught == [2.0]


def test_waiting_on_already_processed_event_completes():
    env = Environment()
    gate = env.event()
    gate.succeed("early")
    seen = []

    def late_waiter():
        yield env.timeout(1.0)
        value = yield gate
        seen.append(value)

    env.process(late_waiter())
    env.run()
    assert seen == ["early"]


def test_step_on_empty_calendar_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(5.0)
    env.timeout(2.0)
    assert env.peek() == 2.0


def test_max_events_guard():
    env = Environment()

    def forever():
        while True:
            yield env.timeout(0.0)

    env.process(forever())
    with pytest.raises(SimulationError):
        env.run(max_events=100)
