"""A rank's failure fails the tag on every rank — nobody is left waiting.

Two ranks on threads share one :class:`TwoPhaseCommitCoordinator`; a thin
store double fails one call for shards named ``rank0*``.  Whatever the call
(a streamed write, a writer hand-out, a by-reference record, a capture) and
whichever engine, both ranks must come back from ``save`` + ``wait_all()``
— called **without** a timeout — within a few seconds: the failing rank with
:class:`CheckpointError`, the healthy one with :class:`ConsistencyError`
naming rank 0.  A hang is the failure, so every wait here is a bounded
``join`` followed by ``is_alive()``.
"""

import threading

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import (
    ENGINE_NAMES,
    TwoPhaseCommitCoordinator,
    create_real_engine,
    lazy_snapshot,
)
from repro.exceptions import CheckpointError, ConsistencyError
from repro.io import CASStore, FileStore
from repro.restart import (
    CheckpointLoader,
    RestoreSpec,
    elastic_topology,
    save_elastic_checkpoint,
)

#: How long both ranks get to come back; they need milliseconds.
JOIN_BOUND_S = 10.0

WORKER_PREFIXES = ("flush-r", "ts-write-r", "checkfreq-flush-r")


class _Rank0FailsStore:
    """Forwards to ``inner``; while armed, ``failing_call`` raises ``OSError``
    for shard names starting ``rank0``.  ``hidden`` capabilities read as
    absent, which steers an engine onto the call under test."""

    def __init__(self, inner, failing_call, hidden=()):
        self._inner = inner
        self._failing_call = failing_call
        self._hidden = hidden
        self.armed = True

    def __getattr__(self, name):
        if name in self._hidden:
            raise AttributeError(name)
        target = getattr(self._inner, name)
        if name != self._failing_call:
            return target

        def call(tag, shard_name, *args, **kwargs):
            if self.armed and shard_name.startswith("rank0"):
                raise OSError(f"injected: {name} of {tag}/{shard_name}")
            return target(tag, shard_name, *args, **kwargs)

        return call


def _state(rank, seed=0, size=256):
    rng = np.random.default_rng(100 * seed + rank)
    return {"model": {"w": rng.normal(size=(size, 4)), "b": rng.normal(size=size)},
            "optimizer": {"m": rng.normal(size=size), "step": seed}}


def _engines(engine_name, store, **policy):
    coordinator = TwoPhaseCommitCoordinator(2, store)
    policy = CheckpointPolicy(host_buffer_size=8 << 20, **policy)
    return [create_real_engine(engine_name, store, rank=rank, world_size=2,
                               coordinator=coordinator, policy=policy)
            for rank in range(2)]


def _run_bounded(targets):
    """Run each callable on its own thread; every one must return in time.
    Returns what each returned or raised."""
    outcomes = [None] * len(targets)

    def run(slot):
        try:
            outcomes[slot] = targets[slot]()
        except BaseException as exc:  # noqa: BLE001 - the outcome under test
            outcomes[slot] = exc

    threads = [threading.Thread(target=run, args=(slot,), daemon=True)
               for slot in range(len(targets))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_BOUND_S)
    hung = [slot for slot, thread in enumerate(threads) if thread.is_alive()]
    assert not hung, f"thread(s) {hung} still blocked after {JOIN_BOUND_S} s"
    return outcomes


def _save_round(engines, states, tag, iteration=0):
    """``save`` + ``wait_all()`` (no timeout) of ``tag`` on both ranks at once."""
    def rank_round(rank):
        def target():
            engines[rank].save(states[rank], tag=tag, iteration=iteration)
            engines[rank].wait_all()
            return "committed"
        return target

    coordinator = engines[0].coordinator
    try:
        return _run_bounded([rank_round(rank) for rank in range(2)])
    finally:
        # Releases a rank left hanging, so a failing run does not also leak
        # its blocked thread.
        if tag not in coordinator.store.list_committed_checkpoints():
            coordinator.fail(tag, 0, "test teardown")


def _assert_failed_loudly_everywhere(outcomes, store, tag):
    failing, healthy = outcomes
    assert isinstance(failing, CheckpointError), failing
    assert isinstance(healthy, ConsistencyError), healthy
    assert "rank 0" in str(healthy)
    assert tag not in store.list_committed_checkpoints()


def _assert_next_tag_commits(engines, store, tag, seed):
    """The failed tag is spent; the same engines commit the next one."""
    states = [_state(rank, seed=seed) for rank in range(2)]
    coordinator = engines[0].coordinator

    def rank_round(rank):
        def target():
            # Not wait_all(): by design that resurfaces the earlier failure.
            handle = engines[rank].save(states[rank], tag=tag, iteration=seed)
            handle.wait_durable(timeout=JOIN_BOUND_S)
            return coordinator.wait_committed(tag, timeout=JOIN_BOUND_S)
        return target

    assert _run_bounded([rank_round(rank) for rank in range(2)]) == [True, True]
    loader = CheckpointLoader(store)
    for rank in range(2):
        restored = loader.restore(RestoreSpec.of_rank(rank, tag=tag))
        for group in ("model", "optimizer"):
            for key, want in states[rank][group].items():
                np.testing.assert_array_equal(restored[group][key], want)


def _shutdown_leaves_no_worker(engines, before):
    for engine in engines:
        engine.shutdown()
    left = [thread.name for thread in threading.enumerate()
            if thread not in before and thread.name.startswith(WORKER_PREFIXES)]
    assert left == []


#: (engine, failing call): ``write_shard`` with the writer capability hidden
#: (so every engine streams), ``create_shard_writer`` for the two engines
#: that ask for writers.
WRITE_CASES = [(name, "write_shard") for name in ENGINE_NAMES] + [
    ("torchsnapshot", "create_shard_writer"),
    ("datastates", "create_shard_writer"),
]


@pytest.mark.parametrize("engine_name, failing_call", WRITE_CASES)
def test_failed_write_on_one_rank_ends_loudly_on_both(engine_name, failing_call,
                                                      tmp_path):
    before = set(threading.enumerate())
    hidden = ("create_shard_writer",) if failing_call == "write_shard" else ()
    store = _Rank0FailsStore(FileStore(tmp_path), failing_call, hidden=hidden)
    engines = _engines(engine_name, store)
    try:
        outcomes = _save_round(engines, [_state(0), _state(1)], "t1")
        _assert_failed_loudly_everywhere(outcomes, store, "t1")
        store.armed = False
        _assert_next_tag_commits(engines, store, "t2", seed=2)
    finally:
        _shutdown_leaves_no_worker(engines, before)


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_failed_reference_on_one_rank_ends_loudly_on_both(engine_name, tmp_path):
    """Incremental save on CAS: nothing changed since the base checkpoint, so
    every part is recorded by reference — and rank 0's record call fails."""
    before = set(threading.enumerate())
    store = _Rank0FailsStore(CASStore(FileStore(tmp_path)),
                             "record_shard_reference")
    engines = _engines(engine_name, store, incremental=True)
    states = [_state(0), _state(1)]
    try:
        assert _save_round(engines, states, "base") == ["committed"] * 2
        outcomes = _save_round(engines, states, "t1", iteration=1)
        _assert_failed_loudly_everywhere(outcomes, store, "t1")
        store.armed = False
        _assert_next_tag_commits(engines, store, "t2", seed=2)
        assert engines[0].stats()["parts_referenced"] == 0
        assert engines[1].stats()["parts_referenced"] == 1
    finally:
        _shutdown_leaves_no_worker(engines, before)


def test_dead_capture_on_one_rank_ends_loudly_on_both(tmp_path, monkeypatch):
    """``datastates`` captures off-thread: a copy that dies there must reach
    the coordinator just like a failed write."""
    before = set(threading.enumerate())
    store = FileStore(tmp_path)
    engines = _engines("datastates", store)
    states = [_state(0), _state(1)]
    poisoned = states[0]["model"]["b"]
    real = lazy_snapshot.tensor_payload_array

    def dying(ref):
        if ref.payload is poisoned:
            raise RuntimeError("device lost")
        return real(ref)

    monkeypatch.setattr(lazy_snapshot, "tensor_payload_array", dying)
    try:
        outcomes = _save_round(engines, states, "t1")
        _assert_failed_loudly_everywhere(outcomes, store, "t1")
        monkeypatch.undo()
        _assert_next_tag_commits(engines, store, "t2", seed=2)
        assert all(engine.pool.used_bytes == 0 for engine in engines)
    finally:
        _shutdown_leaves_no_worker(engines, before)


@pytest.mark.parametrize("engine_name", ["deepspeed", "torchsnapshot", "datastates"])
def test_save_elastic_checkpoint_raises_instead_of_hanging(engine_name, tmp_path):
    rng = np.random.default_rng(7)
    model = {"w1": rng.standard_normal((16, 24)).astype(np.float32),
             "bias": rng.standard_normal((16,)).astype(np.float32)}
    topology = elastic_topology(model, data_parallel=1, tensor_parallel=2,
                                axes={"w1": 1})
    store = _Rank0FailsStore(FileStore(tmp_path), "write_shard",
                             hidden=("create_shard_writer",))

    def target():
        save_elastic_checkpoint(store, {"model": model}, topology, tag="t1",
                                engine=engine_name)

    (outcome,) = _run_bounded([target])
    assert isinstance(outcome, CheckpointError), outcome
    assert store.list_committed_checkpoints() == []
