"""Lifecycle of the engines' background workers (stdlib executors): what is
left behind after ``shutdown``, what a save pins, when a flush job reports
done, how a failed parallel write unwinds, and what happens to queued flushes
when the process exits without ``shutdown``."""

import gc
import os
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import (
    ENGINE_NAMES,
    CheckpointHandle,
    TwoPhaseCommitCoordinator,
    create_real_engine,
)
from repro.exceptions import CheckpointError
from repro.io import FileStore
from repro.restart import CheckpointLoader, RestoreSpec

_WORKER_PREFIXES = ("flush-r", "ts-write-r", "checkfreq-flush-r")


def _state(seed=0, size=2048):
    rng = np.random.default_rng(seed)
    return {"model": {"w": rng.normal(size=size), "b": rng.normal(size=size)},
            "iteration": seed}


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _new_workers(before):
    return [thread.name for thread in threading.enumerate()
            if thread not in before and thread.name.startswith(_WORKER_PREFIXES)]


def _poll(condition, timeout=30.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class _GatedFileStore(FileStore):
    """Shard writes block until the test opens the gate (a flush in flight)."""

    def __init__(self, root):
        super().__init__(root)
        self.gate = threading.Event()
        self.reached = threading.Event()

    def write_shard(self, tag, shard_name, chunks):
        self.reached.set()
        self.gate.wait(timeout=30.0)
        return super().write_shard(tag, shard_name, chunks)

    def create_shard_writer(self, tag, shard_name, total_bytes):
        self.reached.set()
        self.gate.wait(timeout=30.0)
        return super().create_shard_writer(tag, shard_name, total_bytes)


# ---------------------------------------------------------------------------
# Nothing is left behind after shutdown
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_shutdown_leaves_no_worker_thread_fd_or_pool_byte(engine_name, tmp_path):
    before, fds = set(threading.enumerate()), _open_fds()
    engine = create_real_engine(
        engine_name, FileStore(tmp_path),
        policy=CheckpointPolicy(host_buffer_size=4 << 20, shards_per_rank=2))
    for index in range(3):
        engine.save(_state(seed=index), tag=f"ckpt-{index}", iteration=index)
        engine.wait_for_snapshot()
    engine.shutdown(wait=True)
    assert _new_workers(before) == []
    assert _open_fds() <= fds
    if hasattr(engine, "pool"):
        assert engine.pool.used_bytes == 0
    assert engine.list_checkpoints() == ["ckpt-0", "ckpt-1", "ckpt-2"]


@pytest.mark.parametrize("engine_name", ["datastates", "async"])
def test_shutdown_without_wait_lets_the_inflight_flush_finish(engine_name, tmp_path):
    """``wait=False`` skips the drain, it does not cancel: the flush in
    flight retires on its own, frees what it staged, and its checkpoint is
    either whole or absent."""
    before, fds = set(threading.enumerate()), _open_fds()
    store = _GatedFileStore(tmp_path)
    engine = create_real_engine(engine_name, store, host_buffer_size=4 << 20)
    state = _state(seed=7)
    engine.save(state, tag="inflight", iteration=7)
    assert store.reached.wait(timeout=30.0)
    engine.shutdown(wait=False)          # returns with the flush still gated
    assert _new_workers(before) != []
    store.gate.set()
    assert _poll(lambda: not _new_workers(before))
    assert _poll(lambda: _open_fds() <= fds)
    if hasattr(engine, "pool"):
        assert engine.pool.used_bytes == 0
    assert store.list_checkpoints() == store.list_committed_checkpoints()
    for tag in store.list_committed_checkpoints():
        restored = CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag=tag))
        np.testing.assert_array_equal(restored["model"]["w"], state["model"]["w"])


# ---------------------------------------------------------------------------
# A flush job is done only after its vote
# ---------------------------------------------------------------------------

class _HeldVoteCoordinator(TwoPhaseCommitCoordinator):
    """Holds each vote until released and records the order of events."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.order = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def vote(self, tag, rank, records, iteration=-1):
        self.entered.set()
        self.release.wait(timeout=30.0)
        super().vote(tag, rank, records, iteration=iteration)
        self.order.append("voted")


def test_flush_job_wait_never_returns_before_the_vote(tmp_path):
    store = FileStore(tmp_path)
    coordinator = _HeldVoteCoordinator(1, store)
    engine = create_real_engine("datastates", store, coordinator=coordinator,
                                host_buffer_size=4 << 20)
    try:
        handle = engine.save(_state(), tag="ckpt", iteration=0)
        assert coordinator.entered.wait(timeout=30.0)
        # The shard is durable and the vote is being cast: not done yet.
        assert (tmp_path / "ckpt" / "rank0.shard").exists()
        assert not handle.settled.is_set()
        with pytest.raises(CheckpointError, match="timed out"):
            handle.wait_durable(timeout=0.05)
        coordinator.release.set()
        handle.wait_durable(timeout=30.0)
        coordinator.order.append("woken")
        assert coordinator.order == ["voted", "woken"]
    finally:
        coordinator.release.set()
        engine.shutdown(wait=True)


class _RecordingCoordinator(TwoPhaseCommitCoordinator):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.votes = []

    def vote(self, tag, rank, records, iteration=-1):
        self.votes.append((tag, list(records)))


def test_parts_reporting_at_once_cast_exactly_one_vote(tmp_path):
    """Sixteen parts report in from sixteen threads released together, with
    the interpreter switching threads as often as it can: one vote per
    request, carrying every record in plan order, and a settled handle."""
    store = FileStore(tmp_path)
    coordinator = _RecordingCoordinator(1, store)
    engine = create_real_engine("datastates", store, coordinator=coordinator,
                                host_buffer_size=1 << 20)
    parts, rounds = 16, 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_index in range(rounds):
            handle = CheckpointHandle(engine, f"t{round_index}", "rank0",
                                      round_index, parts)
            barrier = threading.Barrier(parts)

            def report(index):
                barrier.wait(timeout=30.0)
                handle.part_done(index, f"record-{index}", f"result-{index}")

            threads = [threading.Thread(target=report, args=(index,), daemon=True)
                       for index in range(parts)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert handle.settled.is_set() and handle.error is None
    finally:
        sys.setswitchinterval(interval)
        engine.shutdown(wait=False)
    records = [f"record-{index}" for index in range(parts)]
    assert coordinator.votes == [(f"t{index}", records) for index in range(rounds)]


# ---------------------------------------------------------------------------
# A save pins nothing once it has retired
# ---------------------------------------------------------------------------

def test_retired_saves_do_not_pin_their_arrays(tmp_path):
    """Five drained saves of a fresh array each: a retired flush job leaves
    the pipeline, a finished capture drops its tensor references and the plan
    cache keeps none, so no drained state is referenced — not even the
    newest, whose handle stays listed until the next save."""
    refs = []
    gc.disable()
    try:
        with create_real_engine("datastates", FileStore(tmp_path),
                                host_buffer_size=8 << 20) as engine:
            for index in range(5):
                array = np.full(1 << 16, index, dtype=np.float64)
                refs.append(weakref.ref(array))
                engine.save({"w": array}, tag=f"ckpt-{index}", iteration=index)
                engine.wait_all()
                del array
            assert [ref() is None for ref in refs] == [True] * 5
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# A failed parallel write unwinds completely
# ---------------------------------------------------------------------------

class _FailingWriterStore(FileStore):
    """The ``fail_at``-th payload pwrite of part ``rank0-s00`` fails; every
    writer logs its pwrite retirements and its abort."""

    def __init__(self, root, fail_at):
        super().__init__(root)
        self.fail_at = fail_at
        self.armed = True
        self.events = []

    def create_shard_writer(self, tag, shard_name, total_bytes):
        writer = super().create_shard_writer(tag, shard_name, total_bytes)
        store, real_pwrite, real_abort = self, writer.pwrite, writer.abort
        payload_writes = [0]

        def pwrite(offset, data):
            try:
                if offset and store.armed and shard_name == "rank0-s00":
                    payload_writes[0] += 1
                    if payload_writes[0] == store.fail_at:
                        raise OSError("injected pwrite failure")
                    time.sleep(0.002)   # keep later writes in flight
                return real_pwrite(offset, data)
            finally:
                store.events.append("pwrite-retired")

        def abort():
            store.events.append("abort")
            real_abort()

        writer.pwrite, writer.abort = pwrite, abort
        return writer


def test_torchsnapshot_failed_pwrite_aborts_every_part_and_engine_survives(tmp_path):
    store = _FailingWriterStore(tmp_path, fail_at=2)
    state = {f"t{index}": np.full(4096, index, dtype=np.float64)
             for index in range(12)}
    engine = create_real_engine(
        "torchsnapshot", store,
        policy=CheckpointPolicy(host_buffer_size=4 << 20, shards_per_rank=3,
                                flush_threads=4))
    try:
        with pytest.raises(CheckpointError, match="injected pwrite failure"):
            engine.save(state, tag="doomed", iteration=0)
        # Every submitted pwrite retired (or never started) before the first
        # abort closed a file descriptor, and every part was aborted.
        first_abort = store.events.index("abort")
        assert "pwrite-retired" not in store.events[first_abort:]
        assert store.events.count("abort") == 3
        leftovers = [path.name for path in (tmp_path / "doomed").iterdir()] \
            if (tmp_path / "doomed").exists() else []
        assert leftovers == []
        assert store.list_committed_checkpoints() == []
        # The engine takes the next save.
        store.armed = False
        engine.save(state, tag="next", iteration=1)
        restored = engine.load(RestoreSpec(tag="next"))
        for key, array in state.items():
            np.testing.assert_array_equal(restored[key], array)
    finally:
        engine.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Exiting without shutdown finishes the queued flushes
# ---------------------------------------------------------------------------

def test_exit_without_shutdown_finishes_queued_flushes(tmp_path):
    """Executor threads are joined at interpreter exit: a process that saves
    and simply returns leaves a committed, bit-identical checkpoint."""
    script = textwrap.dedent("""
        import sys
        import time
        import numpy as np
        from repro.core import create_real_engine
        from repro.io import FileStore

        class SlowStore(FileStore):
            def create_shard_writer(self, *args):
                time.sleep(0.3)  # still flushing when the main thread returns
                return super().create_shard_writer(*args)

        engine = create_real_engine("datastates", SlowStore(sys.argv[1]),
                                    host_buffer_size=64 << 20)
        state = {"w": np.arange(1 << 21, dtype=np.float64), "iteration": 3}
        engine.save(state, tag="last", iteration=3)
        engine.wait_for_snapshot()
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    store = FileStore(tmp_path)
    assert store.list_committed_checkpoints() == ["last"]
    restored = CheckpointLoader(store).restore(RestoreSpec.of_rank(0, tag="last"))
    np.testing.assert_array_equal(restored["w"], np.arange(1 << 21, dtype=np.float64))
    assert restored["iteration"] == 3
