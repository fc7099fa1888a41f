"""Chaos conformance: every engine × store survives injected faults safely.

The contract under test is the strongest one the checkpointing stack makes:
under torn writes, transient and persistent I/O errors, store outages, and
process kills between shard-commit and manifest-publish, a run must either

* restore a **bit-identical** earlier checkpoint, or
* raise :class:`~repro.exceptions.CheckpointError` /
  :class:`~repro.exceptions.ConsistencyError`,

and **never** silently return corrupted state.  The suite sweeps all four
engines × all three canonical store backends × five fault scenarios, driving
each configuration through a burst of checkpoints against a seeded
:class:`~repro.io.FaultPlan` and then validating every checkpoint the store
claims is committed against the exact state that was saved under its tag.

Reproducing a failure
---------------------
Every injected fault sequence is deterministic in its seed.  The per-config
seed derives from the suite seed (``REPRO_CHAOS_SEED`` env var, default
1337), is printed in every failure message, and the failing
:class:`~repro.io.FaultPlan` is dumped as JSON under
``REPRO_CHAOS_ARTIFACT_DIR`` (default ``chaos-artifacts/``) — rerun with
``REPRO_CHAOS_SEED=<seed>`` to replay the identical faults.
"""

import os
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import ENGINE_NAMES, TwoPhaseCommitCoordinator, create_real_engine
from repro.exceptions import CheckpointError, ConsistencyError, RestartError
from repro.io import (
    STORE_NAMES,
    CASStore,
    FaultPlan,
    FaultyStore,
    FileStore,
    ObjectStore,
    TierChain,
    TierLevel,
)
from repro.restart import CheckpointLoader, RestoreSpec

#: Suite-level seed: fixed in PR CI, rotated nightly (see ci.yml).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1337"))

#: Where a failing configuration's FaultPlan is dumped for reproduction.
ARTIFACT_DIR = Path(os.environ.get("REPRO_CHAOS_ARTIFACT_DIR", "chaos-artifacts"))

#: Checkpoints attempted per configuration.
ROUNDS = 6

#: scenario name -> FaultPlan field overrides (seed is filled in per config).
SCENARIOS = {
    "torn_write": dict(torn_write_prob=0.5, torn_write_keep_fraction=0.5),
    "transient_errors": dict(write_error_prob=0.5, max_failures_per_op=1),
    "persistent_errors": dict(write_error_prob=0.35),
    "outage": dict(outage_start_op=4, outage_ops=6),
    "kill_commit": dict(kill_on_manifest=2),
}

pytestmark = pytest.mark.parametrize("engine_name", ENGINE_NAMES)


@pytest.fixture(params=STORE_NAMES)
def store_backend(request):
    return request.param


@pytest.fixture(params=sorted(SCENARIOS))
def scenario(request):
    return request.param


def config_seed(engine_name: str, store_backend: str, scenario: str) -> int:
    """Per-config seed, deterministic in the suite seed and the config name."""
    label = f"{CHAOS_SEED}:{engine_name}:{store_backend}:{scenario}"
    return zlib.crc32(label.encode("utf-8"))


def _state(seed: int, size: int = 96):
    rng = np.random.default_rng(seed)
    return {"model": {"w": rng.normal(size=(size, 2)), "b": rng.normal(size=size)},
            "optimizer": {"m": rng.normal(size=size), "step": seed}}


def _build_store(store_backend: str, plan: FaultPlan, tmp_path: Path):
    """A faulted store plus the clean view the oracle validates through.

    ``file``/``object`` wrap the whole backend.  ``cas`` wraps the **inner
    chunk pool**: every chunk upload, refcount-index write, and manifest
    publish passes the fault filter, and the oracle validates through a
    fresh CAS view over the same (clean) pool directory.  ``tiered`` wraps
    the **slow tier**: the fault surface that matters there is the
    background drain (outages and flaky writes mid-drain exercise the retry
    machinery), while the fast tier keeps serving nearest-tier restores.
    The clean view of a tiered store is the tiered store itself with
    injection suspended — its restore path picks the nearest intact tier,
    which is exactly what a restart would do.
    """
    if store_backend == "file":
        store = FaultyStore(FileStore(tmp_path / "shards"), plan)
        return store, store.inner, store
    if store_backend == "object":
        store = FaultyStore(ObjectStore(), plan)
        return store, store.inner, store
    if store_backend == "cas":
        faulty_inner = FaultyStore(FileStore(tmp_path / "pool"), plan)
        # Small chunks so even the test-sized shards span several chunks and
        # the reassembly path is genuinely exercised under faults.
        store = CASStore(faulty_inner, chunk_bytes=4096)
        clean_view = CASStore(FileStore(tmp_path / "pool"))
        return store, clean_view, faulty_inner
    assert store_backend == "tiered"
    slow = FaultyStore(ObjectStore(), plan)
    store = TierChain([TierLevel(FileStore(tmp_path / "fast"), name="fast"),
                       TierLevel(slow, name="slow")], drain_backoff_s=0.01)
    return store, store, slow


def _dump_artifact(plan: FaultPlan, engine_name: str, store_backend: str,
                   scenario: str) -> Path:
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / (f"faultplan-{engine_name}-{store_backend}-"
                           f"{scenario}-seed{plan.seed}.json")
    path.write_text(plan.to_json() + "\n", encoding="utf-8")
    return path


def _check_oracle(plan: FaultPlan, clean_view, faulty, expected, engine_name: str,
                  store_backend: str, scenario: str) -> None:
    """With injection suspended, every checkpoint the store claims is
    committed must restore bit-identically to the states saved under its tag
    (``expected[tag]``: one state per rank), or refuse loudly.  Anything else
    is silent corruption."""
    repro_hint = (f"[chaos seed {CHAOS_SEED}, config seed {plan.seed}: "
                  f"{engine_name} × {store_backend} × {scenario}]")
    with faulty.suspend():
        committed = clean_view.list_committed_checkpoints()
        loader = CheckpointLoader(clean_view)
        validated = 0
        for tag in committed:
            if tag not in expected:
                _dump_artifact(plan, engine_name, store_backend, scenario)
                pytest.fail(f"store invented checkpoint {tag!r} {repro_hint}")
            try:
                restored = loader.restore(RestoreSpec.full(tag=tag))
            except (CheckpointError, ConsistencyError):
                continue  # detected damage: the sanctioned outcome
            same = len(restored) == len(expected[tag]) and all(
                np.array_equal(restored[rank]["model"]["w"], want["model"]["w"])
                and np.array_equal(restored[rank]["model"]["b"], want["model"]["b"])
                and np.array_equal(restored[rank]["optimizer"]["m"],
                                   want["optimizer"]["m"])
                for rank, want in enumerate(expected[tag]))
            if not same:
                artifact = _dump_artifact(plan, engine_name, store_backend, scenario)
                pytest.fail(
                    f"checkpoint {tag!r} restored with silently corrupted "
                    f"state {repro_hint}; fault plan dumped to {artifact}")
            validated += 1

    # The suite must exercise both sides of the contract across the sweep;
    # an individual config may legitimately commit nothing (persistent
    # errors) or everything (faults only in the slow tier), so this only
    # pins the sanity of the harness itself.
    assert len(committed) <= ROUNDS
    assert validated <= len(committed)


def test_chaos_never_silently_corrupts(engine_name, store_backend, scenario,
                                       tmp_path):
    seed = config_seed(engine_name, store_backend, scenario)
    plan = FaultPlan(seed=seed, **SCENARIOS[scenario])
    store, clean_view, faulty = _build_store(store_backend, plan, tmp_path)
    repro_hint = (f"[chaos seed {CHAOS_SEED}, config seed {seed}: "
                  f"{engine_name} × {store_backend} × {scenario}]")

    expected = {}
    engine = create_real_engine(engine_name, store,
                                policy=CheckpointPolicy(host_buffer_size=8 << 20))
    try:
        for round_index in range(ROUNDS):
            tag = f"ckpt-{round_index:03d}"
            state = _state(seed=round_index)
            expected[tag] = [state]
            try:
                engine.save(state, tag=tag, iteration=round_index)
                engine.wait_all(timeout=30.0)
            except (CheckpointError, ConsistencyError):
                continue  # loud failure: the sanctioned outcome
            except OSError as exc:
                _dump_artifact(plan, engine_name, store_backend, scenario)
                pytest.fail(f"raw OSError escaped the engine {repro_hint}: {exc}")
        if callable(getattr(store, "wait_drained", None)):
            try:
                store.wait_drained(timeout=30.0)
            except (CheckpointError, ConsistencyError):
                pass  # failed drains surface loudly; fast tier still serves
    finally:
        try:
            engine.shutdown(wait=False)
        except (CheckpointError, ConsistencyError):
            pass

    _check_oracle(plan, clean_view, faulty, expected,
                  engine_name, store_backend, scenario)


#: A two-rank round — or the final drain — that takes longer than this hung.
ROUND_BOUND_S = 30.0


def _join_bounded(threads, what: str) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(ROUND_BOUND_S)
    hung = [thread.name for thread in threads if thread.is_alive()]
    assert not hung, f"{what}: {hung} still blocked after {ROUND_BOUND_S} s"


@pytest.mark.parametrize("scenario", ["transient_errors", "persistent_errors",
                                      "outage", "kill_commit"])
def test_chaos_two_ranks_never_hang_or_corrupt(engine_name, scenario, tmp_path):
    """Two ranks, one coordinator, both saving each round's tag at once: the
    single-rank oracle over both ranks' states, plus one more rule — a fault
    on either rank ends the round loudly on *both*.  Waits carry no timeout,
    so a rank left waiting for a vote that never comes overruns the bound."""
    seed = config_seed(engine_name, "file-2rank", scenario)
    plan = FaultPlan(seed=seed, **SCENARIOS[scenario])
    store, clean_view, faulty = _build_store("file", plan, tmp_path)
    coordinator = TwoPhaseCommitCoordinator(2, store)
    engines = [create_real_engine(engine_name, store, rank=rank, world_size=2,
                                  coordinator=coordinator,
                                  policy=CheckpointPolicy(host_buffer_size=8 << 20))
               for rank in range(2)]
    expected = {}
    escaped = []

    def rank_round(rank, tag, round_index):
        try:
            handle = engines[rank].save(expected[tag][rank], tag=tag,
                                        iteration=round_index)
            # This round's own flush and commit: wait_all would stop at the
            # first earlier failure (it resurfaces them, by design).
            handle.wait_durable()
            coordinator.wait_committed(tag)
        except (CheckpointError, ConsistencyError):
            pass  # loud failure: the sanctioned outcome
        except OSError as exc:
            escaped.append(exc)

    def drain(rank):
        try:
            engines[rank].shutdown(wait=True)
        except (CheckpointError, ConsistencyError):
            pass

    try:
        for round_index in range(ROUNDS):
            tag = f"ckpt-{round_index:03d}"
            expected[tag] = [_state(seed=2 * round_index + rank) for rank in range(2)]
            _join_bounded(
                [threading.Thread(target=rank_round, args=(rank, tag, round_index),
                                  name=f"rank{rank}", daemon=True)
                 for rank in range(2)],
                f"round {tag} [chaos seed {CHAOS_SEED}, config seed {seed}]")
    finally:
        _join_bounded([threading.Thread(target=drain, args=(rank,),
                                        name=f"drain-rank{rank}", daemon=True)
                       for rank in range(2)], "shutdown")
    if escaped:
        _dump_artifact(plan, engine_name, "file-2rank", scenario)
        pytest.fail(f"raw OSError escaped the engine [config seed {seed}]: {escaped[0]}")
    _check_oracle(plan, clean_view, faulty, expected, engine_name, "file-2rank",
                  scenario)


#: Read-path scenario -> FaultPlan overrides armed AFTER a clean save phase.
#: ``outage_start_op`` is relative to the op counter at restore start.
RESTORE_SCENARIOS = {
    "torn_read": dict(torn_read_prob=0.45, torn_read_keep_fraction=0.5),
    "read_errors": dict(read_error_prob=0.45, max_failures_per_op=2),
    "read_outage": dict(outage_start_op=2, outage_ops=5),
}


@pytest.fixture(params=sorted(RESTORE_SCENARIOS))
def restore_scenario(request):
    return request.param


def test_chaos_restore_never_silently_corrupts(engine_name, store_backend,
                                               restore_scenario, tmp_path):
    """Fault injection on the READ path: checkpoints land cleanly, then the
    faults strike during ``load_all``.  Every restore attempt must either
    reassemble **bit-identical** state or raise loudly — a torn (short) read,
    a transient read error, or an outage mid-restore must never hand back
    corrupted tensors or leak a raw ``OSError``."""
    label = f"restore-{restore_scenario}"
    seed = config_seed(engine_name, store_backend, label)
    store, clean_view, faulty = _build_store(store_backend, FaultPlan(seed=seed),
                                             tmp_path)
    repro_hint = (f"[chaos seed {CHAOS_SEED}, config seed {seed}: "
                  f"{engine_name} × {store_backend} × {label}]")

    expected = {}
    with create_real_engine(engine_name, store,
                            policy=CheckpointPolicy(host_buffer_size=8 << 20)) as engine:
        for round_index in range(3):
            tag = f"ckpt-{round_index:03d}"
            state = _state(seed=round_index)
            expected[tag] = state
            engine.save(state, tag=tag, iteration=round_index)
            engine.wait_all(timeout=30.0)
        if callable(getattr(store, "wait_drained", None)):
            store.wait_drained(timeout=30.0)
    assert sorted(store.list_committed_checkpoints()) == sorted(expected)

    # Arm the read faults only now, so the save phase above is genuinely
    # clean and every failure below is a restore-path failure.
    overrides = dict(RESTORE_SCENARIOS[restore_scenario])
    if "outage_start_op" in overrides:
        overrides["outage_start_op"] += faulty.ops_so_far()
    plan = FaultPlan(seed=seed, **overrides)
    faulty.plan = plan

    loader = CheckpointLoader(store)
    restored_ok = 0
    refused = 0
    for _attempt in range(3):
        for tag, want in expected.items():
            try:
                restored = loader.restore(RestoreSpec.full(tag=tag))
            except (CheckpointError, ConsistencyError, RestartError):
                refused += 1  # loud refusal: the sanctioned outcome
                continue
            except OSError as exc:
                _dump_artifact(plan, engine_name, store_backend, label)
                pytest.fail(
                    f"raw OSError escaped the restore path {repro_hint}: {exc}")
            state = restored[0]
            same = (np.array_equal(state["model"]["w"], want["model"]["w"])
                    and np.array_equal(state["model"]["b"], want["model"]["b"])
                    and np.array_equal(state["optimizer"]["m"], want["optimizer"]["m"]))
            if not same:
                artifact = _dump_artifact(plan, engine_name, store_backend, label)
                pytest.fail(
                    f"restore of {tag!r} returned silently corrupted state "
                    f"{repro_hint}; fault plan dumped to {artifact}")
            restored_ok += 1
    assert restored_ok + refused == 3 * len(expected)

    # Once the fault window closes, every checkpoint restores bit-exactly —
    # read faults must not have damaged anything at rest.
    with faulty.suspend():
        recovered = CheckpointLoader(clean_view)
        for tag, want in expected.items():
            state = recovered.restore(RestoreSpec.full(tag=tag))[0]
            np.testing.assert_array_equal(state["model"]["w"], want["model"]["w"])
            np.testing.assert_array_equal(state["optimizer"]["m"],
                                          want["optimizer"]["m"])


def test_committed_checkpoints_survive_when_faults_stop(engine_name,
                                                        store_backend, tmp_path):
    """After the fault window closes, the stack recovers: new checkpoints
    commit and restore bit-exactly on every engine × store config."""
    seed = config_seed(engine_name, store_backend, "recovery")
    plan = FaultPlan(seed=seed, outage_start_op=0, outage_ops=3)
    store, clean_view, _faulty = _build_store(store_backend, plan, tmp_path)
    with create_real_engine(engine_name, store,
                            policy=CheckpointPolicy(host_buffer_size=8 << 20)) as engine:
        for round_index in range(3):
            tag = f"ckpt-{round_index:03d}"
            try:
                engine.save(_state(round_index), tag=tag, iteration=round_index)
                engine.wait_all(timeout=30.0)
            except (CheckpointError, ConsistencyError):
                continue
        final = _state(seed=77)
        handle = engine.save(final, tag="final", iteration=99)
        # wait_all would resurface the fault-window failures at every wait
        # point (by design); the final tag's own flush + commit is what
        # recovery is about, so wait on its handle specifically.
        handle.wait_durable(timeout=30.0)
        assert engine.coordinator.wait_committed("final", timeout=30.0)
        restored = engine.load(RestoreSpec(tag="final"))
    assert "final" in clean_view.list_committed_checkpoints(), (
        f"recovery checkpoint missing [config seed {seed}]")
    np.testing.assert_array_equal(restored["model"]["w"], final["model"]["w"])
    np.testing.assert_array_equal(restored["optimizer"]["m"], final["optimizer"]["m"])


# ---------------------------------------------------------------------------
# Mid-chain faults: an interior level of a 3-level chain misbehaves
# ---------------------------------------------------------------------------

def _build_chain_store(plan: FaultPlan, tmp_path: Path):
    """A 3-level chain whose INTERIOR level is fault-injected.

    Level 0 (the commit tier) and the deepest level stay clean: every
    failure below is a mid-chain failure — the drain crossing the faulty
    level, restores falling through it, eviction deleting from it.
    """
    from repro.io import TierChain, TierLevel

    faulty_mid = FaultyStore(FileStore(tmp_path / "mid"), plan)
    store = TierChain([
        TierLevel(FileStore(tmp_path / "fast"), name="fast"),
        TierLevel(faulty_mid, name="mid"),
        TierLevel(ObjectStore(), name="deep"),
    ], keep_local_latest=None, drain_backoff_s=0.01)
    return store, faulty_mid


def test_chaos_mid_chain_transient_errors_are_retried(engine_name, tmp_path):
    """Transient interior-level write errors are absorbed by the per-link
    retry machinery: every checkpoint still replicates down the whole chain
    and restores bit-exactly."""
    seed = config_seed(engine_name, "chain3", "mid_transient")
    plan = FaultPlan(seed=seed, write_error_prob=0.5, max_failures_per_op=1)
    store, faulty_mid = _build_chain_store(plan, tmp_path)
    expected = {}
    with create_real_engine(engine_name, store,
                            policy=CheckpointPolicy(host_buffer_size=8 << 20)) as engine:
        for round_index in range(3):
            tag = f"ckpt-{round_index:03d}"
            expected[tag] = _state(seed=round_index)
            engine.save(expected[tag], tag=tag, iteration=round_index)
            engine.wait_all(timeout=30.0)
        store.wait_drained(timeout=30.0)
    for level in store.levels:
        assert sorted(level.store.list_committed_checkpoints()) == sorted(expected)
    loader = CheckpointLoader(store)
    for tag, want in expected.items():
        state = loader.restore(RestoreSpec.full(tag=tag))[0]
        np.testing.assert_array_equal(state["model"]["w"], want["model"]["w"])
        np.testing.assert_array_equal(state["optimizer"]["m"], want["optimizer"]["m"])


def test_chaos_mid_chain_persistent_errors_fail_loudly(engine_name, tmp_path):
    """A persistently failing interior level must surface through
    ``wait_drained`` as CheckpointError — never hang, never silently claim
    replication — while level 0 keeps serving bit-exact restores."""
    seed = config_seed(engine_name, "chain3", "mid_persistent")
    plan = FaultPlan(seed=seed, write_error_prob=1.0)
    store, faulty_mid = _build_chain_store(plan, tmp_path)
    want = _state(seed=1)
    with create_real_engine(engine_name, store,
                            policy=CheckpointPolicy(host_buffer_size=8 << 20)) as engine:
        engine.save(want, tag="ckpt-1", iteration=1)
        engine.wait_all(timeout=30.0)
        with pytest.raises(CheckpointError):
            store.wait_drained(timeout=30.0)
    # The drain never crossed the faulty level: no manifest may exist there
    # or deeper (manifest-last per link), and the chain reports the failure.
    with faulty_mid.suspend():
        assert faulty_mid.list_committed_checkpoints() == []
    assert store.slow.list_committed_checkpoints() == []
    assert store.drain_metrics()["failed_drains"] >= 1
    state = CheckpointLoader(store).restore(RestoreSpec.full(tag="ckpt-1"))[0]
    np.testing.assert_array_equal(state["model"]["w"], want["model"]["w"])


def test_chaos_mid_chain_read_outage_falls_through(engine_name, tmp_path):
    """With the interior level dark at restore time, reads fall through to
    the deepest level and reassemble bit-exact state (after the shallow
    copies are gone, the chain's restore path must skip the dark level, not
    fail on it)."""
    seed = config_seed(engine_name, "chain3", "mid_read_outage")
    store, faulty_mid = _build_chain_store(FaultPlan(seed=seed), tmp_path)
    want = _state(seed=2)
    with create_real_engine(engine_name, store,
                            policy=CheckpointPolicy(host_buffer_size=8 << 20)) as engine:
        engine.save(want, tag="ckpt-1", iteration=1)
        engine.wait_all(timeout=30.0)
        store.wait_drained(timeout=30.0)
    store.close()

    # Node loss takes the fast tier; the interior level goes dark too.
    import shutil
    shutil.rmtree(tmp_path / "fast")
    reopened, faulty_mid = None, FaultyStore(FileStore(tmp_path / "mid"),
                                             FaultPlan(seed=seed,
                                                       read_error_prob=1.0))
    from repro.io import TierChain, TierLevel
    reopened = TierChain([
        TierLevel(FileStore(tmp_path / "fast"), name="fast"),
        TierLevel(faulty_mid, name="mid"),
        TierLevel(store.slow, name="deep"),
    ], keep_local_latest=None, drain_backoff_s=0.01)
    try:
        state = CheckpointLoader(reopened).restore(
            RestoreSpec.full(tag="ckpt-1"))[0]
        np.testing.assert_array_equal(state["model"]["w"], want["model"]["w"])
        np.testing.assert_array_equal(state["optimizer"]["m"],
                                      want["optimizer"]["m"])
    finally:
        reopened.close()
