"""Engine-conformance suite: every real-mode engine honours the protocol.

Parametrized over all four paper baselines via the registry
(``create_real_engine``) **and over both shard-store backends** (the POSIX
``FileStore`` and the in-memory S3-like ``ObjectStore``): save -> restore
bit-exactness through the ``RealTrainer``, the consistency gate before
``optimizer.step()``, handle semantics, ``wait_all`` after the final save,
``shutdown()`` idempotency, and the context-manager lifecycle.

A fifth engine, written here from scratch against the ``CheckpointEngine``
template (a dozen lines of ``_write_parts``), runs through the same suite: what
the template promises an extension is exactly what the stock engines get.
"""

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import (
    ENGINE_NAMES,
    AsyncCheckpointEngine,
    CheckpointEngine,
    DataStatesCheckpointEngine,
    SynchronousCheckpointEngine,
    TorchSnapshotCheckpointEngine,
    TwoPhaseCommitCoordinator,
    available_real_engines,
    canonical_engine_name,
    create_real_engine,
    register_real_engine,
    registry,
    resolve_real_engine_class,
)
from repro.exceptions import CheckpointError, ConfigurationError
from repro.io import STORE_NAMES, ShardStore, create_store
from repro.model import NumpyTransformerLM, tiny_config
from repro.restart import CheckpointLoader, RestoreSpec
from repro.serialization import CheckpointManifest, iter_part_payloads
from repro.training import RealTrainer


class StreamingCheckpointEngine(CheckpointEngine):
    """An engine written from scratch: it says how its bytes reach the store
    (one sequential stream per dirty part, inside ``save``, after the shared
    dirty scan where it reads the part) and nothing else — planning,
    references, records, the vote, the handle, the wait points and the
    failed-tag rule all come from ``CheckpointEngine``."""

    name = "streaming"
    blocking = True

    def _write_parts(self, handle, plan, parts, inc):
        for index, part in parts:
            if self._scan_part(handle, plan, index, inc):
                continue
            views = [memoryview(payload)
                     for _entry, payload in iter_part_payloads(part)]
            nbytes, checksum = self._write_streaming_shard(
                handle.tag, part.name, part.header, plan.skeleton, views)
            self._part_written(
                handle, plan, index, nbytes, checksum,
                tensor_checksums=inc.tensor_checksums(part.name) if inc else None)


pytestmark = pytest.mark.parametrize(
    "engine_name", ENGINE_NAMES + [StreamingCheckpointEngine.name])


@pytest.fixture(scope="module", autouse=True)
def _streaming_engine_registered():
    """The registry is process-global: the fifth engine exists for this
    module only."""
    register_real_engine(StreamingCheckpointEngine.name, StreamingCheckpointEngine)
    yield
    registry._REAL_REGISTRY.pop(StreamingCheckpointEngine.name, None)


#: Registered backends plus a synthetic 3-level chain config: ``tiered3``
#: exercises the N-level TierChain (file -> file -> object) through the
#: exact same conformance contract as the canonical backends.
CONFORMANCE_STORE_BACKENDS = list(STORE_NAMES) + ["tiered3"]


@pytest.fixture(params=CONFORMANCE_STORE_BACKENDS)
def store_backend(request):
    """Every conformance test runs against all registered store backends."""
    return request.param


def _tiny():
    return tiny_config(hidden_size=32, num_layers=2, num_attention_heads=2,
                       vocab_size=101, sequence_length=16)


def _state(seed=0, size=512):
    rng = np.random.default_rng(seed)
    return {
        "model": {"w": rng.normal(size=(size, 4)), "b": rng.normal(size=size)},
        "optimizer": {"m": rng.normal(size=(size, 4)), "step": seed},
        "iteration": seed,
    }


def _make_store(store_backend, tmp_path, name) -> ShardStore:
    if store_backend == "tiered3":
        store = create_store("tiered", root=tmp_path / name,
                             tiers="nvme:file,pfs:file,object:object",
                             drain_backoff_s=0.01)
    else:
        store = create_store(store_backend, root=tmp_path / name)
    assert isinstance(store, ShardStore)
    return store


def _make_engine(engine_name, store_backend, tmp_path) -> CheckpointEngine:
    return create_real_engine(
        engine_name, _make_store(store_backend, tmp_path, engine_name),
        policy=CheckpointPolicy(host_buffer_size=16 << 20),
    )


# ---------------------------------------------------------------------------
# Registry / factory
# ---------------------------------------------------------------------------

def test_factory_instantiates_and_aliases_resolve(engine_name, store_backend, tmp_path):
    expected = {
        "deepspeed": SynchronousCheckpointEngine,
        "async": AsyncCheckpointEngine,
        "torchsnapshot": TorchSnapshotCheckpointEngine,
        "datastates": DataStatesCheckpointEngine,
        "streaming": StreamingCheckpointEngine,
    }[engine_name]
    with _make_engine(engine_name, store_backend, tmp_path) as engine:
        assert type(engine) is expected
        assert engine.name == engine_name
    assert canonical_engine_name(engine_name.upper()) == engine_name
    assert engine_name in available_real_engines()


# ---------------------------------------------------------------------------
# Save -> restore bit-exactness through the RealTrainer
# ---------------------------------------------------------------------------

def test_trainer_resume_is_bit_exact(engine_name, store_backend, tmp_path):
    """Training N+M iterations straight equals training N under the engine,
    restoring from its checkpoint, and training M more."""
    config = _tiny()
    with _make_engine(engine_name, store_backend, tmp_path) as engine:
        reference = RealTrainer(NumpyTransformerLM(config, seed=3), engine=engine)
        reference.train(iterations=3, checkpoint_interval=3)
        engine.wait_all()
        reference.train(iterations=2, checkpoint_interval=0)

        resumed = RealTrainer(NumpyTransformerLM(config, seed=99), engine=None)
        # Restore through the engine protocol (load routed via CheckpointLoader).
        tag = resumed.resume_from(engine)
        assert tag == "ckpt-000003"
        assert resumed.iteration == 3
        resumed.train(iterations=2, checkpoint_interval=0)

        for name in reference.model.params:
            np.testing.assert_array_equal(
                reference.model.params[name], resumed.model.params[name])
        np.testing.assert_array_equal(
            reference.optimizer.exp_avg["wte"], resumed.optimizer.exp_avg["wte"])


def test_trainer_accepts_engine_by_name(engine_name, store_backend, tmp_path):
    store = _make_store(store_backend, tmp_path, "by-name")
    with RealTrainer(NumpyTransformerLM(_tiny(), seed=1), engine=engine_name,
                     store=store) as trainer:
        assert trainer.owns_engine
        assert isinstance(trainer.engine, CheckpointEngine)
        report = trainer.train(iterations=2, checkpoint_interval=1)
        trainer.engine.wait_all()
        assert len(report.checkpoints) == 2
        assert trainer.engine.list_checkpoints() == ["ckpt-000001", "ckpt-000002"]
    # Context-manager exit shut the owned engine down.
    with pytest.raises(CheckpointError):
        trainer.engine.save(_state(), tag="late")


def test_trainer_by_name_without_store_rejected(engine_name):
    with pytest.raises(ConfigurationError):
        RealTrainer(NumpyTransformerLM(_tiny(), seed=1), engine=engine_name)


# ---------------------------------------------------------------------------
# Consistency gate before optimizer.step()
# ---------------------------------------------------------------------------

def test_consistency_gate_isolates_snapshot_from_mutation(engine_name, store_backend, tmp_path):
    """Mutations made after wait_for_snapshot() returns must not leak into
    the checkpoint — the contract the trainer relies on before
    ``optimizer.step()`` mutates the parameters."""
    with _make_engine(engine_name, store_backend, tmp_path) as engine:
        state = _state(seed=2)
        original = state["model"]["w"].copy()
        engine.save(state, tag="gate", iteration=0)
        engine.wait_for_snapshot()
        state["model"]["w"][:] = -1.0   # the "optimizer update"
        engine.wait_all()
        loaded = engine.load(RestoreSpec(tag="gate"))
        np.testing.assert_array_equal(loaded["model"]["w"], original)


# ---------------------------------------------------------------------------
# Handles, wait_all, and commit
# ---------------------------------------------------------------------------

def test_handle_and_wait_all_after_final_save(engine_name, store_backend, tmp_path):
    with _make_engine(engine_name, store_backend, tmp_path) as engine:
        for index in range(3):
            handle = engine.save(_state(seed=index), tag=f"ckpt-{index}",
                                 iteration=index)
            engine.wait_for_snapshot()
        assert handle.wait_captured(timeout=10.0)
        result = handle.wait_durable(timeout=30.0)
        assert result.nbytes > 0
        assert result.record.checksum is not None
        engine.wait_all()
        # Every save must be committed (manifest published) after wait_all.
        assert engine.list_checkpoints() == ["ckpt-0", "ckpt-1", "ckpt-2"]
        assert engine.latest_checkpoint() == "ckpt-2"
        # The shards pass full manifest/CRC validation.
        loader = CheckpointLoader(engine.store)
        for tag in engine.list_checkpoints():
            loader.validate(tag)
        assert engine.stats()["checkpoints_requested"] == 3


# ---------------------------------------------------------------------------
# Shutdown lifecycle
# ---------------------------------------------------------------------------

def test_shutdown_is_idempotent_and_final(engine_name, store_backend, tmp_path):
    engine = _make_engine(engine_name, store_backend, tmp_path)
    engine.save(_state(), tag="final", iteration=0)
    engine.shutdown()
    engine.shutdown()          # idempotent
    engine.shutdown(wait=False)
    with pytest.raises(CheckpointError):
        engine.save(_state(), tag="after-shutdown")
    # The wait=True shutdown drained the outstanding save.
    assert engine.list_checkpoints() == ["final"]


def test_register_custom_real_engine(engine_name, tmp_path):
    base_class = resolve_real_engine_class(engine_name)

    class Custom(base_class):
        name = f"custom-{engine_name}"

    register_real_engine(f"custom-{engine_name}", Custom)
    try:
        engine = create_real_engine(f"custom-{engine_name}", _make_store("file", tmp_path, "c"))
        assert isinstance(engine, Custom)
        engine.shutdown()
    finally:
        # The registry is process-global: undo the registration so later
        # tests see the pristine four-engine table.
        registry._REAL_REGISTRY.pop(f"custom-{engine_name}", None)
    with pytest.raises(ConfigurationError):
        register_real_engine("bad", object)  # type: ignore[arg-type]


def test_register_under_alias_overrides_canonical(engine_name, tmp_path):
    """A custom engine registered under an alias must be honoured at lookup,
    not silently shadowed by the alias -> canonical mapping."""
    base_class = resolve_real_engine_class(engine_name)

    class Custom(base_class):
        pass

    alias = {"deepspeed": "sync", "async": "checkfreq",
             "torchsnapshot": "torchsnapshot", "datastates": "datastates-llm",
             "streaming": "streaming"}[engine_name]
    register_real_engine(alias, Custom)
    try:
        assert resolve_real_engine_class(alias) is Custom
        # The canonical name still resolves to the stock engine.
        if alias != engine_name:
            assert resolve_real_engine_class(engine_name) is base_class
    finally:
        registry._REAL_REGISTRY.pop(alias, None)
        registry._REAL_REGISTRY.setdefault(engine_name, base_class)


# ---------------------------------------------------------------------------
# What the save template gives every engine
# ---------------------------------------------------------------------------

def _assert_restores(engine, tag, state):
    loaded = engine.load(RestoreSpec(tag=tag))
    for group in ("model", "optimizer"):
        for key, want in state[group].items():
            np.testing.assert_array_equal(loaded[group][key], want)


def test_shard_set_save_restores_bit_identically(engine_name, tmp_path):
    policy = CheckpointPolicy(host_buffer_size=16 << 20, shards_per_rank=3)
    state = _state(seed=5)
    with create_real_engine(engine_name, _make_store("file", tmp_path, "set"),
                            policy=policy) as engine:
        result = engine.save(state, tag="set", iteration=5).wait_durable(timeout=30.0)
        engine.wait_all()
        manifest = CheckpointManifest.from_json(engine.store.read_manifest("set"))
        names = ["rank0-s00", "rank0-s01", "rank0-s02"]
        assert [record.name for record in manifest.shards_of_rank(0)] == names
        assert [part.shard_name for part in result.parts] == names
        assert result.nbytes == manifest.total_bytes
        _assert_restores(engine, "set", state)


def test_incremental_save_references_the_unchanged_parts(engine_name, tmp_path):
    policy = CheckpointPolicy(host_buffer_size=16 << 20, shards_per_rank=3,
                              incremental=True)
    state = _state(seed=6)
    with create_real_engine(engine_name, _make_store("cas", tmp_path, "inc"),
                            policy=policy) as engine:
        engine.save(state, tag="full", iteration=0)
        engine.wait_all()
        assert engine.stats()["parts_referenced"] == 0
        state["model"]["b"] = state["model"]["b"] + 1.0   # dirties one part
        engine.save(state, tag="delta", iteration=1)
        engine.wait_all()
        stats = engine.stats()
        assert 0 < stats["parts_referenced"] < 3
        assert stats["bytes_referenced"] > 0
        CheckpointLoader(engine.store).validate("delta")
        _assert_restores(engine, "delta", state)


class _CountingCoordinator(TwoPhaseCommitCoordinator):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.commit_waits = 0

    def wait_committed(self, tag, timeout=None):
        self.commit_waits += 1
        return super().wait_committed(tag, timeout=timeout)


def test_wait_all_forgets_tags_it_has_seen_committed(engine_name, tmp_path):
    """Five save + wait_all rounds wait for five commits, not 1+2+3+4+5, and
    leave nothing pending."""
    store = _make_store("file", tmp_path, "rounds")
    coordinator = _CountingCoordinator(1, store)
    with create_real_engine(engine_name, store, coordinator=coordinator,
                            host_buffer_size=16 << 20) as engine:
        waits_in_wait_all = 0
        for index in range(5):
            engine.save(_state(seed=index), tag=f"ckpt-{index}", iteration=index)
            before = coordinator.commit_waits
            engine.wait_all()
            waits_in_wait_all += coordinator.commit_waits - before
            assert engine.stats()["pending_flushes"] == 0
        assert waits_in_wait_all == 5
        assert engine.list_checkpoints() == [f"ckpt-{index}" for index in range(5)]
