"""Unit tests of the fault-injection framework: FaultPlan + FaultyStore.

The chaos conformance suite (``test_chaos_conformance.py``) exercises the
framework end to end through the engines; this file pins down the framework's
own contracts — plan validation and serialisation, seeded determinism of the
injected fault sequence, each injection mode in isolation, the capability
hiding that keeps every byte inside the fault filter, and the ``faulty``
entry in the store registry.
"""

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import DataStatesCheckpointEngine, create_real_engine
from repro.exceptions import CheckpointError, ConfigurationError, ConsistencyError
from repro.io import (
    STORE_NAMES,
    FaultPlan,
    FaultyStore,
    FileStore,
    InjectedProcessKill,
    ObjectStore,
    ShardStore,
    available_stores,
    create_store,
    supports_mmap,
    supports_shard_writer,
)
from repro.restart import CheckpointLoader, RestoreSpec


def _state(seed=0, size=256):
    rng = np.random.default_rng(seed)
    return {"w": rng.normal(size=size), "m": rng.normal(size=size), "step": seed}


def _save_one(store, tag, seed=0):
    with DataStatesCheckpointEngine(store, host_buffer_size=4 << 20) as engine:
        engine.save(_state(seed), tag=tag, iteration=seed)
        engine.wait_all()


# ---------------------------------------------------------------------------
# FaultPlan: validation, serialisation, determinism
# ---------------------------------------------------------------------------

def test_plan_validates_fields():
    with pytest.raises(ConfigurationError):
        FaultPlan(torn_write_prob=1.5)
    with pytest.raises(ConfigurationError):
        FaultPlan(read_error_prob=-0.1)
    with pytest.raises(ConfigurationError):
        FaultPlan(torn_write_keep_fraction=1.0)  # must truncate something
    with pytest.raises(ConfigurationError):
        FaultPlan(torn_read_prob=1.5)
    with pytest.raises(ConfigurationError):
        FaultPlan(torn_read_keep_fraction=1.0)
    with pytest.raises(ConfigurationError):
        FaultPlan(max_failures_per_op=0)
    with pytest.raises(ConfigurationError):
        FaultPlan(outage_ops=-1)
    with pytest.raises(ConfigurationError):
        FaultPlan(kill_on_manifest=0)


def test_plan_json_round_trip():
    plan = FaultPlan(seed=42, torn_write_prob=0.25, write_error_prob=0.1,
                     torn_read_prob=0.2, torn_read_keep_fraction=0.75,
                     max_failures_per_op=2, outage_start_op=7, outage_ops=3,
                     kill_on_manifest=1)
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_plan_roll_is_deterministic_and_seed_sensitive():
    plan = FaultPlan(seed=11)
    draws = [plan.roll("write_shard", "t/rank0", k) for k in range(64)]
    assert draws == [plan.roll("write_shard", "t/rank0", k) for k in range(64)]
    assert all(0.0 <= d < 1.0 for d in draws)
    other = FaultPlan(seed=12)
    assert draws != [other.roll("write_shard", "t/rank0", k) for k in range(64)]
    # Distinct keys draw independently — same seed, different streams.
    assert draws != [plan.roll("write_shard", "t/rank1", k) for k in range(64)]


def test_same_seed_yields_identical_fault_log(tmp_path):
    """Satellite: identical plans over identical operation sequences inject
    byte-identical fault sequences (the reproducibility contract)."""
    plan = FaultPlan(seed=5, torn_write_prob=0.5, write_error_prob=0.3,
                     max_failures_per_op=1)

    def run(root):
        store = FaultyStore(FileStore(root), plan)
        for index in range(6):
            try:
                store.write_shard(f"ck-{index}", "rank0", [b"x" * 128])
            except OSError:
                pass
        return store.fault_log()

    log_a = run(tmp_path / "a")
    log_b = run(tmp_path / "b")
    assert log_a == log_b
    assert log_a  # the probabilities above must actually fire


# ---------------------------------------------------------------------------
# Injection modes in isolation
# ---------------------------------------------------------------------------

def test_torn_write_detected_at_restore(tmp_path):
    """A torn write lands fewer bytes than the manifest records: the loader
    must reject the checkpoint, never return truncated state."""
    store = FaultyStore(FileStore(tmp_path),
                        FaultPlan(seed=1, torn_write_prob=1.0,
                                  torn_write_keep_fraction=0.5))
    _save_one(store, "torn")
    assert any(entry["kind"] == "torn_write" for entry in store.fault_log())
    loader = CheckpointLoader(store.inner)
    with pytest.raises(ConsistencyError):
        loader.restore(RestoreSpec.full(tag="torn"))


def test_torn_read_detected_by_loader(tmp_path):
    """A torn (short) read hands back fewer bytes than the manifest records:
    the loader's size check must reject it, never return truncated state —
    and the data at rest stays intact, so a clean retry succeeds."""
    store = FaultyStore(FileStore(tmp_path),
                        FaultPlan(seed=14, torn_read_prob=1.0,
                                  torn_read_keep_fraction=0.5))
    with store.suspend():
        _save_one(store, "ok")
    with pytest.raises(ConsistencyError):
        CheckpointLoader(store).restore(RestoreSpec.full(tag="ok"))
    assert any(entry["kind"] == "torn_read" for entry in store.fault_log())
    with store.suspend():
        restored = CheckpointLoader(store).restore(RestoreSpec.full(tag="ok"))
    np.testing.assert_array_equal(restored[0]["w"], _state(0)["w"])


def test_torn_read_covers_ranged_reads(tmp_path):
    store = FaultyStore(FileStore(tmp_path),
                        FaultPlan(seed=15, torn_read_prob=1.0,
                                  torn_read_keep_fraction=0.5))
    with store.suspend():
        store.write_shard("ck", "rank0", [b"0123456789"])
    assert store.read_shard_range("ck", "rank0", 0, 8) == b"0123"
    assert any(entry["kind"] == "torn_read" for entry in store.fault_log())


def test_transient_error_budget_then_success(tmp_path):
    store = FaultyStore(FileStore(tmp_path),
                        FaultPlan(seed=2, write_error_prob=1.0,
                                  max_failures_per_op=2))
    for _attempt in range(2):
        with pytest.raises(OSError):
            store.write_shard("ck", "rank0", [b"payload"])
    receipt = store.write_shard("ck", "rank0", [b"payload"])  # budget spent
    assert receipt.nbytes == len(b"payload")
    kinds = [entry["kind"] for entry in store.fault_log()]
    assert kinds == ["transient_error", "transient_error"]


def test_persistent_error_never_recovers(tmp_path):
    store = FaultyStore(FileStore(tmp_path),
                        FaultPlan(seed=3, write_error_prob=1.0))
    for _attempt in range(4):
        with pytest.raises(OSError):
            store.write_shard("ck", "rank0", [b"payload"])
    assert all(entry["kind"] == "persistent_error"
               for entry in store.fault_log())


def test_outage_window_by_operation_index(tmp_path):
    store = FaultyStore(FileStore(tmp_path),
                        FaultPlan(seed=4, outage_start_op=1, outage_ops=2))
    store.write_shard("ck-0", "rank0", [b"a"])  # op 0: before the outage
    with pytest.raises(OSError, match="outage"):
        store.write_shard("ck-1", "rank0", [b"b"])  # op 1
    with pytest.raises(OSError, match="outage"):
        store.read_shard("ck-0", "rank0")  # op 2: reads fail too
    store.write_shard("ck-2", "rank0", [b"c"])  # op 3: storm has passed


def test_kill_between_shard_commit_and_manifest_publish(tmp_path):
    """The classic tear: shards durable, manifest never published.  The
    commit protocol must surface it loudly and leave nothing committed."""
    store = FaultyStore(FileStore(tmp_path),
                        FaultPlan(seed=6, kill_on_manifest=1))
    engine = DataStatesCheckpointEngine(store, host_buffer_size=4 << 20)
    try:
        engine.save(_state(7), tag="killed", iteration=0)
        with pytest.raises(CheckpointError):
            engine.wait_all(timeout=10.0)
    finally:
        engine.shutdown(wait=False)
    assert store.list_committed_checkpoints() == []
    assert store.inner.shard_size("killed", "rank0") > 0  # shard did land
    assert any(entry["kind"] == "process_kill" for entry in store.fault_log())
    # The kill consumed its one-shot trigger: the next checkpoint commits.
    _save_one(store, "after")
    assert store.list_committed_checkpoints() == ["after"]


def test_kill_message_and_log_carry_the_seed(tmp_path):
    store = FaultyStore(FileStore(tmp_path),
                        FaultPlan(seed=909, kill_on_manifest=1))
    with pytest.raises(InjectedProcessKill, match="seed 909"):
        store.write_manifest("ck", {"tag": "ck"})
    with pytest.raises(OSError, match="seed 910"):
        FaultyStore(FileStore(tmp_path / "o"),
                    FaultPlan(seed=910, write_error_prob=1.0)
                    ).write_shard("ck", "rank0", [b"x"])


def test_suspend_disables_injection(tmp_path):
    store = FaultyStore(FileStore(tmp_path),
                        FaultPlan(seed=8, write_error_prob=1.0))
    with store.suspend():
        store.write_shard("ck", "rank0", [b"clean"])
    with pytest.raises(OSError):
        store.write_shard("ck", "rank1", [b"faulty"])


# ---------------------------------------------------------------------------
# Capability hiding: every byte goes through the fault filter
# ---------------------------------------------------------------------------

def test_bypass_capabilities_are_hidden(tmp_path):
    file_backed = FaultyStore(FileStore(tmp_path))
    assert supports_shard_writer(FileStore(tmp_path))
    assert supports_mmap(FileStore(tmp_path))
    assert not supports_shard_writer(file_backed)
    assert not supports_mmap(file_backed)
    with pytest.raises(AttributeError, match="fault filter"):
        file_backed.create_shard_writer("ck", "rank0", 10)


def test_ranged_reads_follow_the_inner_store(tmp_path):
    # A plain gated method on the class, never an instance attribute that
    # depends on what the inner store happens to expose.
    assert "read_shard_range" in FaultyStore.__dict__
    for inner in (FileStore(tmp_path), ObjectStore()):
        store = FaultyStore(inner)
        assert isinstance(store, ShardStore)
        store.write_shard("ck", "rank0", [b"0123456789"])
        assert store.read_shard_range("ck", "rank0", 2, 4) == b"2345"
        assert store.ops_so_far() == 2  # the write and the ranged read


def test_read_faults_cover_ranged_reads(tmp_path):
    store = FaultyStore(FileStore(tmp_path), FaultPlan(seed=9, read_error_prob=1.0))
    with store.suspend():
        store.write_shard("ck", "rank0", [b"0123456789"])
    with pytest.raises(OSError):
        store.read_shard_range("ck", "rank0", 0, 4)


# ---------------------------------------------------------------------------
# Registry integration
# ---------------------------------------------------------------------------

def test_faulty_store_registered_but_not_canonical(tmp_path):
    assert "faulty" in available_stores()
    assert "faulty" not in STORE_NAMES  # not part of the canonical sweep
    store = create_store("faulty", root=tmp_path, inner="file",
                         plan={"seed": 13, "write_error_prob": 1.0})
    assert isinstance(store, FaultyStore)
    assert isinstance(store.inner, FileStore)
    assert store.plan.seed == 13
    with pytest.raises(OSError):
        store.write_shard("ck", "rank0", [b"x"])


def test_faulty_store_cannot_nest(tmp_path):
    store = create_store("faulty", root=tmp_path)
    with pytest.raises(ConfigurationError):
        FaultyStore(store)
    with pytest.raises(ConfigurationError):
        create_store("faulty", root=tmp_path, inner="faulty")


def test_engine_round_trip_through_clean_faulty_store(tmp_path):
    """A no-fault plan is a transparent wrapper: save/restore bit-exact."""
    store = create_store("faulty", root=tmp_path, inner="file")
    with create_real_engine("datastates", store,
                            policy=CheckpointPolicy(host_buffer_size=4 << 20)) as engine:
        engine.save(_state(21), tag="clean", iteration=0)
        engine.wait_all()
        loaded = engine.load(RestoreSpec(tag="clean"))
    np.testing.assert_array_equal(loaded["w"], _state(21)["w"])
    assert store.fault_log() == []
