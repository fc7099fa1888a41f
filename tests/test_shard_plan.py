"""Shard-plan binning edge cases and the multi-shard-per-rank layout.

The acceptance properties of the layout: ``shards_per_rank=1`` reproduces
today's single-shard bytes exactly; a plan never creates more parts than
tensors; greedy binning keeps the heaviest/lightest part spread within the
largest single tensor; and every engine's multi-shard checkpoints validate
and restore bit-exactly through the shard-set loader.
"""

import json

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import ENGINE_NAMES, DataStatesCheckpointEngine, create_real_engine
from repro.exceptions import SerializationError
from repro.io import FileStore
from repro.model import NumpyTransformerLM, tiny_config
from repro.restart import CheckpointLoader, RestoreSpec
from repro.serialization import (
    decode_rank_state,
    deserialize_state,
    part_shard_name,
    plan_shards,
    serialize_part,
    serialize_state,
)
from repro.tensor import flatten_state_dict, unflatten_state_dict
from repro.training import RealTrainer


def _state(tensors=8, base=256, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "model": {f"w{i}": rng.normal(size=base + 101 * i) for i in range(tensors)},
        "meta": {"iteration": seed},
    }


# ---------------------------------------------------------------------------
# Binning edge cases
# ---------------------------------------------------------------------------

def test_single_shard_plan_is_byte_identical_to_legacy_layout():
    state = _state()
    flattened = flatten_state_dict(state)
    plan = plan_shards(flattened, "rank0", shards_per_rank=1)
    assert plan.is_single
    assert plan.parts[0].name == "rank0"
    # Exact bytes of the pre-multi-shard serializer, header JSON included.
    assert serialize_part(plan.parts[0], plan.skeleton) == serialize_state(state)
    # No `index` fields leak into the single-shard header.
    raw = serialize_part(plan.parts[0], plan.skeleton)
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + header_len])
    assert all("index" not in entry for entry in header["tensors"])


def test_one_tensor_with_many_shards_clamps_to_one_part():
    flattened = flatten_state_dict({"w": np.arange(10.0)})
    plan = plan_shards(flattened, "rank0", shards_per_rank=16)
    assert plan.num_parts == 1
    assert plan.parts[0].name == "rank0"  # still the classic file name


def test_more_shards_than_tensors_clamps_to_tensor_count():
    flattened = flatten_state_dict({f"w{i}": np.arange(4.0) for i in range(3)})
    plan = plan_shards(flattened, "rank0", shards_per_rank=8)
    assert plan.num_parts == 3
    assert all(len(part.tensors) == 1 for part in plan.parts)


def test_empty_state_still_produces_one_part():
    flattened = flatten_state_dict({"meta": {"iteration": 3}})
    plan = plan_shards(flattened, "rank0", shards_per_rank=4)
    assert plan.num_parts == 1
    raw = serialize_part(plan.parts[0], plan.skeleton)
    assert deserialize_state(raw) == {"meta": {"iteration": 3}}


def test_uneven_tensor_sizes_stay_within_balance_bound():
    """Greedy LPT guarantee: heaviest minus lightest part <= largest tensor."""
    rng = np.random.default_rng(7)
    for shards in (2, 3, 5, 7):
        sizes = rng.integers(1, 5000, size=23)
        state = {f"w{i}": np.zeros(int(n), dtype=np.uint8) for i, n in enumerate(sizes)}
        flattened = flatten_state_dict(state)
        plan = plan_shards(flattened, "rank0", shards_per_rank=shards)
        assert plan.num_parts == shards
        largest = max(ref.nbytes for ref in flattened.tensors)
        sizes = [part.payload_bytes for part in plan.parts]
        spread = max(sizes) - min(sizes)
        assert spread <= largest, (
            f"spread {spread} exceeds largest tensor {largest} "
            f"at shards_per_rank={shards}")
        # Every tensor is assigned exactly once.
        assigned = sorted(i for part in plan.parts for i in part.global_indices)
        assert assigned == list(range(len(flattened.tensors)))


def test_multi_shard_set_reassembles_from_any_buffer_order():
    state = _state(tensors=9, seed=3)
    flattened = flatten_state_dict(state)
    plan = plan_shards(flattened, "rank0", shards_per_rank=4)
    assert plan.num_parts == 4
    assert [part.name for part in plan.parts] == [
        f"rank0-s{i:02d}" for i in range(4)]
    raws = [serialize_part(part, plan.skeleton) for part in plan.parts]
    for order in (raws, raws[::-1], raws[2:] + raws[:2]):
        loaded = unflatten_state_dict(*decode_rank_state(list(order)))
        for key, value in state["model"].items():
            np.testing.assert_array_equal(loaded["model"][key], value)


def test_one_part_of_a_multi_shard_set_is_not_a_state():
    """``deserialize_state`` decodes like a one-buffer set: a lone part is
    missing the other parts' tensors, never mapped onto the wrong slots."""
    state = _state(tensors=9, seed=3)
    plan = plan_shards(flatten_state_dict(state), "rank0", shards_per_rank=4)
    for part in plan.parts:
        with pytest.raises(SerializationError, match="missing tensors"):
            deserialize_state(serialize_part(part, plan.skeleton))


# ---------------------------------------------------------------------------
# End-to-end: every engine, multi-shard save -> validate -> restore
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_every_engine_multi_shard_roundtrip(engine_name, tmp_path):
    state = _state(tensors=10, base=512, seed=11)
    policy = CheckpointPolicy(host_buffer_size=8 << 20, shards_per_rank=3)
    store = FileStore(tmp_path / engine_name)
    with create_real_engine(engine_name, store, policy=policy) as engine:
        handle = engine.save(state, tag="ms", iteration=1)
        engine.wait_for_snapshot()
        engine.wait_all()
        result = handle.wait_durable(timeout=30.0)
        assert result.nbytes > 0

        loader = CheckpointLoader(store)
        manifest = loader.validate("ms")
        assert manifest.version == 2
        records = manifest.shard_sets_of_rank(0)["rank0"]
        assert [r.part_index for r in records] == [0, 1, 2]
        assert all(r.num_parts == 3 for r in records)

        # Restore through the engine protocol (group-name load) and the
        # loader's rank path; both must be bit-exact.
        for loaded in (engine.load(RestoreSpec(tag="ms")), loader.restore(RestoreSpec.of_rank(0, tag="ms"))):
            for key, value in state["model"].items():
                np.testing.assert_array_equal(loaded["model"][key], value)


def test_trainer_resumes_bit_exactly_from_multi_shard_checkpoint(tmp_path):
    config = tiny_config(hidden_size=32, num_layers=2, num_attention_heads=2,
                         vocab_size=97, sequence_length=16)
    policy = CheckpointPolicy(host_buffer_size=16 << 20, shards_per_rank=4)
    store = FileStore(tmp_path)
    with DataStatesCheckpointEngine(store, policy=policy) as engine:
        reference = RealTrainer(NumpyTransformerLM(config, seed=5), engine=engine)
        reference.train(iterations=2, checkpoint_interval=2)
        engine.wait_all()
        reference.train(iterations=2, checkpoint_interval=0)

        resumed = RealTrainer(NumpyTransformerLM(config, seed=77), engine=None)
        tag = resumed.resume_from(engine)
        assert tag == "ckpt-000002"
        resumed.train(iterations=2, checkpoint_interval=0)

        for name in reference.model.params:
            np.testing.assert_array_equal(
                reference.model.params[name], resumed.model.params[name])


def test_multi_shard_corruption_detected_per_file(tmp_path):
    """Corrupting ONE file of the set fails validation of the checkpoint."""
    state = _state(tensors=6, seed=9)
    policy = CheckpointPolicy(host_buffer_size=8 << 20, shards_per_rank=3)
    store = FileStore(tmp_path)
    with DataStatesCheckpointEngine(store, policy=policy) as engine:
        engine.save(state, tag="corrupt", iteration=0)
        engine.wait_all()

    path = store.shard_path("corrupt", "rank0-s01")
    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0xFF
    path.write_bytes(bytes(raw))

    from repro.exceptions import ConsistencyError
    loader = CheckpointLoader(store)
    with pytest.raises(ConsistencyError):
        loader.validate("corrupt")
    with pytest.raises(ConsistencyError):
        loader.restore(RestoreSpec.of_rank(0, tag="corrupt"))


def test_part_shard_name_keeps_a_single_part_bare():
    assert part_shard_name("rank3", 0, 1) == "rank3"
    assert [part_shard_name("rank3", index, 3) for index in range(3)] == [
        "rank3-s00", "rank3-s01", "rank3-s02"]
