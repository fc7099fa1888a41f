"""A plain restore and a reshaped one run one executor over two plans.

An elastic checkpoint reshaped onto the topology that saved it must come
back exactly as its plain restore does: per rank the same keys in the same
order, the same dtypes, shapes and bytes, and the same ``extra``.  The plain
restore moves each tensor whole (the identity plan), the reshaped one moves
the windows :class:`~repro.restart.reshape.Remap` plans, so this holds the
two plans to one answer over mapped, landed and object-store parts, for a
rank written as one part and as a set of three.
"""

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.io import FileStore, ObjectStore
from repro.restart import CheckpointLoader, RestoreSpec, elastic_topology, save_elastic_checkpoint


def _full_state():
    """Column- and row-parallel matrices, a replicated vector, mixed dtypes,
    Adam-style buffers for some tensors and an ``extra`` block."""
    rng = np.random.default_rng(47)
    model = {
        "a.weight": rng.standard_normal((24, 40)).astype(np.float32),
        "a.bias": rng.standard_normal(24).astype(np.float16),
        "b.weight": rng.standard_normal((40, 24)),
        "c.norm": rng.standard_normal(40).astype(np.float32),
        "d.index": rng.integers(-99, 99, size=(6, 10), dtype=np.int64),
    }
    zero = {key: {"exp_avg": rng.standard_normal(model[key].shape),
                  "exp_avg_sq": rng.standard_normal(model[key].shape)}
            for key in ("a.weight", "b.weight")}
    extra = {"iteration": 12, "step": np.arange(3), "lr": 0.5}
    return {"model": model, "zero": zero, "extra": extra}


def _assert_same(reshaped, plain, where="state"):
    """Same type, same keys in the same order, and the same bytes."""
    assert type(reshaped) is type(plain), where
    if isinstance(plain, dict):
        assert list(reshaped) == list(plain), where
        for key in plain:
            _assert_same(reshaped[key], plain[key], f"{where}[{key!r}]")
    elif isinstance(plain, np.ndarray):
        assert (reshaped.dtype, reshaped.shape) == (plain.dtype, plain.shape), where
        assert reshaped.tobytes() == plain.tobytes(), where
    else:
        assert reshaped == plain, where


@pytest.mark.parametrize("shards_per_rank", [1, 3])
@pytest.mark.parametrize("store_name, use_mmap", [
    ("file", True), ("file", False), ("object", True), ("object", False)])
def test_a_reshape_onto_its_own_topology_equals_the_plain_restore(
        tmp_path, store_name, use_mmap, shards_per_rank):
    full = _full_state()
    topology = elastic_topology(full["model"], data_parallel=2, tensor_parallel=2,
                                axes={"a.weight": 0, "a.bias": 0, "b.weight": 1},
                                shards_per_rank=shards_per_rank)
    store = FileStore(tmp_path) if store_name == "file" else ObjectStore()
    save_elastic_checkpoint(store, full, topology, tag="ckpt",
                            policy=CheckpointPolicy(host_buffer_size=4 << 20))
    loader = CheckpointLoader(store)
    spec = RestoreSpec.full(tag="ckpt", use_mmap=use_mmap)

    plain = loader.restore(spec)
    reshaped = loader.restore(spec.reshaped(topology))
    assert list(reshaped) == list(plain) == [0, 1, 2, 3]
    for rank in plain:
        _assert_same(reshaped[rank], plain[rank], f"rank {rank}")
