"""The read contract every shard store keeps, whatever it wraps.

Every backend ``create_store`` builds — file, object, tiered (default spec),
cas over file and over object, faulty over file and over object — is a
:class:`~repro.io.ShardStore`, and ``read_shard_range`` is part of that
protocol, not a capability to probe: it returns exactly the slice of
``read_shard`` it names and fails loudly outside the shard.  A restore that
does not map lands every part with one ``read_shard(out=)`` and never reads
ranges, on every backend alike.
"""

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import create_real_engine
from repro.exceptions import CheckpointError
from repro.io import ShardStore, TierChain, create_store
from repro.restart import CheckpointLoader, RestoreSpec

CHUNK = 64 * 1024

BACKENDS = {
    "file": dict(name="file"),
    "object": dict(name="object"),
    "tiered": dict(name="tiered"),
    "cas-over-file": dict(name="cas", inner="file", chunk_bytes=CHUNK),
    "cas-over-object": dict(name="cas", inner="object", chunk_bytes=CHUNK),
    "faulty-over-file": dict(name="faulty", inner="file"),
    "faulty-over-object": dict(name="faulty", inner="object"),
}


@pytest.fixture(params=sorted(BACKENDS))
def store(request, tmp_path):
    store = create_store(root=tmp_path / "store", **BACKENDS[request.param])
    yield store
    if isinstance(store, TierChain):
        store.wait_drained(timeout=30.0)
        store.close()


def _state(tensors, each):
    rng = np.random.default_rng(tensors)
    return {"model": {f"w{i}": rng.standard_normal(each).astype(np.float32)
                      for i in range(tensors)},
            "step": 7}


def _save(store, state, tag="ckpt"):
    """Commit ``state`` as a two-part checkpoint of rank 0; its part names."""
    with create_real_engine("deepspeed", store,
                            policy=CheckpointPolicy(shards_per_rank=2)) as engine:
        engine.save(state, tag=tag, iteration=0)
        engine.wait_all()
    if isinstance(store, TierChain):
        store.wait_drained(timeout=30.0)
    names = [record["name"] for record in store.read_manifest(tag)["shards"]]
    assert len(names) == 2
    return names


class _CountingReads:
    """Forwards everything to ``inner``; records each shard read it sees."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def read_shard(self, tag, shard_name, out=None):
        self.calls.append(("read_shard", shard_name, out is not None))
        return self._inner.read_shard(tag, shard_name, out=out)

    def read_shard_range(self, tag, shard_name, offset, length):
        self.calls.append(("read_shard_range", shard_name, offset, length))
        return self._inner.read_shard_range(tag, shard_name, offset, length)


def test_every_store_is_a_shard_store_with_ranged_reads(store):
    assert "read_shard_range" in ShardStore.__dict__
    assert isinstance(store, ShardStore)


def test_ranged_reads_are_slices_of_the_whole_read(store):
    for name in _save(store, _state(tensors=8, each=24 * 1024)):
        whole = bytes(store.read_shard("ckpt", name))
        size = len(whole)
        assert size == store.shard_size("ckpt", name) > 2 * CHUNK
        third = size // 3
        for offset, length in ((0, 0), (0, size), (third, third), (size - 1, 1)):
            got = store.read_shard_range("ckpt", name, offset, length)
            assert bytes(got) == whole[offset:offset + length], (offset, length)


def test_out_of_range_and_missing_shards_raise(store):
    name = _save(store, _state(tensors=4, each=1024))[0]
    size = store.shard_size("ckpt", name)
    for offset, length in ((size, 1), (0, size + 1), (-1, 2), (0, -1)):
        with pytest.raises(CheckpointError):
            store.read_shard_range("ckpt", name, offset, length)
    with pytest.raises(CheckpointError):
        store.read_shard_range("ckpt", "no-such-part", 0, 1)
    with pytest.raises(CheckpointError):
        store.read_shard_range("no-such-tag", name, 0, 1)
    with pytest.raises(CheckpointError):
        store.read_shard("ckpt", "no-such-part")


def test_unmapped_restore_is_one_landing_read_per_part(store):
    """A part over 8 MiB is still one ``read_shard(out=)``: no store, local
    or remote, is read in ranges by a restore."""
    state = _state(tensors=2, each=9 << 18)  # one 9 MiB float32 tensor a part
    names = _save(store, state)
    assert min(store.shard_size("ckpt", name) for name in names) > 8 << 20

    counting = _CountingReads(store)
    restored = CheckpointLoader(counting).restore(
        RestoreSpec.of_rank(0, tag="ckpt", use_mmap=False))

    assert sorted(counting.calls) == sorted(
        ("read_shard", name, True) for name in names)
    assert restored["step"] == state["step"]
    for key, expected in state["model"].items():
        assert restored["model"][key].tobytes() == expected.tobytes(), key
