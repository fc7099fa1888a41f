"""A deterministic per-tensor budget for the datastates save path.

Call counts, not times: between ``save()`` returning and the manifest vote
nothing may cost a call chain per tensor.  The pipeline stages and writes
*extents* (runs of file-adjacent tensors, at most 4 MiB or a quarter of the
pool), so the number of pool allocations and of ``pwrite`` calls is set by the
bytes of the state and does not move when the same bytes are cut into twice as
many tensors.
"""

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import DataStatesCheckpointEngine
from repro.core.lazy_snapshot import MAX_EXTENT_BYTES
from repro.io import FileStore
from repro.restart import RestoreSpec
from repro.serialization import build_header, plan_extents
from repro.tensor import flatten_state_dict

STATE_BYTES = 8 << 20
POOL_BYTES = 32 << 20


class _CountingFileStore(FileStore):
    """Counts every ``pwrite`` issued through the writers it hands out."""

    def __init__(self, root):
        super().__init__(root)
        self.pwrites = 0
        self.pwrite_bytes = 0

    def create_shard_writer(self, tag, shard_name, total_bytes):
        writer = super().create_shard_writer(tag, shard_name, total_bytes)
        real = writer.pwrite

        def pwrite(offset, data):
            self.pwrites += 1
            written = real(offset, data)
            self.pwrite_bytes += written
            return written

        writer.pwrite = pwrite
        return writer


def _state(tensors):
    each = STATE_BYTES // tensors // 4
    return {f"t{index:04d}": np.full(each, index, dtype=np.float32)
            for index in range(tensors)}


def _save_counting(tmp_path, tensors):
    state = _state(tensors)
    store = _CountingFileStore(tmp_path / f"n{tensors}")
    engine = DataStatesCheckpointEngine(
        store, policy=CheckpointPolicy(host_buffer_size=POOL_BYTES))
    allocations = []
    real_allocate = engine.pool.allocate

    def allocate(size, *args, **kwargs):
        allocations.append(size)
        return real_allocate(size, *args, **kwargs)

    engine.pool.allocate = allocate
    try:
        engine.save(state, tag="ckpt", iteration=0)
        engine.wait_all()
        restored = engine.load(RestoreSpec(tag="ckpt"))
    finally:
        engine.shutdown()
    for key, value in state.items():
        np.testing.assert_array_equal(restored[key], value)
    header = build_header(flatten_state_dict(state))
    extents = len(plan_extents(header.entries, min(MAX_EXTENT_BYTES, POOL_BYTES // 4)))
    shard_bytes = store.shard_size("ckpt", "rank0")
    assert store.pwrite_bytes == shard_bytes
    return extents, store.pwrites, len(allocations)


@pytest.mark.parametrize("tensors", [512, 1024])
def test_pwrites_and_pool_allocations_are_per_extent(tmp_path, tensors):
    extents, pwrites, allocations = _save_counting(tmp_path, tensors)
    assert extents == STATE_BYTES // MAX_EXTENT_BYTES  # 2: a matter of bytes
    assert pwrites <= extents + 1  # + the preamble
    assert allocations <= extents


def test_doubling_the_tensor_count_at_equal_bytes_adds_no_calls(tmp_path):
    assert _save_counting(tmp_path, 512) == _save_counting(tmp_path, 1024)
