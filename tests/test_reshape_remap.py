"""The elastic remap: bit-identity against an independent oracle, what it reads
and what it holds.

``repro.restart.reshape`` shards, merges and reshapes through one copy
primitive, so checking those against each other proves little.  The oracle
here is plain NumPy indexing — ``np.ascontiguousarray(full[tp_index])
.reshape(-1)[lo:hi]`` with ``lo, hi`` from ``divmod`` arithmetic — and calls
nothing from that module.  The second half pins the resource claims: a reshaped
restore opens only the source ranks it needs, leaves no shard mapping or file
descriptor behind even with the cyclic GC off (and even when it fails midway),
holds about one copy of what it returns, runs its copies on every prefetch
worker, and gives each target rank its own ``extra``; and
``save_elastic_checkpoint`` copies no slice (every slice it hands an engine is
a view of the caller's arrays, a strided one gathered by the writer threads a
bounded piece at a time), writes the bytes a save of owned copies writes, and
joins every thread it started.
"""

import contextlib
import gc
import itertools
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CheckpointPolicy
from repro.core import ENGINE_NAMES
from repro.exceptions import CheckpointError, ConsistencyError, RestartError
from repro.io import CASStore, FaultPlan, FaultyStore, FileStore, create_store
from repro.parallelism.partition import balanced_contiguous_partition
from repro.restart import (
    CheckpointLoader,
    RestoreSpec,
    elastic_topology,
    merge_full_state,
    reshape_checkpoint,
    reshape_state_dicts,
    save_elastic_checkpoint,
    shard_full_state,
)
from repro.restart import loader as loader_module
from repro.serialization import (
    MAX_EXTENT_BYTES,
    CheckpointTopology,
    decode_preamble,
    tensor_bytes,
)
from repro.tensor import StridedSlice

V1_FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "v1_checkpoint"
V1_FIXTURE_TAG = "ckpt-000004"
FAST_POLICY = CheckpointPolicy(host_buffer_size=4 << 20)
DTYPES = (np.float16, np.float32, np.float64, np.int64)


# ---------------------------------------------------------------------------
# The oracle (plain indexing; nothing from repro.restart.reshape)
# ---------------------------------------------------------------------------

def _part(total, parts, index):
    base, extra = divmod(total, parts)
    lo = index * base + min(index, extra)
    return lo, lo + base + (1 if index < extra else 0)


def oracle_slice(full, axis, grid, d, t):
    dp, _pp, tp = grid
    index = [slice(None)] * full.ndim
    if axis is not None:
        index[axis] = slice(*_part(full.shape[axis], tp, t))
    lo, hi = _part(full[tuple(index)].size, dp, d)
    return np.ascontiguousarray(full[tuple(index)]).reshape(-1)[lo:hi]


def oracle_states(full_state, axes, grid):
    """``{rank: {"model": {key: slice}, "zero": {key: {name: slice}}}}``."""
    dp, pp, tp = grid
    keys = sorted(full_state["model"])
    weights = [full_state["model"][key].size for key in keys]
    stages = balanced_contiguous_partition(weights, pp)
    states = {}
    for d in range(dp):
        for p in range(pp):
            for t in range(tp):
                model, zero = {}, {}
                for position in stages[p]:
                    key = keys[position]
                    model[key] = oracle_slice(full_state["model"][key], axes.get(key),
                                              grid, d, t)
                    if key in full_state.get("zero", {}):
                        zero[key] = {name: oracle_slice(buf, axes.get(key), grid, d, t)
                                     for name, buf in full_state["zero"][key].items()}
                states[d * pp * tp + p * tp + t] = {"model": model, "zero": zero}
    return states


def assert_bits(actual, expected, what):
    assert isinstance(actual, np.ndarray), what
    assert actual.dtype == expected.dtype and actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


def assert_owned(array, what):
    """Writable, and a view of memory the restore allocated: its ``.base``
    chain ends in an ndarray that owns its data — never a map or bytes."""
    assert array.flags.writeable, what
    while not array.flags.owndata:
        array = array.base
        assert isinstance(array, np.ndarray), (what, type(array))


def assert_own_extra(state, full):
    """``state`` holds a deep copy of ``full``'s ``extra``, if it has one."""
    assert ("extra" in state) == ("extra" in full)
    if "extra" in full:
        assert state["extra"] is not full["extra"]
        assert state["extra"]["iteration"] == full["extra"]["iteration"]
        assert_bits(state["extra"]["step"], full["extra"]["step"], "extra")
        assert not np.shares_memory(state["extra"]["step"], full["extra"]["step"])


def assert_matches_oracle(states, expected, ranks=None, owned=True):
    ranks = sorted(expected) if ranks is None else ranks
    assert sorted(states) == list(ranks)
    for rank in ranks:
        got, want = states[rank], expected[rank]
        assert list(got["model"]) == list(want["model"]), rank
        assert sorted(got.get("zero", {})) == sorted(want["zero"]), rank
        pairs = [(got["model"][key], want["model"][key], (rank, key))
                 for key in want["model"]]
        pairs += [(got["zero"][key][name], buf, (rank, key, name))
                  for key, bufs in want["zero"].items() for name, buf in bufs.items()]
        for actual, wanted, what in pairs:
            assert_bits(actual, wanted, what)
            if owned:
                assert_owned(actual, what)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def full_states(draw, max_tensors=4):
    """A full state of awkward tensors: extents 0..9, any valid partition axis
    (or replicated), four dtypes, payloads of random bits (so NaNs of every
    payload), with or without optimizer buffers and ``extra``."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    model, axes = {}, {}
    for index in range(draw(st.integers(1, max_tensors))):
        shape = tuple(draw(st.lists(st.integers(0, 9), min_size=1, max_size=3)))
        dtype = np.dtype(draw(st.sampled_from(DTYPES)))
        count = int(np.prod(shape))
        raw = rng.integers(0, 256, count * dtype.itemsize, dtype=np.uint8)
        key = f"t{index}"
        model[key] = raw.view(dtype).reshape(shape)
        axes[key] = draw(st.sampled_from([None, *range(len(shape))]))
    state = {"model": model}
    if draw(st.booleans()):
        state["zero"] = {
            key: {name: rng.integers(0, 256, array.nbytes, dtype=np.uint8)
                  .view(array.dtype).reshape(array.shape) for name in ("m", "v")}
            for key, array in model.items()}
    if draw(st.booleans()):
        state["extra"] = {"iteration": seed % 1000, "step": np.arange(3)}
    return state, axes


def grids(limit):
    return st.tuples(*[st.integers(1, limit)] * 3)


def topology_of(model, axes, grid, shards_per_rank=1):
    return elastic_topology(model, *grid, axes=axes, shards_per_rank=shards_per_rank)


# ---------------------------------------------------------------------------
# Bit-identity: in memory
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(full_states(), grids(4), grids(4))
def test_shard_merge_reshape_match_the_oracle(drawn, source_grid, target_grid):
    full, axes = drawn
    source = topology_of(full["model"], axes, source_grid)
    target = topology_of(full["model"], axes, target_grid)
    at_source, at_target = (oracle_states(full, axes, grid)
                            for grid in (source_grid, target_grid))

    sharded = shard_full_state(full, source)
    assert_matches_oracle(sharded, at_source)
    for rank, state in sharded.items():
        d, rest = divmod(rank, source_grid[1] * source_grid[2])
        assert state["elastic"] == {"format": 1, "coord": [d, *divmod(rest, source_grid[2])]}
        assert_own_extra(state, full)

    reshaped = reshape_state_dicts(sharded, source, target)
    assert_matches_oracle(reshaped, at_target)
    # A bare target grid inherits the source's partition table.
    assert_matches_oracle(
        reshape_state_dicts(sharded, source, CheckpointTopology(*target_grid)), at_target)
    # An identity reshape reproduces every rank's arrays.
    assert_matches_oracle(reshape_state_dicts(sharded, source, source), at_source)

    merged = merge_full_state(reshaped, target)
    assert list(merged["model"]) == sorted(full["model"])
    for key, array in full["model"].items():
        assert_bits(merged["model"][key], array, key)
        assert merged["model"][key].flags.writeable
        for name, buf in full.get("zero", {}).get(key, {}).items():
            assert_bits(merged["zero"][key][name], buf, (key, name))
    assert ("extra" in merged) == ("extra" in full)


def test_replicated_checkpoint_takes_a_partition_axis_at_restore():
    """Saved at tp=1 (where the axis table is moot), restored onto tp=3 with the
    Megatron table: the whole tensor re-splits along whatever axis the target
    names.  Two grids that both split, along different axes, are refused."""
    rng = np.random.default_rng(5)
    full = {"model": {"w": rng.standard_normal((6, 7)).astype(np.float32)}}
    source = topology_of(full["model"], {}, (2, 1, 1))
    target = topology_of(full["model"], {"w": 1}, (1, 1, 3))
    reshaped = reshape_state_dicts(shard_full_state(full, source), source, target)
    assert_matches_oracle(reshaped, oracle_states(full, {"w": 1}, (1, 1, 3)))

    rows = topology_of(full["model"], {"w": 0}, (1, 1, 2))
    with pytest.raises(RestartError, match="axis"):
        reshape_state_dicts(shard_full_state(full, rows), rows, target)


# ---------------------------------------------------------------------------
# Bit-identity: over a real saved checkpoint
# ---------------------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(full_states(max_tensors=3), grids(2), grids(2),
       st.sampled_from(["file", "object"]), st.sampled_from([1, 3]), st.data())
def test_restore_reshaped_matches_the_oracle(drawn, source_grid, target_grid,
                                             store_name, shards_per_rank, data):
    full, axes = drawn
    source = topology_of(full["model"], axes, source_grid, shards_per_rank)
    target = topology_of(full["model"], axes, target_grid)
    expected = oracle_states(full, axes, target_grid)
    with tempfile.TemporaryDirectory() as root:
        store = create_store(store_name, root=root)
        save_elastic_checkpoint(store, full, source, tag="ckpt", policy=FAST_POLICY)
        loader = CheckpointLoader(store)
        everything = loader.restore(RestoreSpec.full(tag="ckpt").reshaped(target))
        assert_matches_oracle(everything, expected)
        rank = data.draw(st.integers(0, len(expected) - 1))
        one = loader.restore(RestoreSpec.of_rank(rank, tag="ckpt").reshaped(target))
        assert_matches_oracle({rank: one}, expected, ranks=[rank])
        for state in (one, everything[0]):
            assert_own_extra(state, full)
            if "extra" in full:
                assert state["extra"]["step"].flags.owndata


# ---------------------------------------------------------------------------
# A fixed model on a counting store
# ---------------------------------------------------------------------------

class CountingStore:
    """Forwards to ``inner``; records every shard read, mapped or ranged."""

    READS = ("read_shard", "open_shard_mmap", "read_shard_range")

    def __init__(self, inner):
        self._inner = inner
        self.opened = []

    def __getattr__(self, name):
        target = getattr(self._inner, name)
        if name not in self.READS:
            return target

        def call(tag, shard_name, *args, **kwargs):
            self.opened.append((tag, shard_name))
            return target(tag, shard_name, *args, **kwargs)

        return call


def fixed_state(rows=8, seed=0):
    """Two pipeline stages' worth: per stage a row-split, a column-split and a
    replicated tensor, with one optimizer buffer each."""
    rng = np.random.default_rng(seed)
    model = {}
    for stage in "ab":
        model[f"{stage}.cols"] = rng.standard_normal((rows, 12)).astype(np.float32)
        model[f"{stage}.norm"] = rng.standard_normal((12,)).astype(np.float32)
        model[f"{stage}.rows"] = rng.standard_normal((2 * rows, 6)).astype(np.float32)
    axes = {key: (1 if key.endswith("cols") else 0)
            for key in model if not key.endswith("norm")}
    zero = {key: {"m": rng.standard_normal(array.shape).astype(array.dtype)}
            for key, array in model.items()}
    return {"model": model, "zero": zero, "extra": {"iteration": 9}}, axes


def save_rank_states(store, states, topology, engine="deepspeed", iteration=-1):
    # Imported here so the tests that do not tamper also run against older trees.
    from repro.restart.reshape import _save_rank_states

    _save_rank_states(store, states, topology, "ckpt", engine, iteration, FAST_POLICY)


def saved(root, source_grid=(1, 2, 2), shards_per_rank=2, tamper=None, **state_kwargs):
    """A committed checkpoint of :func:`fixed_state`; ``tamper(states)`` may edit
    the per-rank states before they are saved."""
    full, axes = fixed_state(**state_kwargs)
    source = topology_of(full["model"], axes, source_grid, shards_per_rank)
    store = FileStore(root)
    if tamper is None:
        save_elastic_checkpoint(store, full, source, tag="ckpt", policy=FAST_POLICY)
    else:
        states = shard_full_state(full, source)
        tamper(states)
        save_rank_states(store, states, source)
    return store, full, axes, source


def parts_of(store, ranks):
    manifest = CheckpointLoader(store).manifest("ckpt")
    return sorted(("ckpt", record.name) for record in manifest.shards
                  if record.rank in ranks)


def test_single_rank_restore_opens_only_its_source_ranks(tmp_path):
    inner, full, axes, _source = saved(tmp_path)
    target = topology_of(full["model"], axes, (2, 2, 1))
    expected = oracle_states(full, axes, (2, 2, 1))
    store = CountingStore(inner)
    loader = CheckpointLoader(store)

    state = loader.restore(RestoreSpec.of_rank(0, tag="ckpt").reshaped(target))
    assert_matches_oracle({0: state}, expected, ranks=[0])
    # Target rank 0 sits in stage 0: source ranks 0 and 1 (its two TP ranks),
    # nothing of stage 1's ranks 2 and 3.
    assert sorted(store.opened) == parts_of(inner, {0, 1})

    store.opened.clear()
    everything = loader.restore(RestoreSpec.full(tag="ckpt").reshaped(target))
    assert_matches_oracle(everything, expected)
    assert sorted(store.opened) == parts_of(inner, {0, 1, 2, 3})  # each part once


def test_row_split_slice_comes_from_one_tensor_rank(tmp_path):
    """Stage 0 holding only row-split and replicated tensors, the first DP half
    of each is all on TP rank 0: rank 1 is not even opened."""
    rng = np.random.default_rng(1)
    model = {"rows": rng.standard_normal((8, 4)).astype(np.float32),
             "norm": rng.standard_normal((4,)).astype(np.float32)}
    source = topology_of(model, {"rows": 0}, (1, 1, 2))
    inner = FileStore(tmp_path)
    save_elastic_checkpoint(inner, {"model": model}, source, tag="ckpt", policy=FAST_POLICY)
    store = CountingStore(inner)
    target = topology_of(model, {"rows": 0}, (2, 1, 1))
    state = CheckpointLoader(store).restore(
        RestoreSpec.of_rank(0, tag="ckpt").reshaped(target))
    assert_matches_oracle({0: state}, oracle_states({"model": model}, {"rows": 0}, (2, 1, 1)),
                          ranks=[0])
    assert sorted(store.opened) == parts_of(inner, {0})


def test_loud_failures_read_no_shard(tmp_path):
    inner, full, axes, _source = saved(tmp_path / "ok")
    store = CountingStore(inner)
    loader = CheckpointLoader(store)
    target = topology_of(full["model"], axes, (2, 1, 2))
    spec = RestoreSpec.full(tag="ckpt")

    fewer = {key: array for key, array in full["model"].items() if key != "a.norm"}
    other_keys = elastic_topology(fewer, 2, axes=axes)
    reshaped_model = dict(full["model"], **{"a.norm": np.zeros((3, 4), np.float32)})
    other_shape = elastic_topology(reshaped_model, 2, axes=axes)
    for bad in (other_keys, other_shape):
        with pytest.raises(RestartError, match="partition table"):
            loader.restore(spec.reshaped(bad))
    with pytest.raises(RestartError, match="outside the target topology"):
        loader.restore(RestoreSpec.of_rank(4, tag="ckpt").reshaped(target))

    # A source rank the manifest holds no shards of.
    manifest = loader.manifest("ckpt")
    pruned = manifest.to_json()
    pruned["shards"] = [record for record in pruned["shards"] if record["rank"] != 3]
    inner.write_manifest("ckpt", pruned)
    with pytest.raises(RestartError, match="source ranks"):
        loader.restore(spec.reshaped(target))
    assert store.opened == []

    v1 = CountingStore(FileStore(V1_FIXTURE_ROOT))
    with pytest.raises(RestartError, match="topology"):
        CheckpointLoader(v1).restore(
            RestoreSpec.full(tag=V1_FIXTURE_TAG).reshaped(CheckpointTopology(2)))
    assert v1.opened == []


def test_in_memory_loud_failures():
    full, axes = fixed_state()
    source = topology_of(full["model"], axes, (2, 1, 2))
    target = topology_of(full["model"], axes, (1, 1, 4))
    states = shard_full_state(full, source)

    missing = {rank: state for rank, state in states.items() if rank != 3}
    for call in (lambda: merge_full_state(missing, source),
                 lambda: reshape_state_dicts(missing, source, target)):
        with pytest.raises(RestartError, match="needs ranks"):
            call()

    short = shard_full_state(full, source)
    short[1]["model"]["a.cols"] = short[1]["model"]["a.cols"][:-1]
    with pytest.raises(RestartError, match="elements"):
        reshape_state_dicts(short, source, target)
    lost = shard_full_state(full, source)
    del lost[2]["zero"]["b.rows"]["m"]
    with pytest.raises(RestartError, match="optimizer buffer 'm'"):
        merge_full_state(lost, source)


# ---------------------------------------------------------------------------
# spec.validate reaches the reshape half
# ---------------------------------------------------------------------------

def _swap_tensor_ranks(states):
    states[0], states[1] = states[1], states[0]


def _corrupt_replica(states):
    states[1]["model"]["a.norm"] = states[1]["model"]["a.norm"] + 1


@pytest.mark.parametrize("tamper, message", [
    (_swap_tensor_ranks, "records coordinate"),
    (_corrupt_replica, "replicated tensor 'a.norm' differs"),
])
def test_validate_flag_reaches_the_remap(tamper, message, tmp_path):
    """Both checks see what per-shard CRCs cannot (every shard here is valid);
    ``validate=False`` skips them along with the CRCs."""
    store, full, axes, _source = saved(tmp_path, source_grid=(1, 1, 2), tamper=tamper)
    target = topology_of(full["model"], axes, (2, 1, 1))
    loader = CheckpointLoader(store)
    for spec in (RestoreSpec.full(tag="ckpt"), RestoreSpec.of_rank(0, tag="ckpt")):
        with pytest.raises(RestartError, match=message):
            loader.restore(spec.reshaped(target))
    unchecked = loader.restore(RestoreSpec.full(tag="ckpt", validate=False).reshaped(target))
    assert sorted(unchecked) == [0, 1]
    if tamper is _corrupt_replica:  # replicated tensors come from TP rank 0
        assert_matches_oracle(unchecked, oracle_states(full, axes, (2, 1, 1)))


# ---------------------------------------------------------------------------
# It holds only what it returns, and lets go of the rest
# ---------------------------------------------------------------------------

def _shard_maps():
    with open("/proc/self/maps", encoding="utf-8") as maps:
        return [line for line in maps if ".shard" in line]


def _truncate_a_slice(states):
    states[1]["model"]["a.cols"] = states[1]["model"]["a.cols"][:-2]


@contextlib.contextmanager
def nothing_left_open():
    """With the cyclic GC off, the block must leave no shard mapped and no
    file descriptor open that was not open before it."""
    gc.collect()
    gc.disable()
    try:
        descriptors = len(os.listdir("/proc/self/fd"))
        yield
        assert _shard_maps() == []
        assert len(os.listdir("/proc/self/fd")) == descriptors
    finally:
        gc.enable()


@pytest.mark.parametrize("tamper", [None, _truncate_a_slice])
def test_no_mapping_or_descriptor_outlives_the_restore(tamper, tmp_path):
    store, full, axes, _source = saved(tmp_path, tamper=tamper)
    target = topology_of(full["model"], axes, (2, 1, 1))
    loader = CheckpointLoader(store)
    spec = RestoreSpec.full(tag="ckpt").reshaped(target)
    with nothing_left_open():
        if tamper is None:
            states = loader.restore(spec)
            assert_matches_oracle(states, oracle_states(full, axes, (2, 1, 1)))
        else:
            # Held on purpose: the traceback must not pin a view either.
            with pytest.raises(RestartError, match="elements") as failure:
                loader.restore(spec)
            assert failure.value is not None


def _state_nbytes(state):
    return sum(array.nbytes for array in state["model"].values()) + sum(
        buf.nbytes for bufs in state["zero"].values() for buf in bufs.values())


def test_reshaped_restore_holds_about_one_copy(tmp_path):
    store, full, axes, _source = saved(tmp_path, source_grid=(1, 1, 2), rows=16384)
    nbytes = _state_nbytes(full)
    assert nbytes > 4 << 20
    target = topology_of(full["model"], axes, (2, 1, 1))
    loader = CheckpointLoader(store)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        states = loader.restore(RestoreSpec.full(tag="ckpt").reshaped(target))
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert sum(_state_nbytes(state) for state in states.values()) == nbytes
    assert peak < 1.3 * nbytes, (peak / nbytes)
    assert live < 1.1 * nbytes, (live / nbytes)   # and no gc.collect() ran


# ---------------------------------------------------------------------------
# The copies run on every prefetch worker, and each rank owns what it gets
# ---------------------------------------------------------------------------

def _set_depth(monkeypatch, depth):
    monkeypatch.setattr(loader_module, "PREFETCH_DEPTH", depth)


def _to_dp2(made):
    """``(store, spec, expected)``: a :func:`saved` checkpoint, the spec of
    its full-grid restore onto dp2 x tp1, and the oracle's states for it."""
    store, full, axes, _source = made
    target = topology_of(full["model"], axes, (2, 1, 1))
    return (store, RestoreSpec.full(tag="ckpt").reshaped(target),
            oracle_states(full, axes, (2, 1, 1)))


@pytest.mark.parametrize("depth", [1, 4])
def test_reshaped_copy_runs_on_every_prefetch_worker(depth, monkeypatch, tmp_path):
    """No timing: at depth 4, every group's copy waits on a two-party barrier,
    which a serial copy never passes.  At depth 1 the consumer copies the
    one group itself.  Either way each move is copied exactly once, into
    owned, writable arrays."""
    store, spec, expected = _to_dp2(saved(tmp_path))
    real_copy, consumer = loader_module.copy_pairs, threading.current_thread()
    barrier = threading.Barrier(2, timeout=10) if depth > 1 else None
    copied, copied_lock = [], threading.Lock()

    def copy_in_pairs(pairs, indices):
        with copied_lock:
            copied.append((threading.current_thread(), list(indices), len(pairs)))
        if barrier is not None:
            barrier.wait()
        real_copy(pairs, indices)

    monkeypatch.setattr(loader_module, "copy_pairs", copy_in_pairs)
    _set_depth(monkeypatch, depth)
    with nothing_left_open():
        states = CheckpointLoader(store).restore(spec)
    assert_matches_oracle(states, expected)
    (moves,) = {count for _thread, _indices, count in copied}
    assert sorted(index for _thread, indices, _count in copied for index in indices) == \
        list(range(moves))
    threads = {thread for thread, _indices, _count in copied}
    assert len(copied) == depth and consumer in threads
    assert (threads == {consumer}) == (depth == 1)


def _fail_one_worker_copy(monkeypatch):
    """The first copy group a prefetch worker runs, not the consumer, raises
    ``MemoryError``; returns the count of worker groups begun so far."""
    real_copy, consumer = loader_module.copy_pairs, threading.current_thread()
    worker_copies = itertools.count()

    def copy_or_fail(pairs, indices):
        if threading.current_thread() is not consumer and next(worker_copies) == 0:
            raise MemoryError("injected copy failure")
        real_copy(pairs, indices)

    monkeypatch.setattr(loader_module, "copy_pairs", copy_or_fail)
    return worker_copies


def test_failed_worker_copy_of_a_reshaped_restore_is_a_restart_error(monkeypatch, tmp_path):
    store, spec, _expected = _to_dp2(saved(tmp_path))
    _fail_one_worker_copy(monkeypatch)
    _set_depth(monkeypatch, 4)
    with nothing_left_open():
        # Held on purpose: the traceback must not pin a view either.
        with pytest.raises(RestartError, match="injected copy failure") as failure:
            CheckpointLoader(store).restore(spec)
        assert failure.value is not None


def _flip_a_copied_byte(store):
    """Flip the first payload byte of a tensor of rank 0 that is copied, not
    compared as a replica: its shard decodes, and only its CRC32 fails."""
    path = sorted(store.checkpoint_dir("ckpt").glob("rank0*.shard"))[0]
    raw = bytearray(path.read_bytes())
    header, _skeleton, payload_start = decode_preamble(bytes(raw))
    entry = next(entry for entry in header.entries if "norm" not in entry.key)
    raw[payload_start + entry.offset] ^= 0xFF
    path.write_bytes(bytes(raw))


def test_corrupt_byte_outranks_a_failed_copy_of_a_reshaped_restore(monkeypatch, tmp_path):
    store, spec, _expected = _to_dp2(saved(tmp_path))
    _flip_a_copied_byte(store)
    worker_copies = _fail_one_worker_copy(monkeypatch)
    _set_depth(monkeypatch, 4)
    with nothing_left_open():
        with pytest.raises(ConsistencyError, match="checksum"):
            CheckpointLoader(store).restore(spec)
    assert next(worker_copies) > 0  # the injected copy failure fired


@pytest.mark.parametrize("depth", [1, 4])
def test_a_reshaped_restore_compares_a_replica_with_its_source(depth, monkeypatch, tmp_path):
    """The copies never run here: a replica is compared with TP rank 0's
    source, so an intact one passes and a corrupt one fails, whatever the
    target arrays hold."""
    intact, spec, _expected = _to_dp2(saved(tmp_path / "intact", source_grid=(1, 1, 2)))
    tampered = saved(tmp_path / "tampered", source_grid=(1, 1, 2), tamper=_corrupt_replica)[0]
    monkeypatch.setattr(loader_module, "copy_pairs", lambda pairs, indices: None)
    _set_depth(monkeypatch, depth)
    assert sorted(CheckpointLoader(intact).restore(spec)) == [0, 1]
    with pytest.raises(RestartError, match="replicated tensor 'a.norm' differs"):
        CheckpointLoader(tampered).restore(spec)


@pytest.mark.parametrize("use_mmap", [True, False])
def test_each_reshaped_rank_gets_its_own_extra(use_mmap, tmp_path):
    """A step bump on one restored rank leaves every other rank's alone."""
    full, axes = fixed_state()
    full["extra"] = {"iteration": 9, "step": np.arange(3)}
    source = topology_of(full["model"], axes, (1, 1, 2), shards_per_rank=2)
    store = FileStore(tmp_path)
    save_elastic_checkpoint(store, full, source, tag="ckpt", policy=FAST_POLICY)
    target = topology_of(full["model"], axes, (2, 1, 1))
    states = CheckpointLoader(store).restore(
        RestoreSpec.full(tag="ckpt", use_mmap=use_mmap).reshaped(target))
    assert states[0]["extra"] is not states[1]["extra"]
    states[0]["extra"]["step"] += 1
    assert_bits(states[0]["extra"]["step"], np.arange(1, 4), "bumped")
    assert_bits(states[1]["extra"]["step"], np.arange(3), "untouched")
    assert states[1]["extra"]["iteration"] == 9


def test_in_memory_remaps_give_each_rank_its_own_extra():
    """Sharding, reshaping and merging in memory copy ``extra`` per rank: a
    step bump on one rank reaches neither another rank nor the caller."""
    full, axes = fixed_state()
    full["extra"] = {"iteration": 9, "step": np.arange(3)}
    source = topology_of(full["model"], axes, (1, 1, 2))
    target = topology_of(full["model"], axes, (2, 1, 1))
    sharded = shard_full_state(full, source)
    reshaped = reshape_state_dicts(sharded, source, target)
    merged = merge_full_state(reshaped, target)
    for state in (*sharded.values(), *reshaped.values(), merged):
        assert_own_extra(state, full)
    sharded[0]["extra"]["step"] += 1
    reshaped[0]["extra"]["step"] += 1
    for state in (full, sharded[1], reshaped[1], merged):
        assert_bits(state["extra"]["step"], np.arange(3), "untouched")


def test_offline_reshape_never_builds_the_full_model(tmp_path):
    store, full, axes, _source = saved(tmp_path / "src", source_grid=(1, 1, 2), rows=16384)
    nbytes = _state_nbytes(full)
    target = topology_of(full["model"], axes, (2, 1, 1))
    dest = FileStore(tmp_path / "dst")
    gc.collect()
    tracemalloc.start()
    try:
        reshape_checkpoint(store, target, tag="ckpt", dest_store=dest, engine="deepspeed")
        _live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The target states plus the engines' serialised parts, not two more models.
    assert peak < 3.5 * nbytes, (peak / nbytes)
    restored = CheckpointLoader(dest).restore(RestoreSpec.full())
    assert_matches_oracle(restored, oracle_states(full, axes, (2, 1, 1)))


# ---------------------------------------------------------------------------
# A restored rank's large arrays are views of one slab
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 80), max_size=3),
                          st.sampled_from([*DTYPES, np.int8, np.complex128])),
                max_size=10))
def test_slab_empty_arrays_property(specs):
    """Shapes and dtypes as asked; an array of ``SLAB_MIN_BYTES`` or more is
    a view of the one slab on a 64-byte boundary, a smaller one owns its
    data; every array is writable and none overlaps another."""
    specs = [(tuple(shape), np.dtype(dtype)) for shape, dtype in specs]
    arrays = loader_module.empty_arrays(specs)
    assert [(array.shape, array.dtype) for array in arrays] == specs
    large = [array for array in arrays if array.nbytes >= loader_module.SLAB_MIN_BYTES]
    assert len({id(array.base) for array in large}) <= 1
    for array in arrays:
        assert array.flags.writeable and array.flags.c_contiguous
        if array.nbytes >= loader_module.SLAB_MIN_BYTES:
            assert array.base.flags.owndata and array.ctypes.data % 64 == 0
        else:
            assert array.flags.owndata
    for first, second in itertools.combinations(arrays, 2):
        assert not np.shares_memory(first, second)


# ---------------------------------------------------------------------------
# save_elastic_checkpoint shards by view
# ---------------------------------------------------------------------------

class RecordingEngine:
    def __init__(self, rank, saved_states):
        self.rank, self.saved_states = rank, saved_states

    def save(self, state, tag, iteration):
        self.saved_states[self.rank] = state

    def wait_all(self):
        pass

    def shutdown(self, wait=True):
        pass


def _gathered(state):
    """A handed state's slices as plain arrays, read as the engines read them."""
    def array(piece):
        data = b"".join(bytes(view) for view in tensor_bytes(piece))
        return np.frombuffer(data, dtype=piece.dtype)

    return {"model": {key: array(piece) for key, piece in state["model"].items()},
            "zero": {key: {name: array(buf) for name, buf in bufs.items()}
                     for key, bufs in state["zero"].items()}}


@pytest.mark.parametrize("grid", [(2, 1, 2), (3, 1, 1), (3, 1, 2)])
def test_save_hands_engines_views_where_a_slice_is_contiguous(grid, monkeypatch, tmp_path):
    """Every slice handed to an engine shares memory with the caller's arrays:
    a contiguous run is a view, any other slice a ``StridedSlice`` of views."""
    full, axes = fixed_state()
    handed = {}
    monkeypatch.setattr(
        "repro.core.create_real_engine",
        lambda name, store, rank, **kwargs: RecordingEngine(rank, handed))
    save_elastic_checkpoint(FileStore(tmp_path), full, topology_of(full["model"], axes, grid),
                            tag="ckpt")
    assert_matches_oracle({rank: _gathered(state) for rank, state in handed.items()},
                          oracle_states(full, axes, grid), owned=False)
    for state in handed.values():
        for key, piece in state["model"].items():
            strided = key.endswith("cols") and grid[2] > 1   # axis 1, rows > 1
            sources = [(piece, full["model"][key]),
                       (state["zero"][key]["m"], full["zero"][key]["m"])]
            for handed_slice, array in sources:
                assert isinstance(handed_slice, StridedSlice) == strided, key
                windows = handed_slice.windows if strided else [handed_slice]
                assert 1 <= len(windows) <= 3
                assert all(np.shares_memory(window, array) for window in windows), key
    if grid == (3, 1, 2):  # ZeRO ranges that cut rows: head, body and tail windows
        assert max(len(state["model"]["a.cols"].windows) for state in handed.values()) == 3


def _store_of(kind, root):
    if kind == "file":
        return FileStore(root)
    if kind == "object":
        return create_store("object")
    return CASStore(FileStore(root))


def _saved_bytes(kind, store, root):
    """Everything a store holds, by name: its files, or its in-memory objects."""
    if kind == "object":
        return dict(store._objects)
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(Path(root).rglob("*")) if path.is_file()}


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_view_sharded_save_writes_the_same_bytes(engine_name, tmp_path):
    """Every consumer of a strided slice — a writer thread or a streaming sink
    gathering it, a copy into a pool extent, a staging buffer or a serialized
    part — lands the bytes a save of owned copies lands, on every store."""
    full, axes = fixed_state()
    for grid in [(2, 1, 2), (3, 1, 2)]:
        topology = topology_of(full["model"], axes, grid, shards_per_rank=2)
        for kind in ("file", "object", "cas"):
            root = tmp_path / f"{kind}-dp{grid[0]}"
            by_view, by_copy = _store_of(kind, root / "view"), _store_of(kind, root / "copy")
            save_elastic_checkpoint(by_view, full, topology, tag="ckpt", engine=engine_name,
                                    iteration=3, policy=FAST_POLICY)
            save_rank_states(by_copy, shard_full_state(full, topology), topology,
                             engine=engine_name, iteration=3)
            viewed = _saved_bytes(kind, by_view, root / "view")
            copied = _saved_bytes(kind, by_copy, root / "copy")
            assert sorted(viewed) == sorted(copied), (kind, grid)
            assert len(viewed) >= topology.world_size * 2 + 1
            for name, data in viewed.items():
                assert data == copied[name], (kind, grid, name)


def test_a_strided_save_holds_one_gather_buffer_per_writer_thread(tmp_path):
    """Row-parallel weights and their moments at tp=2: every slice is strided.
    The writer threads gather them a piece at a time, so the save allocates
    about one bounded buffer per writer thread — not a copy of its slices."""
    rng = np.random.default_rng(11)
    shape = (64, 32768)   # float32, 8 MiB a tensor
    full = {"model": {"w": rng.random(shape, dtype=np.float32)},
            "zero": {"w": {name: rng.random(shape, dtype=np.float32) for name in "mv"}}}
    topology = topology_of(full["model"], {"w": 1}, (1, 1, 2))
    assert _state_nbytes(full) > 4 * MAX_EXTENT_BYTES
    writer_threads = topology.world_size * FAST_POLICY.flush_threads
    gc.collect()
    tracemalloc.start()
    try:
        save_elastic_checkpoint(FileStore(tmp_path), full, topology, tag="ckpt",
                                engine="torchsnapshot", policy=FAST_POLICY)
        _live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < writer_threads * MAX_EXTENT_BYTES + (1 << 20), peak / MAX_EXTENT_BYTES
    restored = CheckpointLoader(FileStore(tmp_path)).restore(RestoreSpec.full(tag="ckpt"))
    assert_matches_oracle(restored, oracle_states(full, {"w": 1}, (1, 1, 2)))


class _Rank0Writes:
    """Forwards to ``inner``; rank 0's shard writes fail — a streamed write at
    once, an offset-addressed one at its first payload ``pwrite``, with the
    writer threads running."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def write_shard(self, tag, shard_name, chunks):
        if shard_name.startswith("rank0"):
            raise OSError(f"injected: write_shard of {tag}/{shard_name}")
        return self._inner.write_shard(tag, shard_name, chunks)

    def create_shard_writer(self, tag, shard_name, total_bytes):
        writer = self._inner.create_shard_writer(tag, shard_name, total_bytes)
        return _PayloadPwriteFails(writer) if shard_name.startswith("rank0") else writer


class _PayloadPwriteFails:
    def __init__(self, writer):
        self._writer = writer

    def __getattr__(self, name):
        return getattr(self._writer, name)

    def pwrite(self, offset, data):
        if offset:
            raise OSError("injected: payload pwrite")
        return self._writer.pwrite(offset, data)


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_save_elastic_checkpoint_returns_with_every_thread_it_started_joined(
        engine_name, tmp_path):
    full, axes = fixed_state()
    topology = topology_of(full["model"], axes, (1, 1, 2), shards_per_rank=2)
    stores = {"clean": FileStore(tmp_path / "clean"),
              "rank 0 writes fail": _Rank0Writes(FileStore(tmp_path / "rank0")),
              "every write fails": FaultyStore(FileStore(tmp_path / "faulty"),
                                               FaultPlan(write_error_prob=1.0))}
    for what, store in stores.items():
        before = set(threading.enumerate())
        try:
            save_elastic_checkpoint(store, full, topology, tag="ckpt", engine=engine_name,
                                    policy=FAST_POLICY)
        except CheckpointError:
            assert what != "clean"
        else:
            assert what == "clean"
        assert set(threading.enumerate()) == before, what
