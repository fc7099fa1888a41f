"""The elastic remap: bit-identity against an independent oracle, what it reads
and what it holds.

``repro.restart.reshape`` shards, merges and reshapes through one copy
primitive, so checking those against each other proves little.  The oracle
here is plain NumPy indexing — ``np.ascontiguousarray(full[tp_index])
.reshape(-1)[lo:hi]`` with ``lo, hi`` from ``divmod`` arithmetic — and calls
nothing from that module.  The second half pins the resource claims: a reshaped
restore opens only the source ranks it needs, leaves no shard mapping or file
descriptor behind even with the cyclic GC off (and even when it fails midway),
holds about one copy of what it returns, and ``save_elastic_checkpoint`` hands
the engines views where a slice is one contiguous run of the caller's array.
"""

import gc
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CheckpointPolicy
from repro.core import ENGINE_NAMES
from repro.exceptions import RestartError
from repro.io import FileStore, create_store
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
from repro.serialization import CheckpointTopology

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
                assert actual.flags.owndata and actual.flags.writeable, what


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
        assert state.get("extra") is full.get("extra")

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
            assert ("extra" in state) == ("extra" in full)
            if "extra" in full:
                assert state["extra"]["iteration"] == full["extra"]["iteration"]
                assert_bits(state["extra"]["step"], full["extra"]["step"], "extra")
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


@pytest.mark.parametrize("tamper", [None, _truncate_a_slice])
def test_no_mapping_or_descriptor_outlives_the_restore(tamper, tmp_path):
    store, full, axes, _source = saved(tmp_path, tamper=tamper)
    target = topology_of(full["model"], axes, (2, 1, 1))
    loader = CheckpointLoader(store, prefetch_depth=2)
    spec = RestoreSpec.full(tag="ckpt").reshaped(target)
    gc.collect()
    gc.disable()
    try:
        descriptors = len(os.listdir("/proc/self/fd"))
        if tamper is None:
            states = loader.restore(spec)
            assert_matches_oracle(states, oracle_states(full, axes, (2, 1, 1)))
        else:
            # Held on purpose: the traceback must not pin a view either.
            with pytest.raises(RestartError, match="elements") as failure:
                loader.restore(spec)
            assert failure.value is not None
        assert _shard_maps() == []
        assert len(os.listdir("/proc/self/fd")) == descriptors
    finally:
        gc.enable()


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


@pytest.mark.parametrize("grid", [(2, 1, 2), (3, 1, 1)])
def test_save_hands_engines_views_where_a_slice_is_contiguous(grid, monkeypatch, tmp_path):
    full, axes = fixed_state()
    handed = {}
    monkeypatch.setattr(
        "repro.core.create_real_engine",
        lambda name, store, rank, **kwargs: RecordingEngine(rank, handed))
    save_elastic_checkpoint(FileStore(tmp_path), full, topology_of(full["model"], axes, grid),
                            tag="ckpt")
    assert_matches_oracle(handed, oracle_states(full, axes, grid), owned=False)
    for state in handed.values():
        for key, piece in state["model"].items():
            strided = key.endswith("cols") and grid[2] > 1   # axis 1, rows > 1
            sources = [(piece, full["model"][key]),
                       (state["zero"][key]["m"], full["zero"][key]["m"])]
            for handed_slice, array in sources:
                if handed_slice.size:
                    assert np.shares_memory(handed_slice, array) != strided, key


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_view_sharded_save_writes_the_same_bytes(engine_name, tmp_path):
    full, axes = fixed_state()
    topology = topology_of(full["model"], axes, (2, 1, 2), shards_per_rank=2)
    by_view, by_copy = FileStore(tmp_path / "view"), FileStore(tmp_path / "copy")
    save_elastic_checkpoint(by_view, full, topology, tag="ckpt", engine=engine_name,
                            iteration=3, policy=FAST_POLICY)
    save_rank_states(by_copy, shard_full_state(full, topology), topology,
                     engine=engine_name, iteration=3)
    files = sorted(path.name for path in (tmp_path / "view" / "ckpt").iterdir())
    assert files == sorted(path.name for path in (tmp_path / "copy" / "ckpt").iterdir())
    assert len(files) == 4 * 2 + 1
    for name in files:
        assert ((tmp_path / "view" / "ckpt" / name).read_bytes()
                == (tmp_path / "copy" / "ckpt" / name).read_bytes()), name
