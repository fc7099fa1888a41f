"""Elastic restart: topology-reshaping restores behind the RestoreSpec API.

Round-trip law under test: a checkpoint saved at one ``(dp, pp, tp)`` grid,
reshaped onto another, and merged back must be **bit-identical** to the
original full state — including NaN payloads, non-divisible shapes, and the
zero-length slices an uneven ZeRO partition produces.  The offline converter
(``reshape_checkpoint`` / ``repro reshape``) must additionally produce a
first-class committed checkpoint, and pre-v4 manifests (no topology block)
must keep restoring unchanged through the same ``RestoreSpec`` entry point.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.config import CheckpointPolicy
from repro.core import ENGINE_NAMES
from repro.exceptions import CheckpointError, RestartError
from repro.io import FileStore, create_store
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
V2_FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "v2_checkpoint"
V2_FIXTURE_TAG = "ckpt-000008"

#: Small pinned pool — these checkpoints are a few hundred KiB.
FAST_POLICY = CheckpointPolicy(host_buffer_size=4 << 20)


def make_model(seed=0):
    """Awkward shapes on purpose: 30 rows over tp=4 splits unevenly, the
    3-element bias over dp=8 leaves most ranks a zero-length slice, and the
    NaN probe must survive byte-exactly (an equality-based comparison would
    'pass' by accident)."""
    rng = np.random.default_rng(seed)
    model = {
        "embed": rng.standard_normal((30, 8)).astype(np.float32),
        "w1": rng.standard_normal((8, 20)).astype(np.float32),
        "w2": rng.standard_normal((20, 8)).astype(np.float64),
        "bias": rng.standard_normal((3,)).astype(np.float32),
        "scale": np.float32(0.125).reshape(()),
    }
    model["embed"][0, 0] = np.nan
    return model


AXES = {"embed": 0, "w1": 1, "w2": 0}


def make_full_state(seed=0):
    model = make_model(seed)
    rng = np.random.default_rng(seed + 1)
    zero = {
        key: {"m": rng.standard_normal(value.shape).astype(value.dtype),
              "v": np.abs(rng.standard_normal(value.shape)).astype(value.dtype)}
        for key, value in model.items()
    }
    return {"model": model, "zero": zero, "extra": {"iteration": 42, "lr": 1e-3}}


def topology(dp, pp=1, tp=1, shards_per_rank=1, model=None):
    return elastic_topology(model if model is not None else make_model(),
                            data_parallel=dp, pipeline_parallel=pp,
                            tensor_parallel=tp, axes=AXES,
                            shards_per_rank=shards_per_rank)


def assert_bit_identical(left, right):
    """NaN-safe byte-level equality of two full states."""
    assert left.keys() == right.keys()
    for key in left["model"]:
        a, b = left["model"][key], right["model"][key]
        assert a.shape == b.shape and a.dtype == b.dtype, key
        np.testing.assert_array_equal(
            np.ascontiguousarray(a).view(np.uint8),
            np.ascontiguousarray(b).view(np.uint8), err_msg=key)
    for key in left["zero"]:
        for name in left["zero"][key]:
            a, b = left["zero"][key][name], right["zero"][key][name]
            assert a.shape == b.shape and a.dtype == b.dtype, (key, name)
            np.testing.assert_array_equal(
                np.ascontiguousarray(a).view(np.uint8),
                np.ascontiguousarray(b).view(np.uint8),
                err_msg=f"{key}/{name}")
    assert left["extra"] == right["extra"]


# ---------------------------------------------------------------------------
# In-memory split/merge/reshape laws
# ---------------------------------------------------------------------------

def test_shard_then_merge_is_identity():
    full = make_full_state()
    topo = topology(dp=4, tp=2)
    states = shard_full_state(full, topo)
    assert set(states) == set(range(8))
    assert_bit_identical(merge_full_state(states, topo), full)


@pytest.mark.parametrize("target_grid", [(2, 1, 4), (1, 1, 8), (8, 1, 1),
                                         (4, 1, 2), (1, 2, 2), (2, 2, 1)])
def test_reshape_state_dicts_round_trips(target_grid):
    full = make_full_state()
    source = topology(dp=4, tp=2)
    dp, pp, tp = target_grid
    target = topology(dp=dp, pp=pp, tp=tp)
    reshaped = reshape_state_dicts(shard_full_state(full, source), source, target)
    assert set(reshaped) == set(range(dp * pp * tp))
    assert_bit_identical(merge_full_state(reshaped, target), full)


def test_reshape_target_inherits_source_partition_table():
    full = make_full_state()
    source = topology(dp=2, tp=2)
    bare = CheckpointTopology(data_parallel=4)  # no tensors table
    reshaped = reshape_state_dicts(shard_full_state(full, source), source, bare)
    merged = merge_full_state(
        reshaped, CheckpointTopology(data_parallel=4, tensors=source.tensors))
    assert_bit_identical(merged, full)


def test_merge_rejects_missing_rank():
    full = make_full_state()
    topo = topology(dp=2, tp=2)
    states = shard_full_state(full, topo)
    del states[3]
    with pytest.raises(RestartError):
        merge_full_state(states, topo)


def test_elastic_topology_rejects_bad_axis():
    with pytest.raises(RestartError):
        elastic_topology(make_model(), data_parallel=2, tensor_parallel=2,
                         axes={"scale": 0})  # 0-d tensor has no axis 0
    with pytest.raises(RestartError):
        elastic_topology(make_model(), data_parallel=2,
                         axes={"missing": 0})


# ---------------------------------------------------------------------------
# Saved checkpoints reshape across stores and engines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("store_name", ["file", "object", "tiered"])
def test_restore_reshaped_across_stores(store_name, tmp_path):
    """save 4x2 -> RestoreSpec-reshaped restore at 2x4 -> merged bit-identical,
    on every store family the engines support."""
    full = make_full_state()
    source = topology(dp=4, tp=2)
    store = create_store(store_name, root=tmp_path / store_name)
    save_elastic_checkpoint(store, full, source, tag="elastic", iteration=42)

    target = topology(dp=2, tp=4)
    loader = CheckpointLoader(store)
    reshaped = loader.restore(RestoreSpec.full(tag="elastic").reshaped(target))
    assert set(reshaped) == set(range(8))
    assert_bit_identical(merge_full_state(reshaped, target), full)

    info = loader.latest()
    assert info.topology is not None
    assert info.topology.describe() == "dp4xpp1xtp2"
    assert info.version == 4


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_reshape_checkpoint_offline_all_engines(engine_name, tmp_path):
    """The offline converter writes a restorable committed checkpoint through
    each of the four real engines."""
    full = make_full_state()
    source = topology(dp=2, tp=2)
    src_store = FileStore(tmp_path / "src")
    save_elastic_checkpoint(src_store, full, source, tag="ckpt", iteration=7,
                            engine=engine_name, policy=FAST_POLICY)

    dest_store = FileStore(tmp_path / "dst")
    target = topology(dp=4, tp=1)
    report = reshape_checkpoint(src_store, target, tag="ckpt",
                                dest_store=dest_store, engine=engine_name,
                                policy=FAST_POLICY)
    assert report.source_tag == "ckpt"
    assert report.target_tag == "ckpt-dp4xpp1xtp1"
    assert report.tensors == len(make_model())

    loader = CheckpointLoader(dest_store)
    info = loader.latest()
    assert info.tag == "ckpt-dp4xpp1xtp1"
    assert info.iteration == 7  # iteration survives the conversion
    assert info.topology.describe() == "dp4xpp1xtp1"
    states = loader.restore(RestoreSpec.full(tag=info.tag))
    assert_bit_identical(merge_full_state(states, info.topology), full)


def test_reshape_into_source_store_default_tag(tmp_path):
    full = make_full_state()
    store = FileStore(tmp_path)
    save_elastic_checkpoint(store, full, topology(dp=2, tp=2), tag="ckpt")
    report = reshape_checkpoint(store, topology(dp=1, tp=4))
    assert report.target_tag == "ckpt-dp1xpp1xtp4"
    tags = store.list_committed_checkpoints()
    assert "ckpt" in tags and "ckpt-dp1xpp1xtp4" in tags
    # Re-running the same conversion must not clobber the existing output.
    with pytest.raises(CheckpointError):
        reshape_checkpoint(store, topology(dp=1, tp=4), tag="ckpt")


def test_reshape_rejects_pre_topology_checkpoint():
    with pytest.raises(RestartError, match="topology"):
        reshape_checkpoint(FileStore(V1_FIXTURE_ROOT), topology(dp=2),
                           tag=V1_FIXTURE_TAG)


def test_restore_reshaped_single_rank_selector(tmp_path):
    """RestoreSpec.of_rank(...).reshaped(...) hands back just that target
    rank's slice — what an elastically restarted worker actually loads."""
    full = make_full_state()
    source = topology(dp=4, tp=2)
    store = FileStore(tmp_path)
    save_elastic_checkpoint(store, full, source, tag="elastic")

    target = topology(dp=2, tp=4)
    loader = CheckpointLoader(store)
    everything = loader.restore(RestoreSpec.full(tag="elastic").reshaped(target))
    rank3 = loader.restore(RestoreSpec.of_rank(3, tag="elastic").reshaped(target))
    for key, value in everything[3]["model"].items():
        np.testing.assert_array_equal(
            np.ascontiguousarray(rank3["model"][key]).view(np.uint8),
            np.ascontiguousarray(value).view(np.uint8))
    with pytest.raises(RestartError):
        loader.restore(RestoreSpec.of_rank(99, tag="elastic").reshaped(target))


# ---------------------------------------------------------------------------
# RestoreSpec semantics + deprecated entry points
# ---------------------------------------------------------------------------

def test_restore_spec_validation():
    with pytest.raises(RestartError):
        RestoreSpec(rank=0, shard="rank0")  # two selectors
    with pytest.raises(RestartError):
        RestoreSpec(rank=0, all_ranks=True)
    with pytest.raises(RestartError):
        RestoreSpec(rank=-1)
    with pytest.raises(RestartError):
        RestoreSpec(prefetch_depth=-2)
    with pytest.raises(RestartError):
        # A named shard is a physical file of the *saved* grid; it has no
        # meaning on the reshaped one.
        RestoreSpec(shard="rank0", target_topology=CheckpointTopology(2))


def test_restore_spec_builders_compose():
    spec = RestoreSpec.latest(validate=False).with_tag("t")
    assert spec.tag == "t" and spec.validate is False
    reshaped = RestoreSpec.of_rank(1).reshaped(CheckpointTopology(2))
    assert reshaped.rank == 1
    assert reshaped.target_topology.data_parallel == 2


# ---------------------------------------------------------------------------
# Pre-v4 manifests restore unchanged through RestoreSpec
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("root,tag,version", [
    (V1_FIXTURE_ROOT, V1_FIXTURE_TAG, 1),
    (V2_FIXTURE_ROOT, V2_FIXTURE_TAG, 2),
])
def test_fixture_checkpoints_restore_via_restore_spec(root, tag, version):
    loader = CheckpointLoader(FileStore(root))
    info = loader.committed_checkpoints()[-1]
    assert info.tag == tag
    assert info.topology is None  # no topology block before v4
    assert info.version == version

    loaded = loader.restore(RestoreSpec.of_rank(0, tag=tag))
    assert loaded["iteration"] == 4
    np.testing.assert_array_equal(
        loaded["model"]["w"],
        (np.arange(256, dtype=np.float64) * 0.5).reshape(16, 16))

    with pytest.raises(RestartError, match="topology"):
        loader.restore(RestoreSpec.full(tag=tag).reshaped(CheckpointTopology(1)))


# ---------------------------------------------------------------------------
# CLI: repro list / repro reshape
# ---------------------------------------------------------------------------

def test_cli_list_shows_topology_and_schema(capsys, tmp_path):
    store = FileStore(tmp_path)
    save_elastic_checkpoint(store, make_full_state(), topology(dp=4, tp=2),
                            tag="ckpt", iteration=42)
    assert main(["list", "--workdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ckpt" in out and "dp4xpp1xtp2" in out and "v4" in out


def test_cli_list_pre_topology_store(capsys):
    assert main(["list", "--workdir", str(V1_FIXTURE_ROOT)]) == 0
    out = capsys.readouterr().out
    assert V1_FIXTURE_TAG in out and "v1" in out


def test_cli_list_empty_store(capsys, tmp_path):
    assert main(["list", "--workdir", str(tmp_path)]) == 0
    assert "no committed checkpoints" in capsys.readouterr().out


def test_cli_reshape_round_trip(capsys, tmp_path):
    full = make_full_state()
    src = tmp_path / "src"
    save_elastic_checkpoint(FileStore(src), full, topology(dp=4, tp=2),
                            tag="ckpt", iteration=42)
    out_dir = tmp_path / "out"
    code = main(["reshape", "--workdir", str(src), "--target-dp", "2",
                 "--target-tp", "4", "--out", str(out_dir)])
    assert code == 0
    assert "ckpt-dp2xpp1xtp4" in capsys.readouterr().out

    loader = CheckpointLoader(FileStore(out_dir))
    info = loader.latest()
    assert info.iteration == 42
    states = loader.restore(RestoreSpec.full(tag=info.tag))
    assert_bit_identical(merge_full_state(states, info.topology), full)


def test_cli_reshape_rejects_out_store_without_out(tmp_path):
    with pytest.raises(SystemExit):
        main(["reshape", "--workdir", str(tmp_path), "--target-dp", "2",
              "--out-store", "object"])
