"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_cli_zoo_prints_table(capsys):
    assert main(["zoo"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "70B" in out


def test_cli_simulate_prints_summary(capsys):
    code = main(["simulate", "--model", "3B", "--engine", "datastates",
                 "--iterations", "2", "--checkpoint-interval", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "datastates" in out
    assert "3B" in out


def test_cli_figure_3(capsys):
    assert main(["figure", "3"]) == 0
    assert "Figure 3" in capsys.readouterr().out


def test_cli_figure_4(capsys):
    assert main(["figure", "4"]) == 0
    assert "forward_s" in capsys.readouterr().out


def test_cli_figure_7_reduced_iterations(capsys):
    assert main(["figure", "7", "--iterations", "2"]) == 0
    out = capsys.readouterr().out
    assert "paper_datastates" in out


def test_cli_train_runs_real_engine(capsys, tmp_path):
    code = main(["train", "--engine", "datastates", "--iterations", "2",
                 "--hidden-size", "32", "--workdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "DataStates-LLM" in out
    assert "blocked_ms_per_iter" in out
    assert (tmp_path / "datastates").is_dir()


def test_cli_train_accepts_engine_aliases(capsys, tmp_path):
    code = main(["train", "--engine", "sync", "--iterations", "1",
                 "--hidden-size", "32", "--workdir", str(tmp_path)])
    assert code == 0
    assert "DeepSpeed (sync)" in capsys.readouterr().out


def test_cli_compare_real_prints_all_engines(capsys, tmp_path):
    code = main(["compare-real", "--iterations", "2", "--hidden-size", "32",
                 "--workdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("deepspeed", "async", "torchsnapshot", "datastates"):
        assert name in out


def test_cli_compare_real_engine_subset(capsys, tmp_path):
    code = main(["compare-real", "--engines", "deepspeed", "datastates",
                 "--iterations", "1", "--hidden-size", "32",
                 "--workdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "datastates" in out
    assert "torchsnapshot" not in out


def test_cli_train_tiered_store_reports_drain(capsys, tmp_path):
    code = main(["train", "--engine", "datastates", "--iterations", "2",
                 "--hidden-size", "32", "--workdir", str(tmp_path),
                 "--store", "tiered", "--drain-workers", "1",
                 "--keep-local-latest", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "drained" in out
    assert f"checkpoints -> tiered:{tmp_path / 'datastates'}" in out
    assert (tmp_path / "datastates" / "fast").is_dir()


def test_cli_rejects_unknown_model():
    with pytest.raises(SystemExit):
        main(["simulate", "--model", "175B"])


def test_cli_rejects_unknown_real_engine(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--engine", "nebula"])
    err = capsys.readouterr().err
    # Fail fast with the registry's list of valid names, not a deep KeyError.
    assert "unknown checkpoint engine" in err and "datastates" in err


def test_cli_rejects_unknown_sim_engine(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--engine", "nebula"])
    assert "unknown checkpoint engine" in capsys.readouterr().err


def test_cli_rejects_unknown_store(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--store", "tape-robot"])
    err = capsys.readouterr().err
    assert "unknown shard store" in err and "tiered" in err


def test_cli_rejects_tiered_flags_without_tiered_store(tmp_path):
    with pytest.raises(SystemExit):
        main(["train", "--iterations", "1", "--hidden-size", "32",
              "--workdir", str(tmp_path), "--drain-workers", "2"])
    with pytest.raises(SystemExit):
        main(["train", "--iterations", "1", "--hidden-size", "32",
              "--workdir", str(tmp_path), "--keep-local-latest", "1"])


def test_cli_rejects_invalid_drain_knobs(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--store", "tiered", "--drain-workers", "0"])
    assert "positive integer" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["train", "--store", "tiered", "--keep-local-latest", "-2"])
    assert "-1 to disable" in capsys.readouterr().err
    # Drain retries and their backoff are module constants, not flags.
    for flag in ("--drain-retries", "--drain-backoff"):
        with pytest.raises(SystemExit):
            main(["train", "--store", "tiered", flag, "1"])
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_keep_local_latest_minus_one_disables_eviction(capsys, tmp_path):
    code = main(["train", "--engine", "datastates", "--iterations", "2",
                 "--hidden-size", "32", "--workdir", str(tmp_path),
                 "--store", "tiered", "--keep-local-latest", "-1"])
    assert code == 0
    # Nothing evicted: both checkpoints keep their fast-tier copies.
    fast_dirs = [p.name for p in (tmp_path / "datastates" / "fast").iterdir()
                 if p.is_dir()]
    assert sorted(fast_dirs) == ["ckpt-000001", "ckpt-000002"]


def test_cli_accepts_custom_registered_engine(capsys, tmp_path):
    """A register_real_engine() name must be selectable from the CLI (no
    argparse choices= shadowing the live registry)."""
    from repro.core import registry
    from repro.core.sync_engine import SynchronousCheckpointEngine

    class Custom(SynchronousCheckpointEngine):
        name = "custom-cli"

    registry.register_real_engine("custom-cli", Custom)
    try:
        code = main(["train", "--engine", "custom-cli", "--iterations", "1",
                     "--hidden-size", "32", "--workdir", str(tmp_path)])
        assert code == 0
        assert "custom-cli" in capsys.readouterr().out
    finally:
        registry._REAL_REGISTRY.pop("custom-cli", None)


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["train", "--capture-streams", "2"],
    ["simulate", "--capture-streams", "2"],
    ["train", "--prefetch-depth", "2"],
    ["list", "--workdir", ".", "--prefetch-depth", "2"],
    ["reshape", "--workdir", ".", "--target-dp", "2", "--prefetch-depth", "2"],
])
def test_cli_rejects_removed_flags(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["list"], ["reshape", "--target-dp", "2"]])
def test_cli_refuses_a_missing_workdir_and_creates_nothing(tmp_path, capsys, command):
    workdir = tmp_path / "typo" / "ckpts"
    with pytest.raises(SystemExit) as exit_info:
        main([command[0], "--workdir", str(workdir), *command[1:]])
    assert exit_info.value.code not in (0, None)
    assert not (tmp_path / "typo").exists()


def test_cli_tiers_spec_spells_the_backend_pair(tmp_path):
    """The backend of each level is spelled in ``--tiers``: an in-memory
    commit level over a directory-backed one, and nothing else typed."""
    from repro.cli import _build_parser, _open_store
    from repro.io import FileStore, ObjectStore

    args = _build_parser().parse_args([
        "list", "--workdir", str(tmp_path), "--store", "tiered",
        "--tiers", "fast:object,slow:file", "--keep-local-latest", "-1"])
    store = _open_store(args, str(tmp_path))
    try:
        assert store.level_names == ["fast", "slow"]
        assert isinstance(store.levels[0].store, ObjectStore)
        assert isinstance(store.levels[-1].store, FileStore)
        assert store.levels[-1].store.root == tmp_path / "slow"
        assert store.keep_local_latest is None
        # What was not typed is left to the store's own defaults.
        assert store.drain_workers == 2
    finally:
        store.close()
