"""Tests for the restart loader, the synthetic data stream, and the real-mode trainer."""

import numpy as np
import pytest

from repro.core import DataStatesCheckpointEngine, SynchronousCheckpointEngine
from repro.exceptions import ConfigurationError, ConsistencyError, RestartError
from repro.io import FileStore
from repro.model import NumpyTransformerLM, tiny_config
from repro.restart import CheckpointLoader, RestoreSpec
from repro.training import DataConfig, RealTrainer, SyntheticTokenStream
from repro.training.real_trainer import TrainingReport, TrainStepRecord


def _tiny():
    return tiny_config(hidden_size=32, num_layers=2, num_attention_heads=2,
                       vocab_size=101, sequence_length=16)


@pytest.fixture
def store(tmp_path):
    return FileStore(tmp_path)


# ---------------------------------------------------------------------------
# Synthetic data stream
# ---------------------------------------------------------------------------

def test_data_stream_is_deterministic_given_seed():
    config = DataConfig(vocab_size=50, sequence_length=8, micro_batch_size=2, seed=7)
    a, b = SyntheticTokenStream(config), SyntheticTokenStream(config)
    for _ in range(3):
        tokens_a, targets_a = a.next_batch()
        tokens_b, targets_b = b.next_batch()
        np.testing.assert_array_equal(tokens_a, tokens_b)
        np.testing.assert_array_equal(targets_a, targets_b)


def test_data_stream_position_checkpointing():
    config = DataConfig(vocab_size=50, sequence_length=8, micro_batch_size=2, seed=1)
    stream = SyntheticTokenStream(config)
    stream.next_batch()
    stream.next_batch()
    saved = stream.state_dict()
    expected_tokens, _ = stream.next_batch()

    resumed = SyntheticTokenStream(config)
    resumed.load_state_dict(saved)
    tokens, _ = resumed.next_batch()
    np.testing.assert_array_equal(tokens, expected_tokens)


def test_data_stream_targets_are_shifted_tokens():
    stream = SyntheticTokenStream(DataConfig(vocab_size=10, sequence_length=6))
    tokens, targets = stream.next_batch()
    np.testing.assert_array_equal(targets[:, :-1], tokens[:, 1:])
    assert tokens.min() >= 0 and tokens.max() < 10


def test_data_stream_seed_mismatch_rejected():
    stream = SyntheticTokenStream(DataConfig(vocab_size=10, sequence_length=6, seed=1))
    with pytest.raises(ConfigurationError):
        stream.load_state_dict({"position": 0, "seed": 2})


def test_data_config_validation():
    with pytest.raises(ConfigurationError):
        DataConfig(vocab_size=1, sequence_length=8)
    with pytest.raises(ConfigurationError):
        DataConfig(vocab_size=10, sequence_length=1)
    with pytest.raises(ConfigurationError):
        DataConfig(vocab_size=10, sequence_length=8, micro_batch_size=0)


# ---------------------------------------------------------------------------
# Trainer + engine + loader integration
# ---------------------------------------------------------------------------

def test_trainer_checkpoints_and_losses_recorded(store):
    engine = DataStatesCheckpointEngine(store, host_buffer_size=16 << 20)
    trainer = RealTrainer(NumpyTransformerLM(_tiny(), seed=0), engine=engine)
    report = trainer.train(iterations=4, checkpoint_interval=2)
    engine.wait_all()
    engine.shutdown()
    assert len(report.steps) == 4
    assert report.checkpoints == ["ckpt-000002", "ckpt-000004"]
    assert all(np.isfinite(loss) for loss in report.losses)
    assert report.total_compute_seconds > 0


def test_trainer_without_engine_trains_fine():
    trainer = RealTrainer(NumpyTransformerLM(_tiny(), seed=0), engine=None)
    report = trainer.train(iterations=3, checkpoint_interval=2)
    assert report.checkpoints == []
    assert trainer.iteration == 3


def test_resume_is_bit_exact(store):
    """Training N+M iterations straight equals training N, checkpointing,
    restoring, and training M more — the core restart-correctness property."""
    config = _tiny()
    engine = DataStatesCheckpointEngine(store, host_buffer_size=16 << 20)
    reference = RealTrainer(NumpyTransformerLM(config, seed=3), engine=engine)
    reference.train(iterations=3, checkpoint_interval=3)   # checkpoint at iteration 3
    engine.wait_all()
    reference.train(iterations=2, checkpoint_interval=0)   # iterations 4, 5
    engine.shutdown()

    loader = CheckpointLoader(store)
    resumed = RealTrainer(NumpyTransformerLM(config, seed=99), engine=None)
    tag = resumed.resume_from(loader)
    assert tag == "ckpt-000003"
    assert resumed.iteration == 3
    resumed.train(iterations=2, checkpoint_interval=0)

    for name in reference.model.params:
        np.testing.assert_array_equal(reference.model.params[name], resumed.model.params[name])
    np.testing.assert_array_equal(
        reference.optimizer.exp_avg["wte"], resumed.optimizer.exp_avg["wte"]
    )


def test_resume_from_specific_tag(store):
    engine = DataStatesCheckpointEngine(store, host_buffer_size=16 << 20)
    trainer = RealTrainer(NumpyTransformerLM(_tiny(), seed=1), engine=engine)
    trainer.train(iterations=4, checkpoint_interval=1)
    engine.wait_all()
    engine.shutdown()

    loader = CheckpointLoader(store)
    resumed = RealTrainer(NumpyTransformerLM(_tiny(), seed=5), engine=None)
    resumed.resume_from(loader, tag="ckpt-000002")
    assert resumed.iteration == 2


def test_resume_without_checkpoints_raises(store):
    loader = CheckpointLoader(store)
    trainer = RealTrainer(NumpyTransformerLM(_tiny(), seed=1), engine=None)
    with pytest.raises(RestartError):
        trainer.resume_from(loader)


def test_engine_latest_is_the_loaders_latest_not_the_last_tag_by_name(store):
    """``ckpt-10`` sorts before ``ckpt-9`` by name; by iteration it is the
    latest, for the engine, the loader and a trainer resuming from either."""
    from repro.core import create_real_engine

    trainer = RealTrainer(NumpyTransformerLM(_tiny(), seed=1), engine=None)
    with create_real_engine("deepspeed", store) as engine:
        for iteration in (9, 10):
            trainer.iteration = iteration
            engine.save(trainer.state_dict(), tag=f"ckpt-{iteration}", iteration=iteration)
        engine.wait_all()
        assert engine.list_checkpoints() == ["ckpt-9", "ckpt-10"]
        assert engine.latest_checkpoint() == "ckpt-10"
        assert CheckpointLoader(store).latest().tag == "ckpt-10"
        for source in (engine, CheckpointLoader(store)):
            resumed = RealTrainer(NumpyTransformerLM(_tiny(), seed=5), engine=None)
            assert resumed.resume_from(source) == "ckpt-10"
            assert resumed.iteration == 10


def test_trainer_load_state_dict_rejects_missing_fields():
    trainer = RealTrainer(NumpyTransformerLM(_tiny(), seed=1), engine=None)
    with pytest.raises(RestartError):
        trainer.load_state_dict({"model": {}})


# ---------------------------------------------------------------------------
# CheckpointLoader
# ---------------------------------------------------------------------------

def _write_committed_checkpoint(store, tag, iteration, seed=0):
    engine = SynchronousCheckpointEngine(store)
    trainer = RealTrainer(NumpyTransformerLM(_tiny(), seed=seed), engine=None)
    trainer.iteration = iteration
    engine.save(trainer.state_dict(), tag=tag, iteration=iteration)
    return trainer


def test_loader_lists_and_orders_committed_checkpoints(store):
    _write_committed_checkpoint(store, "ckpt-b", iteration=4)
    _write_committed_checkpoint(store, "ckpt-a", iteration=2)
    loader = CheckpointLoader(store)
    infos = loader.committed_checkpoints()
    assert [info.tag for info in infos] == ["ckpt-a", "ckpt-b"]
    assert loader.latest().tag == "ckpt-b"
    assert infos[0].num_shards == 1


def test_loader_ignores_uncommitted_checkpoints(store):
    _write_committed_checkpoint(store, "good", iteration=1)
    store.write_shard("torn", "rank0", [b"partial-bytes"])
    loader = CheckpointLoader(store)
    assert [info.tag for info in loader.committed_checkpoints()] == ["good"]
    removed = loader.prune_uncommitted()
    assert removed == ["torn"]
    assert store.list_checkpoints() == ["good"]


def test_loader_validate_detects_truncated_shard(store):
    _write_committed_checkpoint(store, "ckpt", iteration=1)
    # Truncate the shard file behind the manifest's back.
    path = store.shard_path("ckpt", "rank0")
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])
    loader = CheckpointLoader(store)
    with pytest.raises(ConsistencyError):
        loader.validate("ckpt")


def test_loader_validate_detects_corruption(store):
    _write_committed_checkpoint(store, "ckpt", iteration=1)
    path = store.shard_path("ckpt", "rank0")
    raw = bytearray(path.read_bytes())
    raw[-5] ^= 0xFF
    path.write_bytes(bytes(raw))
    loader = CheckpointLoader(store)
    with pytest.raises(ConsistencyError):
        loader.validate("ckpt")


def test_loader_load_all_returns_per_rank_state(store):
    trainer = _write_committed_checkpoint(store, "ckpt", iteration=7, seed=2)
    loader = CheckpointLoader(store)
    states = loader.restore(RestoreSpec.full(tag="ckpt"))
    assert set(states) == {0}
    np.testing.assert_array_equal(states[0]["model"]["wte"], trainer.model.params["wte"])


def test_loader_load_rank_missing_rank_raises(store):
    _write_committed_checkpoint(store, "ckpt", iteration=1)
    loader = CheckpointLoader(store)
    with pytest.raises(RestartError):
        loader.restore(RestoreSpec.of_rank(3, tag="ckpt"))


def test_batch_at_is_the_batch_next_batch_returns_and_does_not_advance():
    config = DataConfig(vocab_size=50, sequence_length=8, micro_batch_size=2, seed=3)
    stream = SyntheticTokenStream(config)
    tokens, targets = stream.batch_at(2)
    assert stream.position == 0
    stream.next_batch()
    stream.next_batch()
    next_tokens, next_targets = stream.next_batch()
    np.testing.assert_array_equal(tokens, next_tokens)
    np.testing.assert_array_equal(targets, next_targets)
    np.testing.assert_array_equal(targets, np.roll(tokens, -1, axis=1))


def test_batch_at_rejects_a_negative_index():
    stream = SyntheticTokenStream(DataConfig(vocab_size=50, sequence_length=8,
                                             micro_batch_size=2, seed=3))
    with pytest.raises(ConfigurationError):
        stream.batch_at(-1)


def _step(iteration, blocked):
    return TrainStepRecord(iteration=iteration, loss=1.0, compute_seconds=0.5,
                           checkpoint_block_seconds=blocked, checkpointed=blocked > 0)


def test_training_report_summarizes_checkpoint_stalls():
    report = TrainingReport(steps=[_step(0, 0.0), _step(1, 0.3), _step(2, 0.0),
                                   _step(3, 0.9)])
    assert report.total_compute_seconds == pytest.approx(2.0)
    assert report.total_checkpoint_block_seconds == pytest.approx(1.2)
    assert report.blocked_seconds_per_iteration == pytest.approx(0.3)
    # The median ignores the one long stall the mean is pulled up by.
    assert report.median_blocked_seconds_per_iteration == pytest.approx(0.15)


def test_an_empty_training_report_reports_no_stall():
    report = TrainingReport()
    assert report.total_checkpoint_block_seconds == 0.0
    assert report.blocked_seconds_per_iteration == 0.0
    assert report.median_blocked_seconds_per_iteration == 0.0
