import numpy as np
import pytest

from growformer.checkpoint import load_checkpoint, save_checkpoint
from growformer.errors import ValidationError
from growformer.growth import GrowthPlan
from growformer.model import ModelConfig, init_params
from growformer.rng import derive_seed
from growformer.training import (
    _INIT_TAG,
    CorpusConfig,
    ExperimentConfig,
    OptimizerConfig,
    ScheduleConfig,
    heldout_sequences,
    start_checkpoint,
    train,
)

TINY = ModelConfig(
    vocab_size=64, context_len=32, hidden_size=16, n_heads=2, n_layers=1,
    ladder_m=20, ladder_a=24, ffn_size=16,
)


def make_config(steps=40, snapshot_every=20, generator="markov-k2", seed=1, **kw):
    return ExperimentConfig(
        model=kw.pop("model", TINY),
        optimizer=OptimizerConfig(lr=kw.pop("lr", 3e-3)),
        schedule=ScheduleConfig(steps=steps, warmup=10, snapshot_every=snapshot_every),
        corpus=CorpusConfig(generator=generator, seed=seed, length=8000),
        seed=seed,
        **kw,
    )


class TestConfig:
    def test_snapshot_divides_steps(self):
        with pytest.raises(ValidationError, match="divide"):
            make_config(steps=50, snapshot_every=7)

    def test_positive_lr(self):
        with pytest.raises(ValidationError, match="lr"):
            make_config(lr=0.0)

    def test_roundtrip(self):
        cfg = make_config(growth=GrowthPlan(2, 2, "guarded-zero", 5), growth_trigger=20)
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_legacy_keys_ignored(self):
        cfg = make_config()
        blob = cfg.to_dict()
        blob["arithmetic"] = "f8"
        blob["model"]["dtype"] = "f4"
        assert ExperimentConfig.from_dict(blob) == cfg

    def test_growth_needs_trigger(self):
        with pytest.raises(ValidationError, match="trigger"):
            make_config(growth=GrowthPlan(2, 2, "strict-zero", 5))


class TestTrain:
    def test_snapshot_cadence_and_counters(self):
        result = train(make_config(steps=40, snapshot_every=20))
        assert [ck.step for ck in result.checkpoints] == [0, 20, 40]
        assert [ck.tokens for ck in result.checkpoints] == [0, 20 * 32, 40 * 32]

    def test_initial_loss_near_vocab_entropy(self):
        result = train(make_config(steps=20, snapshot_every=20))
        assert abs(result.log[0].heldout_loss - np.log(64)) / np.log(64) < 0.15

    def test_deterministic_given_config(self):
        a = train(make_config())
        b = train(make_config())
        assert a.step_losses == b.step_losses
        for ka, kb in zip(a.final.params, b.final.params):
            assert np.array_equal(a.final.params[ka], b.final.params[kb])

    def test_fresh_run_is_start_checkpoint_of_initial_params(self):
        cfg = make_config(steps=20, snapshot_every=10)
        params = init_params(cfg.model, derive_seed(cfg.seed, _INIT_TAG))
        direct = train(cfg)
        started = train(cfg, resume=start_checkpoint(cfg, params))
        assert direct.step_losses == started.step_losses
        for group in ("params", "adam_m", "adam_v"):
            a, b = getattr(direct.final, group), getattr(started.final, group)
            assert list(a) == list(b)
            assert all(np.array_equal(a[k], b[k]) for k in a)
        assert direct.final.rng == started.final.rng

    def test_resume_reproduces_next_snapshot_bitwise(self, tmp_path):
        full = train(make_config(steps=40, snapshot_every=20))
        mid = full.checkpoints[1]
        resumed = train(make_config(steps=40, snapshot_every=20), resume=mid)
        direct = full.checkpoints[2]
        again = resumed.checkpoints[-1]
        assert direct.step == again.step == 40
        p1 = tmp_path / "direct.nxf"
        p2 = tmp_path / "resumed.nxf"
        save_checkpoint(direct, p1)
        save_checkpoint(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_repeat_pattern_memorized_in_500_steps(self):
        cfg = make_config(
            steps=500, snapshot_every=500, generator="repeat-pattern", seed=1,
            model=ModelConfig(
                vocab_size=64, context_len=64, hidden_size=32, n_heads=4,
                n_layers=2, ladder_m=40, ladder_a=48, ffn_size=64,
            ),
            lr=1e-2,
        )
        result = train(cfg)
        assert float(np.mean(result.step_losses[-10:])) < 0.1

    def test_in_run_growth_preserves_and_continues(self):
        cfg = make_config(
            steps=40, snapshot_every=20,
            growth=GrowthPlan(4, 6, "guarded-zero", seed=9), growth_trigger=20,
        )
        result = train(cfg)
        grown = result.checkpoints[-1]
        assert grown.model_config.ladder_m == TINY.ladder_m + 4
        assert grown.model_config.ladder_a == TINY.ladder_a + 6
        # old optimizer moments survive in the old index ranges
        base = train(make_config(steps=20, snapshot_every=20)).final
        m_new = grown.adam_m["blocks.0.attn.q.w_mid"]
        assert m_new.shape == (24, 30)


def test_heldout_disjoint_from_training_stream():
    cfg = make_config()
    held = heldout_sequences(cfg, count=4)
    assert len(held) == 4
    assert all(len(h) == 32 for h in held)
    held2 = heldout_sequences(cfg, count=4)
    assert all(np.array_equal(a, b) for a, b in zip(held, held2))
