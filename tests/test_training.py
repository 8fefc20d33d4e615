import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growformer import cli
from growformer.checkpoint import load_checkpoint, save_checkpoint
from growformer.corpus import gen_corpus
from growformer.errors import ValidationError
from growformer.growth import GrowthPlan
from growformer.model import ModelConfig, init_params
from growformer.rng import HELDOUT_STREAM, StreamTag, derive_seed
from growformer.training import (
    _ADAM_EPS,
    CorpusConfig,
    ExperimentConfig,
    GrowthConfig,
    OptimizerConfig,
    ScheduleConfig,
    _no_decay,
    adamw_step,
    checkpoint_experiment,
    heldout_sequences,
    start_checkpoint,
    train,
)

TINY = ModelConfig(
    vocab_size=64, context_len=32, hidden_size=16, n_heads=2, n_layers=1,
    ladder_m=20, ladder_a=24, ffn_size=16,
)


# sha256 over step_losses and the final params, adam_m and adam_v of the
# in-run guarded-zero growth run below, recorded from the out-of-place
# AdamW update and the GeLU derivative that recomputed Phi
GROWTH_RUN_SHA256 = "674638bb8953d4778dab8633858ef6af0cb43768b022e8424fc79d443601ea53"
CHECKPOINT_GROUPS = ("params", "adam_m", "adam_v")


def make_config(steps=40, snapshot_every=20, generator="markov-k2", seed=1, **kw):
    return ExperimentConfig(
        model=kw.pop("model", TINY),
        optimizer=OptimizerConfig(lr=kw.pop("lr", 3e-3)),
        schedule=ScheduleConfig(steps=steps, warmup=10, snapshot_every=snapshot_every),
        corpus=CorpusConfig(generator=generator, seed=seed, length=8000),
        seed=seed,
        **kw,
    )


@pytest.fixture(scope="module")
def growth_run():
    return train(make_config(
        steps=40, snapshot_every=20,
        growth=GrowthConfig(4, 6, "guarded-zero", seed=9, trigger_step=20),
    ))


def same_bits(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(a[k].tobytes() == b[k].tobytes() for k in a)


def out_of_place_adamw_step(params, grads, m, v, t, lr, betas, weight_decay):
    """Reference: the dict-rebinding update the in-place one replaced."""
    b1, b2 = betas
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for key, g in grads.items():
        m[key] = b1 * m[key] + (1.0 - b1) * g
        v[key] = b2 * v[key] + (1.0 - b2) * g * g
        update = (m[key] / c1) / (np.sqrt(v[key] / c2) + _ADAM_EPS)
        if weight_decay and not _no_decay(key):
            update = update + weight_decay * params[key]
        params[key] = params[key] - lr * update


# decay and no-decay parameter names
ADAM_KEYS = ("blocks.0.attn.q.w_up", "blocks.0.ln1.g", "ln_f.b", "unembed", "blocks.1.ln2.b")


class TestAdamW:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
        st.integers(1, 10_000),
        st.floats(1e-6, 1.0),
        st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.5),
        st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.9999)),
    )
    def test_in_place_update_is_bit_equal_to_out_of_place(self, shapes, seed, t, lr, wd, betas):
        rng = np.random.default_rng(seed)
        keys = [ADAM_KEYS[i % len(ADAM_KEYS)] + f".{i}" for i in range(len(shapes))]
        params = {k: rng.normal(size=s) for k, s in zip(keys, shapes)}
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-6, 2) for k, s in zip(keys, shapes)}
        m = {k: rng.normal(size=s) * 0.1 for k, s in zip(keys, shapes)}
        v = {k: rng.random(size=s) * 0.1 for k, s in zip(keys, shapes)}
        want_p, want_m, want_v = ({k: a.copy() for k, a in d.items()} for d in (params, m, v))
        out_of_place_adamw_step(want_p, grads, want_m, want_v, t, lr, betas, wd)
        grads_before = {k: g.copy() for k, g in grads.items()}
        adamw_step(params, grads, m, v, t, lr, betas, wd)
        assert same_bits(params, want_p)
        assert same_bits(m, want_m)
        assert same_bits(v, want_v)
        assert same_bits(grads, grads_before)


class TestConfig:
    def test_snapshot_divides_steps(self):
        with pytest.raises(ValidationError, match="divide"):
            make_config(steps=50, snapshot_every=7)

    def test_positive_lr(self):
        with pytest.raises(ValidationError, match="lr"):
            make_config(lr=0.0)

    def test_roundtrip(self):
        cfg = make_config(growth=GrowthConfig(2, 2, "guarded-zero", 5, trigger_step=20))
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_legacy_keys_ignored(self):
        cfg = make_config()
        blob = cfg.to_dict()
        blob["arithmetic"] = "f8"
        blob["model"]["dtype"] = "f4"
        assert ExperimentConfig.from_dict(blob) == cfg

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("schedule", "warmup", True),
            ("corpus", "seed", 1.0),
            ("optimizer", "betas", [0.9]),
            ("optimizer", "weight_decay", False),
        ],
    )
    def test_wrong_value_types_rejected(self, block, key, value):
        blob = make_config().to_dict()
        blob[block][key] = value
        with pytest.raises(ValidationError, match=f"{block} config: {key} must be"):
            ExperimentConfig.from_dict(blob)

    @pytest.mark.parametrize("key, value", [("delta_m", "2"), ("seed", 1.5), ("trigger_step", "20")])
    def test_wrong_growth_value_types_rejected(self, key, value):
        blob = make_config(growth=GrowthConfig(2, 2, "guarded-zero", 5, trigger_step=20)).to_dict()
        blob["growth"][key] = value
        with pytest.raises(ValidationError, match=f"growth.*{key} must be an integer"):
            ExperimentConfig.from_dict(blob)

    def test_old_header_with_out_dir_loads(self, tmp_path):
        cfg = make_config()
        ck = start_checkpoint(cfg, init_params(cfg.model, seed=1))
        ck.experiment = {**cfg.to_dict(), "out_dir": None}  # as older writers wrote it
        save_checkpoint(ck, tmp_path / "old.nxf")
        back = load_checkpoint(tmp_path / "old.nxf")
        assert back.experiment["out_dir"] is None
        assert checkpoint_experiment(back) == cfg
        assert "out_dir" not in cfg.to_dict()

    def test_growth_needs_trigger(self, tmp_path, capsys):
        blob = make_config().to_dict()
        blob["growth"] = {"delta_m": 2, "delta_a": 2, "init_policy": "strict-zero", "seed": 5}
        message = "growth config: missing required key 'trigger_step'"
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig.from_dict(blob)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert message in capsys.readouterr().err

    def test_growth_that_breaks_the_hierarchy_rejected(self, tmp_path, capsys):
        # m=20, a=24 grown by (10, 0) has m=30 > a=24: refused before any step
        message = "ladder hierarchy violated: stage 2 width 24 < stage 1 width 30"
        growth = {"delta_m": 10, "delta_a": 0, "init_policy": "guarded-zero", "seed": 5,
                  "trigger_step": 30}
        with pytest.raises(ValidationError, match=message):
            make_config(growth=GrowthConfig(**growth))
        blob = {**make_config().to_dict(), "growth": growth}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(blob), encoding="utf-8")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_plan_without_trigger_rejected(self):
        with pytest.raises(ValidationError, match="growth must be a GrowthConfig, not GrowthPlan"):
            make_config(growth=GrowthPlan(2, 2, "strict-zero", seed=5))

    @pytest.mark.parametrize(
        "block, key, value, message",
        [
            ("corpus", "stream", HELDOUT_STREAM, "held-out stream"),
            ("corpus", "stream", -1, "stream must be an integer >= 0"),
            ("schedule", "steps", -20, "steps must be an integer >= 0"),
            ("schedule", "warmup", -7, "warmup must be an integer >= 0"),
            ("experiment", "rewarm_steps", -3, "rewarm_steps must be an integer >= 0"),
        ],
        ids=["heldout-stream", "negative-stream", "negative-steps", "negative-warmup",
             "negative-rewarm"],
    )
    def test_aliasing_stream_or_negative_count_rejected(self, block, key, value, message):
        # stream -1 reuses the random stream of markov_table or of the phrase
        # bank: MARKOV - 1 is MARKOV_TABLE, and PHRASE_PICKS - 1 is PHRASE_BANK
        blob = make_config().to_dict()
        (blob if block == "experiment" else blob[block])[key] = value
        with pytest.raises(ValidationError, match=f"{block} config: .*{message}"):
            ExperimentConfig.from_dict(blob)


FUZZ_BASE = make_config(growth=GrowthConfig(2, 2, "noise:0.1", 5, trigger_step=20)).to_dict()


def config_paths(blob):
    """Every key of a config blob as a path: the top-level keys, the keys
    of each block and the entries of each list."""
    for key, value in blob.items():
        yield (key,)
        for sub, inner in value.items() if isinstance(value, dict) else ():
            yield (key, sub)
            if isinstance(inner, list):
                yield from ((key, sub, i) for i in range(len(inner)))


FUZZ_PATHS = list(config_paths(FUZZ_BASE))
_DELETE = object()
FUZZ_VALUES = [
    _DELETE, None, True, False, "", "2", 1.5, float("nan"), float("inf"), -float("inf"),
    2**70, -(2**70), 0, -1, [], {}, [1, 2],
]


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(FUZZ_PATHS), st.sampled_from(FUZZ_VALUES))
    def test_single_field_mutation_ends_in_validation_error(self, path, value):
        # a mutated config either loads, and round-trips, or is refused
        # with ValidationError; no other exception may escape from_dict
        blob = json.loads(json.dumps(FUZZ_BASE))
        *parents, last = path
        target = blob
        for key in parents:
            target = target[key]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
        try:
            cfg = ExperimentConfig.from_dict(blob)
        except ValidationError:
            return
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


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
        params = init_params(cfg.model, derive_seed(cfg.seed, StreamTag.INIT))
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

    def test_in_run_growth_preserves_and_continues(self, growth_run):
        grown = growth_run.checkpoints[-1]
        assert grown.model_config.ladder_m == TINY.ladder_m + 4
        assert grown.model_config.ladder_a == TINY.ladder_a + 6
        m_new = grown.adam_m["blocks.0.attn.q.w_mid"]
        assert m_new.shape == (24, 30)

    def test_in_run_growth_trajectory_digest_pinned(self, growth_run):
        digest = hashlib.sha256(np.asarray(growth_run.step_losses, dtype="<f8").tobytes())
        for group in CHECKPOINT_GROUPS:
            for key, a in getattr(growth_run.final, group).items():
                digest.update(key.encode() + b"\0" + a.tobytes())
        assert digest.hexdigest() == GROWTH_RUN_SHA256

    @pytest.mark.parametrize("policy", ["strict-zero", "guarded-zero", "noise:0.1"])
    def test_resume_across_growth_trigger_is_bit_exact(self, policy, tmp_path):
        cfg = make_config(
            steps=40, snapshot_every=10,
            growth=GrowthConfig(4, 6, policy, seed=9, trigger_step=20),
        )
        full = train(cfg)
        assert [ck.step for ck in full.checkpoints] == [0, 10, 20, 30, 40]
        for ck in full.checkpoints:
            path = tmp_path / f"step{ck.step}.nxf"
            save_checkpoint(ck, path)
            resumed = train(cfg, resume=load_checkpoint(path))
            assert resumed.step_losses == full.step_losses[ck.step:]
            assert resumed.final.model_config == full.final.model_config
            for group in CHECKPOINT_GROUPS:
                assert same_bits(getattr(resumed.final, group), getattr(full.final, group))
            assert resumed.final.rng == full.final.rng

    def test_resume_leaves_checkpoint_unchanged(self):
        cfg = make_config(steps=20, snapshot_every=10)
        mid = train(cfg).checkpoints[1]
        before = {g: {k: a.copy() for k, a in getattr(mid, g).items()} for g in CHECKPOINT_GROUPS}
        rng_before = (mid.rng.seed, mid.rng.position)
        train(cfg, resume=mid)
        for group in CHECKPOINT_GROUPS:
            assert same_bits(getattr(mid, group), before[group])
        assert (mid.rng.seed, mid.rng.position) == rng_before

    def test_early_snapshots_unchanged_by_later_steps(self):
        cfg = make_config(steps=30, snapshot_every=10)
        result = train(cfg)
        first = result.checkpoints[0]
        assert same_bits(first.params, init_params(cfg.model, derive_seed(cfg.seed, StreamTag.INIT)))
        assert all(not a.any() for g in ("adam_m", "adam_v") for a in getattr(first, g).values())
        shorter = train(make_config(steps=10, snapshot_every=10)).final
        for group in CHECKPOINT_GROUPS:
            assert same_bits(getattr(result.checkpoints[1], group), getattr(shorter, group))


def test_heldout_disjoint_from_training_stream():
    cfg = make_config()
    held = heldout_sequences(cfg, count=4)
    assert len(held) == 4
    assert all(len(h) == 32 for h in held)
    held2 = heldout_sequences(cfg, count=4)
    assert all(np.array_equal(a, b) for a, b in zip(held, held2))


def test_heldout_windows_draw_the_heldout_stream():
    cfg = make_config()
    want = gen_corpus(cfg.corpus.generator, cfg.corpus.seed, 3 * cfg.model.context_len, stream=HELDOUT_STREAM)
    assert np.array_equal(np.concatenate(heldout_sequences(cfg, count=3)), want)
