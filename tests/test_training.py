import hashlib
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growformer import cli, training
from growformer.checkpoint import load_checkpoint, save_checkpoint
from growformer.corpus import gen_corpus
from growformer.errors import NumericError, ValidationError
from growformer.growth import GrowthPlan
from growformer.model import ModelConfig, heldout_loss, init_params
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
# AdamW update and the GeLU derivative that recomputed Phi, re-recorded
# when indexed streams came to derive in two levels
GROWTH_RUN_SHA256 = "3b4a0483ff4f6bcdb5f8aef807594a7dbac376dcd13c98fb80c3f4f83301ac7d"
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

    @pytest.mark.parametrize(
        "block, key", [("model", "dtype"), (None, "arithmetic"), (None, "out_dir")]
    )
    def test_dtype_arithmetic_and_out_dir_are_unknown_keys(self, block, key):
        blob = make_config().to_dict()
        (blob if block is None else blob[block])[key] = None
        message = f"{block or 'experiment'} config: unknown key '{key}'"
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig.from_dict(blob)

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

    def test_growth_past_the_hierarchy_trains_through_the_trigger(self, tmp_path):
        # m=20, a=24 grown by (10, 0) has m=30 > a=24: growth takes any widths
        growth = {"delta_m": 10, "delta_a": 0, "init_policy": "guarded-zero", "seed": 5,
                  "trigger_step": 2}
        grown = train(make_config(steps=4, snapshot_every=2, growth=GrowthConfig(**growth)))
        grown = grown.final.model_config
        assert (grown.ladder_m, grown.ladder_a) == (30, 24)
        blob = {**make_config(steps=4, snapshot_every=2).to_dict(), "growth": growth}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(blob), encoding="utf-8")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
        assert load_checkpoint(out / "step00000004.nxf").model_config == grown

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "past-64-bits"])
    def test_growth_seed_outside_64_bits_rejected(self, seed):
        growth = {"delta_m": 2, "delta_a": 2, "init_policy": "guarded-zero", "seed": seed,
                  "trigger_step": 2}
        blob = {**make_config().to_dict(), "growth": growth}
        with pytest.raises(ValidationError, match=r"growth config: seed must be .* < 2\*\*64"):
            ExperimentConfig.from_dict(blob)
        with pytest.raises(ValidationError, match=r"growth config: seed must be .* < 2\*\*64"):
            GrowthPlan(2, 2, "guarded-zero", seed=seed)

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
            ("corpus", "stream", 2**64, r"stream must be an integer >= 0 and < 2\*\*64"),
            ("corpus", "seed", -3, r"seed must be an integer >= 0 and < 2\*\*64"),
            ("corpus", "seed", 2**70, r"seed must be an integer >= 0 and < 2\*\*64"),
            ("experiment", "seed", -1, r"seed must be an integer >= 0 and < 2\*\*64"),
            ("experiment", "seed", 2**64, r"seed must be an integer >= 0 and < 2\*\*64"),
        ],
        ids=["heldout-stream", "negative-stream", "negative-steps", "negative-warmup",
             "negative-rewarm", "stream-past-64-bits", "negative-corpus-seed",
             "corpus-seed-past-64-bits", "negative-seed", "seed-past-64-bits"],
    )
    def test_aliasing_stream_or_negative_count_rejected(self, block, key, value, message):
        # seeds and streams are 64-bit words: -3 would draw what 2**64 - 3 draws
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

    def test_resume_with_widths_the_trigger_does_not_imply_rejected(self):
        # resuming would skip the growth (or grow twice) yet apply its re-warm
        growth = GrowthConfig(2, 2, "guarded-zero", seed=3, trigger_step=5)
        cfg = make_config(steps=20, snapshot_every=10, growth=growth)
        ungrown = train(make_config(steps=10, snapshot_every=10)).final
        with pytest.raises(ValidationError, match="checkpoint at step 10 holds"):
            train(cfg, resume=ungrown)
        grown = train(cfg).checkpoints[1]
        later = make_config(steps=20, snapshot_every=10, growth=replace(growth, trigger_step=15))
        with pytest.raises(ValidationError, match="growth block at step 15 implies"):
            train(later, resume=grown)

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

    def test_hand_off_gets_the_snapshots_the_result_keeps_without_it(self, tmp_path):
        cfg = make_config(
            steps=20, snapshot_every=5,
            growth=GrowthConfig(4, 6, "guarded-zero", seed=9, trigger_step=10),
        )
        kept, handed = train(cfg), []
        result = train(cfg, on_snapshot=handed.append)
        assert result.checkpoints == []
        assert repr(result.log) == repr(kept.log)  # the first train_loss is nan
        assert result.step_losses == kept.step_losses
        assert len(handed) == len(kept.checkpoints) == 5
        for a, b in zip(handed, kept.checkpoints):
            save_checkpoint(a, tmp_path / "handed.nxf")
            save_checkpoint(b, tmp_path / "kept.nxf")
            assert (tmp_path / "handed.nxf").read_bytes() == (tmp_path / "kept.nxf").read_bytes()


class TestBackgroundScoring:
    """Each snapshot's held-out windows are scored on a thread pool while
    training continues; ``snapshot_every=1`` overlaps every scoring with
    the next step's in-place AdamW writes."""

    def scored_in_place(self, cfg, result):
        heldout = heldout_sequences(cfg)
        return [heldout_loss(ck.model_config, ck.params, heldout) for ck in result.checkpoints]

    def snapshot_index(self, monkeypatch):
        """Record every snapshot ``train`` takes; returns the index, in step
        order, of the snapshot whose parameters a window task was given."""
        real, snapshots = training._snapshot, []

        def snapshot(*args):
            snapshots.append(real(*args))
            return snapshots[-1]

        monkeypatch.setattr(training, "_snapshot", snapshot)
        return lambda params: next(i for i, ck in enumerate(snapshots) if ck.params is params)

    def test_losses_equal_scoring_each_checkpoint_through_growth(self):
        cfg = make_config(
            steps=12, snapshot_every=1,
            growth=GrowthConfig(4, 6, "noise:0.1", seed=9, trigger_step=5),
        )
        result = train(cfg)
        assert result.final.model_config == TINY.grown(4, 6)
        logged = [row.heldout_loss for row in result.log]
        assert len(logged) == 13
        assert logged == self.scored_in_place(cfg, result)

    def test_no_thread_outlives_a_run_that_returns(self):
        before = threading.enumerate()
        train(make_config(steps=4, snapshot_every=1))
        assert threading.enumerate() == before

    def test_no_thread_outlives_a_run_that_raises(self, monkeypatch):
        real = training.model_loss_and_grads
        calls = []

        def failing_step(*args):
            calls.append(None)
            if len(calls) == 3:
                raise NumericError("step failed")
            return real(*args)

        monkeypatch.setattr(training, "model_loss_and_grads", failing_step)
        before = threading.enumerate()
        with pytest.raises(NumericError, match="step failed"):
            train(make_config(steps=4, snapshot_every=1))
        assert threading.enumerate() == before

    def test_scoring_error_wins_over_a_later_step_error(self, monkeypatch):
        real_score, real_step = training.heldout_loss, training.model_loss_and_grads
        index = self.snapshot_index(monkeypatch)
        stepped = []

        def failing_score(config, params, windows):
            if index(params) == 1:  # the snapshot at step 1
                raise RuntimeError("scoring failed at snapshot 1")
            return real_score(config, params, windows)

        def failing_step(*args):
            stepped.append(None)
            if len(stepped) == 3:  # step 2, after that snapshot
                raise NumericError("step 2 failed")
            return real_step(*args)

        monkeypatch.setattr(training, "heldout_loss", failing_score)
        monkeypatch.setattr(training, "model_loss_and_grads", failing_step)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="scoring failed at snapshot 1"):
            train(make_config(steps=4, snapshot_every=1))
        assert threading.enumerate() == before

    def test_first_failure_in_step_order_wins_when_scorings_overlap(self, monkeypatch):
        # two workers, so snapshot 2 is scored while snapshot 1's first window waits
        real_score, index = training.heldout_loss, self.snapshot_index(monkeypatch)
        first_window = heldout_sequences(make_config())[0]
        later_failed = threading.Event()

        def failing_score(config, params, windows):
            snapshot = index(params)
            if snapshot == 2:
                later_failed.set()
                raise RuntimeError("scoring failed at snapshot 2")
            if snapshot == 1 and np.array_equal(windows[0], first_window):
                assert later_failed.wait(timeout=60)
                raise RuntimeError("scoring failed at snapshot 1")
            return real_score(config, params, windows)

        monkeypatch.setattr(training, "ThreadPoolExecutor", lambda workers: ThreadPoolExecutor(2))
        monkeypatch.setattr(training, "heldout_loss", failing_score)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="scoring failed at snapshot 1"):
            train(make_config(steps=4, snapshot_every=1))
        assert later_failed.is_set()
        assert threading.enumerate() == before

    def test_training_stops_at_the_snapshot_after_a_failed_scoring(self, monkeypatch):
        real_score, real_step = training.heldout_loss, training.model_loss_and_grads
        index = self.snapshot_index(monkeypatch)
        submitted, stepped = [], []

        class Scorer(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(super().submit(*args, **kwargs))
                return submitted[-1]

        def failing_score(config, params, windows):
            if index(params) == 1:  # the snapshot at step 2
                raise RuntimeError("scoring failed at snapshot 2")
            return real_score(config, params, windows)

        def step(*args):
            stepped.append(None)
            if len(stepped) == 4:  # step 3: the failed scoring ends before the next snapshot
                wait(submitted, timeout=60)
            return real_step(*args)

        monkeypatch.setattr(training, "ThreadPoolExecutor", Scorer)
        monkeypatch.setattr(training, "heldout_loss", failing_score)
        monkeypatch.setattr(training, "model_loss_and_grads", step)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="scoring failed at snapshot 2"):
            train(make_config(steps=8, snapshot_every=2))
        assert len(stepped) == 4  # no step after the snapshot at step 4
        # and that snapshot is not scored: only the windows of steps 0 and 2 were submitted
        assert len(submitted) == 2 * len(heldout_sequences(make_config()))
        assert threading.enumerate() == before

    def test_losses_do_not_depend_on_the_cpu_count(self):
        # train sizes its scorer pool from the CPUs the process may run on
        cfg = make_config(steps=8, snapshot_every=2)
        script = (
            "import json, os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from growformer.training import ExperimentConfig, train\n"
            "result = train(ExperimentConfig.from_dict(json.loads(sys.argv[1])))\n"
            "print(json.dumps([result.step_losses, [row.heldout_loss for row in result.log]]))\n"
        )
        src = str(Path(training.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        one_cpu = subprocess.run(
            [sys.executable, "-c", script, json.dumps(cfg.to_dict())],
            env=dict(os.environ, PYTHONPATH=path),
            check=True, capture_output=True, text=True, timeout=120,
        ).stdout
        result = train(cfg)
        assert json.loads(one_cpu) == [result.step_losses, [row.heldout_loss for row in result.log]]

    def test_refused_resume_generates_nothing_and_starts_no_thread(self, monkeypatch):
        growth = GrowthConfig(2, 2, "guarded-zero", seed=3, trigger_step=5)
        ungrown = train(make_config(steps=10, snapshot_every=10)).final

        def gen_corpus(*args, **kwargs):
            pytest.fail("generated data before refusing the resume checkpoint")

        monkeypatch.setattr(training, "gen_corpus", gen_corpus)
        threads = threading.active_count()
        with pytest.raises(ValidationError, match="past the target"):
            train(make_config(steps=5, snapshot_every=5), resume=ungrown)
        with pytest.raises(ValidationError, match="checkpoint at step 10 holds"):
            train(make_config(steps=20, snapshot_every=10, growth=growth), resume=ungrown)
        assert threading.active_count() == threads


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
