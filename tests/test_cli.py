import argparse
import hashlib
import json
import struct
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from growformer import cli, experiment, growth, training
from growformer.checkpoint import load_checkpoint, save_checkpoint
from growformer.errors import ValidationError
from growformer.experiment import ablate_axes
from growformer.flops import model_flops
from growformer.model import ModelConfig, init_params
from growformer.rng import HELDOUT_STREAM
from growformer.training import (
    CorpusConfig,
    ExperimentConfig,
    GrowthConfig,
    OptimizerConfig,
    ScheduleConfig,
    checkpoint_experiment,
    heldout_sequences,
    train,
)

from checkpoint_bytes import as_f4, with_header

MODEL = ModelConfig(
    vocab_size=64, context_len=16, hidden_size=8, n_heads=2, n_layers=1,
    ladder_m=10, ladder_a=14, ffn_size=16,
)


@pytest.fixture(scope="module")
def base_run():
    config = ExperimentConfig(
        model=MODEL,
        optimizer=OptimizerConfig(lr=3e-3),
        schedule=ScheduleConfig(steps=4, warmup=2, snapshot_every=4),
        corpus=CorpusConfig(generator="markov-k2", seed=2, length=2000),
        seed=2,
    )
    return train(config).final


@pytest.fixture(scope="module")
def base_path(base_run, tmp_path_factory):
    path = tmp_path_factory.mktemp("base") / "base.nxf"
    save_checkpoint(base_run, path)
    return path


def grow_args(base_path, out, init):
    return ["grow", "--ckpt", str(base_path), "--dm", "2", "--da", "2",
            "--init", init, "--out", str(out)]


def test_guarded_zero_grow_then_verify_expect_zero(base_path, tmp_path, capsys):
    grown = tmp_path / "grown.nxf"
    assert cli.main(grow_args(base_path, grown, "guarded-zero")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_output_deviation"] == 0.0
    assert cli.main(["verify", "--old", str(base_path), "--new", str(grown), "--expect-zero"]) == 0
    assert "max logit deviation: 0.0" in capsys.readouterr().out


def test_grow_past_the_hierarchy_then_verify_expect_zero(base_path, tmp_path, capsys):
    # m 10 + 6 > a 14, as the paper's axis ablation grows: preservation holds
    grown = tmp_path / "grown.nxf"
    argv = ["grow", "--ckpt", str(base_path), "--dm", "6", "--da", "0",
            "--init", "guarded-zero", "--out", str(grown)]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["new_m"], report["new_a"], report["max_output_deviation"]) == (16, 14, 0.0)
    assert list(report["block_init"]) == sorted(
        ["up_new", "mid_right", "mid_bottom", "mid_corner", "down_new"]
    )
    assert cli.main(["verify", "--old", str(base_path), "--new", str(grown), "--expect-zero"]) == 0


@pytest.mark.parametrize("init", ["guarded-zero", "noise:0.2"])
def test_grow_of_saved_checkpoint_matches_in_memory_grow(init, base_run, base_path, tmp_path):
    """A loaded checkpoint lists its matrices in sorted-name order, the
    in-memory run in ``param_shapes`` order; the grown weights agree."""
    out = tmp_path / "grown.nxf"
    assert cli.main(grow_args(base_path, out, init) + ["--seed", "3"]) == 0
    want, _, _ = growth.grow_model(base_run.params, MODEL, growth.GrowthPlan(2, 2, init, seed=3))
    got = load_checkpoint(out).params
    assert sorted(got) == sorted(want)
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)


def test_unknown_init_policy_exits_1(base_path, tmp_path, capsys):
    assert cli.main(grow_args(base_path, tmp_path / "x.nxf", "bogus")) == 1
    assert "unknown init policy 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "past-64-bits"])
def test_grow_seed_outside_64_bits_exits_1(seed, base_path, tmp_path, capsys):
    out = tmp_path / "x.nxf"
    assert cli.main(grow_args(base_path, out, "guarded-zero") + ["--seed", str(seed)]) == 1
    assert "growth config: seed must be an integer >= 0 and < 2**64" in capsys.readouterr().err
    assert not out.exists()


def test_truncated_checkpoint_exits_1(base_path, tmp_path, capsys):
    cut = tmp_path / "cut.nxf"
    data = base_path.read_bytes()
    cut.write_bytes(data[: len(data) // 2])
    assert cli.main(["verify", "--old", str(base_path), "--new", str(cut)]) == 1
    assert "truncated" in capsys.readouterr().err


def test_model_config_with_unknown_key_exits_1(tmp_path, capsys):
    blob = MODEL.to_dict()
    blob["hiden_size"] = blob.pop("hidden_size")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert cli.main(["flops", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "hiden_size" in err and "hidden_size" in err


def experiment_blob() -> dict:
    return ExperimentConfig(
        model=MODEL,
        optimizer=OptimizerConfig(lr=3e-3),
        schedule=ScheduleConfig(steps=2, warmup=1, snapshot_every=2),
        corpus=CorpusConfig(generator="markov-k2", seed=2, length=2000),
    ).to_dict()


GROWTH = {"delta_m": 2, "delta_a": 2, "init_policy": "guarded-zero", "seed": 0, "trigger_step": 2}


def train_on(config: dict, tmp_path) -> tuple[int, Path]:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    return cli.main(["train", "--config", str(path), "--out", str(out)]), out


def test_unimplemented_optimizer_kind_exits_1(tmp_path, capsys):
    config = experiment_blob()
    config["optimizer"]["kind"] = "sgd"
    code, out = train_on(config, tmp_path)
    assert code == 1
    assert "'sgd'" in capsys.readouterr().err
    assert not list(out.glob("*.nxf"))


@pytest.mark.parametrize(
    "block, key, value, message",
    [
        ("schedule", "steps", "2", "schedule config: steps must be an integer >= 0, got '2'"),
        ("optimizer", "lr", "0.003", "optimizer config: lr must be a real number, got '0.003'"),
        ("corpus", "length", "2000", "corpus config: length must be an integer, got '2000'"),
        ("optimizer", "lr", None, "optimizer config: missing required key 'lr'"),
        ("model", "n_head", 2, "model config: unknown key 'n_head'"),
        ("optimizer", "weight_decy", 0.1, "optimizer config: unknown key 'weight_decy'"),
        ("schedule", "warmpu", 1, "schedule config: unknown key 'warmpu'"),
        ("corpus", "strem", 1, "corpus config: unknown key 'strem'"),
        ("experiment", "growht", GROWTH, "experiment config: unknown key 'growht'"),
        ("experiment", "growth_trigger", 2, "experiment config: unknown key 'growth_trigger'"),
        ("growth", "trigger", 2, "growth config: unknown key 'trigger'"),
    ],
    ids=["string-steps", "string-lr", "string-length", "missing-lr", "unknown-model-key",
         "unknown-optimizer-key", "unknown-schedule-key", "unknown-corpus-key",
         "unknown-experiment-key", "top-level-trigger", "unknown-growth-key"],
)
def test_experiment_config_with_bad_value_or_missing_key_exits_1(
    block, key, value, message, tmp_path, capsys
):
    config = experiment_blob()
    if block == "growth":
        config["growth"] = dict(GROWTH)
    target = config if block == "experiment" else config[block]
    if value is None:
        del target[key]
    else:
        target[key] = value
    code, out = train_on(config, tmp_path)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.nxf"))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("lr", float("nan"), "optimizer config: lr must be finite, got nan"),
        ("lr", float("inf"), "optimizer config: lr must be finite, got inf"),
        ("weight_decay", float("-inf"), "optimizer config: weight_decay must be finite"),
        ("lr", 10**400, "optimizer config: lr must be finite, got 1000"),
        ("betas", [1.0, 0.95], "optimizer config: betas must lie in [0, 1), got 1.0"),
        ("betas", [0.9, -0.1], "optimizer config: betas must lie in [0, 1), got -0.1"),
    ],
    ids=["nan-lr", "infinite-lr", "infinite-weight-decay", "float-overflowing-lr", "beta1-one",
         "negative-beta2"],
)
def test_non_finite_or_out_of_range_optimizer_value_exits_1(key, value, message, tmp_path, capsys):
    config = experiment_blob()
    config["optimizer"][key] = value
    code, out = train_on(config, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not list(out.glob("*.nxf"))


@pytest.mark.parametrize("trigger", [-1, 10, 50])
def test_growth_trigger_that_never_fires_exits_1(trigger, tmp_path, capsys):
    config = experiment_blob()
    config["schedule"] = {"steps": 10, "warmup": 1, "snapshot_every": 10}
    config["growth"] = {**GROWTH, "trigger_step": trigger}
    code, out = train_on(config, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "trigger_step must lie in [0, 10)" in err and err.count("\n") == 1
    assert not list(out.glob("*.nxf"))


def test_training_on_the_heldout_stream_exits_1(tmp_path, capsys):
    config = experiment_blob()
    config["corpus"]["stream"] = HELDOUT_STREAM
    code, out = train_on(config, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "held-out stream" in err and err.count("\n") == 1
    assert not list(out.glob("*.nxf"))


def test_model_too_large_for_memory_exits_1(tmp_path, capsys):
    config = experiment_blob()
    config["model"]["ffn_size"] = 2**40
    code, out = train_on(config, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "physical memory" in err and err.count("\n") == 1
    assert not list(out.glob("*.nxf"))


def duplicate_first_matrix(data: bytes) -> bytes:
    """The checkpoint bytes with its first matrix listed twice."""
    (json_len,) = struct.unpack("<I", data[8:12])
    start = 12 + json_len
    (count, name_len) = struct.unpack("<II", data[start : start + 8])
    rows, cols = struct.unpack("<II", data[start + 8 + name_len : start + 16 + name_len])
    entry = data[start + 4 : start + 18 + name_len + 8 * rows * cols]
    return data[:start] + struct.pack("<I", count + 1) + entry + data[start + 4 :]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("step", -1, "checkpoint config: step must be an integer >= 0, got -1"),
        ("tokens", "8", "checkpoint config: tokens must be an integer >= 0, got '8'"),
        ("seed", -3, "rng config: seed must be an integer >= 0 and < 2**64, got -3"),
        ("seed", 2**64 + 5,
         "rng config: seed must be an integer >= 0 and < 2**64, got 18446744073709551621"),
        ("position", -1, "rng config: position must be an integer >= 0, got -1"),
        ("position", 2**64 + 1,
         "rng config: position must be at most 2**64, got 18446744073709551617"),
        ("algorithm", "xorshift", "rng config: algorithm must be 'splitmix64-boxmuller'"),
        ("duplicate", None, "matrix 'm/blocks.0.attn.k.w_down' appears twice"),
    ],
    ids=["negative-step", "string-tokens", "negative-seed", "seed-past-64-bits",
         "negative-position", "position-past-2**64", "unknown-algorithm", "duplicate-matrix"],
)
def test_malformed_checkpoint_header_or_matrix_list_exits_1(
    field, value, message, base_path, tmp_path, capsys
):
    ck = load_checkpoint(base_path)
    if field in ("step", "tokens"):
        setattr(ck, field, value)
    elif field in ("seed", "position"):
        setattr(ck.rng, field, value)
    bad = tmp_path / "bad.nxf"
    save_checkpoint(ck, bad)
    if field == "duplicate":
        bad.write_bytes(duplicate_first_matrix(bad.read_bytes()))
    elif field == "algorithm":
        bad.write_bytes(with_header(bad.read_bytes(), lambda h: h["rng"].update(algorithm=value)))
    argv = ["train", "--config", write_config(experiment_blob(), tmp_path),
            "--out", str(tmp_path / "run"), "--resume", str(bad)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list((tmp_path / "run").glob("*.nxf"))


def test_flops_prints_the_same_breakdown_for_a_model_and_an_experiment_config(tmp_path, capsys):
    outputs = []
    for kind, blob in (("bare", MODEL.to_dict()), ("experiment", experiment_blob())):
        path = tmp_path / kind / "model.json"  # one stem: it names the CSV row
        path.parent.mkdir()
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert cli.main(["flops", "--config", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    header, row = outputs[0].splitlines()
    row = dict(zip(header.split(","), row.split(","), strict=True))
    ladder, standard = model_flops(MODEL), model_flops(MODEL, projection="standard")
    assert row["config_name"] == "model" and int(row["total"]) == ladder.total
    assert float(row["ratio_vs_baseline"]) == ladder.total / standard.total


@pytest.mark.parametrize("value", ["16", 16.0, True, 0, -8, None])
def test_model_config_with_non_integer_or_non_positive_value_exits_1(value, tmp_path, capsys):
    blob = MODEL.to_dict()
    blob["hidden_size"] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert cli.main(["flops", "--config", str(path)]) == 1
    assert "hidden_size must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "flops"])
@pytest.mark.parametrize("kind", ["malformed-json", "directory"])
def test_unreadable_config_exits_1(command, kind, tmp_path, capsys):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_text('{"model": ', encoding="utf-8")
    argv = [command, "--config", str(path)]
    if command == "train":
        argv += ["--out", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["train", "--config", "x", "--out", "y", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["flops", "--config", "x", "--seq-len", "abc"], "invalid int value: 'abc'"),
    (["grow", "--ckpt", "x"], "the following arguments are required"),
    (["nosuch"], "invalid choice: 'nosuch'"),
    (["grow", "--ckpt", "x", "--dm", "1", "--da", "1", "--init", "strict-zero", "--out", "y",
      "--permissive"], "unrecognized arguments: --permissive"),
    (["periodicity", "--metrics", "x"], "invalid choice: 'periodicity'"),
    (["fit-scaling", "--metrics", "x"], "invalid choice: 'fit-scaling'"),
])
def test_malformed_command_line_exits_1_with_one_error_line(argv, message, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "usage:" not in captured.err + captured.out


def test_docstring_lists_exactly_the_parser_subcommands():
    listed = cli.__doc__.split("Subcommands:", 1)[1].split(".", 1)[0]
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert [name.strip() for name in listed.split(",")] == list(sub.choices)


def test_help_still_exits_0(capsys):
    assert cli.main(["flops", "--help"]) == 0
    assert "--seq-len" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, shape",
    [("blocks.0.attn.q.w_mid", None), ("blocks.0.attn.q.w_extra", (1, 1)), ("ln_f.g", (1, 15))],
    ids=["missing-matrix", "extra-matrix", "misshapen-ln_f.g"],
)
def test_checkpoint_off_its_parameter_layout_exits_1(name, shape, base_path, tmp_path, capsys):
    ck = load_checkpoint(base_path)
    if shape is None:
        del ck.params[name]
    else:
        ck.params[name] = np.ones(shape)
    bad = tmp_path / "bad.nxf"
    save_checkpoint(ck, bad)
    assert cli.main(["verify", "--old", str(base_path), "--new", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "Traceback" not in err


@pytest.mark.parametrize(
    "field, value", [("hidden_size", 6), ("n_heads", 4), ("n_layers", 2), ("ffn_size", 8)]
)
def test_verify_of_a_model_that_is_no_growth_exits_1(
    field, value, base_run, base_path, tmp_path, capsys
):
    config = replace(MODEL.grown(2, 2), **{field: value})
    params = init_params(config, seed=0)
    other = tmp_path / "other.nxf"
    save_checkpoint(
        replace(base_run, model_config=config, params=params, adam_m=params, adam_v=params), other
    )
    assert cli.main(["verify", "--old", str(base_path), "--new", str(other)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} mismatch between models")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_ablate_exits_0(base_path, capsys):
    assert cli.main(["ablate", "--ckpt", str(base_path), "--budget", "2",
                     "--delta-total", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "axis,order,m,a,ppl"
    assert [line.split(",")[:4] for line in lines[1:]] == [
        ["M", "M>A>D", "18", "14"],
        ["A", "A>M>D", "10", "22"],
        ["M+A", "M>A>D", "17", "15"],
        ["M+A", "A>M>D", "11", "21"],
    ]
    assert all(float(line.split(",")[4]) > 1.0 for line in lines[1:])


@pytest.mark.parametrize("total", [2, 1])
def test_ablate_delta_total_below_3_exits_1_before_training(total, base_path, monkeypatch, capsys):
    # at 2 both M+A rows would be (1, 1); at 1 they would be single-axis growths
    def no_training(*args, **kwargs):
        raise AssertionError("ablate trained before refusing its delta_total")

    monkeypatch.setattr(experiment, "train", no_training)
    argv = ["ablate", "--ckpt", str(base_path), "--budget", "2", "--delta-total", str(total)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: delta_total must be at least 3, got {total}\n"


def write_config(config: dict, tmp_path) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


# sha256 of every file ``growformer train`` writes for the config of
# ``direct_train`` (each snapshot and train_log.csv, each hashed with its
# name), recorded while ``train`` still returned every snapshot for the
# command to write after the run
TRAIN_FILES_SHA256 = "c70466c4ce2b4b69636f38b08a2b212fa240873e5376e5fe4aade82ea5685464"
TRAIN_FILES = [f"step{step:08d}.nxf" for step in (0, 2, 4, 6)] + ["train_log.csv"]


def files_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def direct_train(tmp_path_factory):
    """A six-step run with a snapshot every two steps and a growth at step
    2: returns its config path and its output directory."""
    root = tmp_path_factory.mktemp("direct")
    config = experiment_blob()
    config["schedule"] = {"steps": 6, "warmup": 2, "snapshot_every": 2}
    config["growth"] = GROWTH
    path = write_config(config, root)
    out = root / "run"
    assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
    return path, out


def test_train_writes_pinned_bytes(direct_train):
    _, out = direct_train
    assert sorted(p.name for p in out.iterdir()) == TRAIN_FILES
    assert files_digest(out) == TRAIN_FILES_SHA256


def test_train_resume_final_checkpoint_matches_direct_run(direct_train, tmp_path):
    # from every snapshot, step 0 included: those at steps 0 and 2 hold the
    # base widths, those at 4 and 6 the grown ones
    path, direct = direct_train
    for start in TRAIN_FILES[:-1]:
        resumed = tmp_path / start
        assert cli.main(["train", "--config", path, "--out", str(resumed),
                         "--resume", str(direct / start)]) == 0
        written = TRAIN_FILES[TRAIN_FILES.index(start) :]
        assert sorted(p.name for p in resumed.iterdir()) == written
        for name in written[:-1]:
            assert (resumed / name).read_bytes() == (direct / name).read_bytes(), (start, name)


def test_train_resume_frees_the_loaded_checkpoint_before_the_first_write(
    direct_train, tmp_path, monkeypatch
):
    # train copies the resumed state, so the loaded checkpoint and both of
    # its Adam moments must not stay alive beside the copies for the run
    path, direct = direct_train
    loaded, alive_at_writes = [], []

    def load(*args):
        ck = load_checkpoint(*args)
        loaded.append(weakref.ref(ck))
        return ck

    def save(ck, out):
        alive_at_writes.append(loaded[0]() is not None)
        save_checkpoint(ck, out)

    monkeypatch.setattr(cli, "load_checkpoint", load)
    monkeypatch.setattr(cli, "save_checkpoint", save)
    assert cli.main(["train", "--config", path, "--out", str(tmp_path / "run"),
                     "--resume", str(direct / TRAIN_FILES[1])]) == 0
    assert alive_at_writes == [False, False, False]


# sha256 of the alignment.csv and fits.json that ``analyze`` writes for the
# snapshots of ``direct_train`` against its first, recorded while the
# command still held every loaded checkpoint whole
ANALYZE_FILES_SHA256 = "af3a66f2178a46e36f4a58b94ba6cc2c828440d5b9587d813eca0f422bdc7ba9"


def test_analyze_writes_pinned_bytes(direct_train, tmp_path, capsys):
    _, run = direct_train
    out = tmp_path / "out"
    assert cli.main(["analyze", "--base", str(run / TRAIN_FILES[0]), "--series", str(run),
                     "--out", str(out)]) == 0
    assert "analyzed 4 snapshots" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["alignment.csv", "fits.json"]
    assert files_digest(out) == ANALYZE_FILES_SHA256


def test_train_failing_mid_run_leaves_the_snapshots_made_before_it(
    direct_train, tmp_path, monkeypatch, capsys
):
    path, direct = direct_train
    real, steps = training.model_loss_and_grads, []

    def non_finite_at_step_3(*args):
        steps.append(None)
        loss, grads = real(*args)
        return (float("nan") if len(steps) == 4 else loss), grads

    monkeypatch.setattr(training, "model_loss_and_grads", non_finite_at_step_3)
    failed = tmp_path / "failed"
    assert cli.main(["train", "--config", path, "--out", str(failed)]) == 2
    assert capsys.readouterr().err == "numeric failure: non-finite training loss at step 3\n"
    # no train_log.csv, and each snapshot written is the direct run's and resumes
    assert sorted(p.name for p in failed.iterdir()) == TRAIN_FILES[:2]
    monkeypatch.undo()
    for name in TRAIN_FILES[:2]:
        assert (failed / name).read_bytes() == (direct / name).read_bytes()
        resumed = tmp_path / f"from-{name}"
        assert cli.main(["train", "--config", path, "--out", str(resumed),
                         "--resume", str(failed / name)]) == 0
        assert (resumed / TRAIN_FILES[3]).read_bytes() == (direct / TRAIN_FILES[3]).read_bytes()


def test_resume_past_the_rng_counter_limit_exits_1(tmp_path, capsys):
    config = experiment_blob()
    config["schedule"] = {"steps": 4, "warmup": 2, "snapshot_every": 2}
    path = write_config(config, tmp_path)
    direct = tmp_path / "direct"
    assert cli.main(["train", "--config", path, "--out", str(direct)]) == 0
    ck = load_checkpoint(direct / "step00000002.nxf")
    ck.rng.position = 2**64
    bad = tmp_path / "exhausted.nxf"
    save_checkpoint(ck, bad)
    capsys.readouterr()
    resumed = tmp_path / "resumed"
    argv = ["train", "--config", path, "--out", str(resumed), "--resume", str(bad)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rng stream exhausted: position 18446744073709551616")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (resumed / "step00000004.nxf").exists()


def test_resume_from_other_widths_without_growth_exits_1(base_path, tmp_path, capsys):
    # every snapshot would record the config's widths while holding the grown matrices
    grown = tmp_path / "grown.nxf"
    assert cli.main(grow_args(base_path, grown, "guarded-zero")) == 0
    capsys.readouterr()
    config = experiment_blob()
    config["schedule"] = {"steps": 8, "warmup": 2, "snapshot_every": 2}
    with pytest.raises(ValidationError, match="but the config implies"):
        train(ExperimentConfig.from_dict(config), resume=load_checkpoint(grown))
    out = tmp_path / "run"
    argv = ["train", "--config", write_config(config, tmp_path), "--out", str(out),
            "--resume", str(grown)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint at step 4 holds") and err.count("\n") == 1
    assert not list(out.glob("*.nxf"))


def test_analyze_grown_series_exits_0(base_path, tmp_path, capsys):
    grown = tmp_path / "grown.nxf"
    assert cli.main(grow_args(base_path, grown, "guarded-zero")) == 0
    config = experiment_blob()
    config["model"] = MODEL.grown(2, 2).to_dict()
    config["schedule"] = {"steps": 8, "warmup": 2, "snapshot_every": 2}
    series, out = tmp_path / "series", tmp_path / "out"
    assert cli.main(["train", "--config", write_config(config, tmp_path), "--out", str(series),
                     "--resume", str(grown)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", "--base", str(base_path), "--series", str(series),
                     "--out", str(out)]) == 0
    assert "analyzed 3 snapshots" in capsys.readouterr().out
    lines = (out / "alignment.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["64", "96", "128"]
    # every snapshot of the grown series has new blocks to locate
    assert all(0.0 <= float(line.split(",")[1]) <= 1.0 for line in lines[1:])
    fits = json.loads((out / "fits.json").read_text(encoding="utf-8"))
    assert {"harmonic", "fisher_g", "scaling_law"} <= set(fits)


def test_every_preservation_gate_probes_every_heldout_window(
    base_run, base_path, tmp_path, monkeypatch
):
    # in-run growth, the four ablate settings, grow and verify, in that order
    real = growth.verify_function_preservation
    probe_sizes = []

    def spy(old_params, old_config, new_params, new_config, probe):
        probe_sizes.append(len(probe))
        return real(old_params, old_config, new_params, new_config, probe)

    monkeypatch.setattr(growth, "verify_function_preservation", spy)
    monkeypatch.setattr(cli, "verify_function_preservation", spy)
    base_exp = checkpoint_experiment(base_run)
    train(replace(base_exp, growth=GrowthConfig(2, 2, "guarded-zero", seed=1, trigger_step=0)))
    ablate_axes(base_run, budget=1)
    grown = tmp_path / "grown.nxf"
    assert cli.main(grow_args(base_path, grown, "guarded-zero")) == 0
    assert cli.main(["verify", "--old", str(base_path), "--new", str(grown)]) == 0
    assert probe_sizes == [len(heldout_sequences(base_exp))] * 7


def test_zero_policy_grow_with_nonzero_deviation_exits_2(base_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(growth, "verify_function_preservation", lambda *args: 1e-16)
    out = tmp_path / "grown.nxf"
    assert cli.main(grow_args(base_path, out, "guarded-zero")) == 2
    assert "must preserve the output exactly" in capsys.readouterr().err
    assert not out.exists()


def base_checkpoint_commands(bad: Path, base_path: Path, tmp_path: Path) -> list[list[str]]:
    """Each command that reads ``bad`` as its base checkpoint."""
    series = tmp_path / "series"
    series.mkdir(exist_ok=True)
    (series / "step1.nxf").write_bytes(base_path.read_bytes())
    return [
        grow_args(bad, tmp_path / "grown.nxf", "guarded-zero"),
        ["verify", "--old", str(bad), "--new", str(base_path)],
        ["analyze", "--base", str(bad), "--series", str(series), "--out", str(tmp_path / "out")],
        ["ablate", "--ckpt", str(bad), "--budget", "2", "--delta-total", "8"],
    ]


def test_checkpoint_without_experiment_config_exits_1_for_grow_and_verify(
    base_path, tmp_path, capsys
):
    bare = tmp_path / "bare.nxf"
    for edit, message in (
        (lambda h: h.pop("experiment"), "bad JSON header: missing key 'experiment'"),
        (lambda h: h.update(experiment=None),
         "bad JSON header: experiment must be an object, got None"),
    ):
        bare.write_bytes(with_header(base_path.read_bytes(), edit))
        for argv in base_checkpoint_commands(bare, base_path, tmp_path):
            assert cli.main(argv) == 1, argv[0]
            assert capsys.readouterr().err == f"error: {bare}: {message}\n", argv[0]
    assert not (tmp_path / "grown.nxf").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "rewrite, message",
    [
        (as_f4, "dtype tag b'f4'"),
        (lambda d: with_header(d, lambda h: h["model"].update(dtype="f4")),
         "model config: unknown key 'dtype'"),
        (lambda d: with_header(d, lambda h: h["experiment"].update(arithmetic="f8")),
         "experiment config: unknown key 'arithmetic'"),
        (lambda d: with_header(d, lambda h: h["experiment"].update(out_dir=None)),
         "experiment config: unknown key 'out_dir'"),
        (lambda d: with_header(d, lambda h: h.update(dtype="f8")),
         "checkpoint config: unknown key 'dtype'"),
        (lambda d: with_header(d, lambda h: h["rng"].update(dtype="f8")),
         "rng config: unknown key 'dtype'"),
    ],
    ids=["f4-tag", "model-dtype-key", "experiment-arithmetic-key", "experiment-out_dir-key",
         "header-dtype-key", "rng-dtype-key"],
)
def test_base_checkpoint_no_writer_produces_exits_1(rewrite, message, base_path, tmp_path, capsys):
    bad = tmp_path / "bad.nxf"
    bad.write_bytes(rewrite(base_path.read_bytes()))
    for argv in base_checkpoint_commands(bad, base_path, tmp_path):
        assert cli.main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, argv[0]
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "grown.nxf").exists() and not (tmp_path / "out").exists()
