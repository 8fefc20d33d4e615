import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from growformer import cli, growth
from growformer.checkpoint import load_checkpoint, save_checkpoint
from growformer.experiment import SNAPSHOT_COLUMNS, emit_reports, run_growth_experiment
from growformer.model import ModelConfig
from growformer.rng import HELDOUT_STREAM
from growformer.training import (
    CorpusConfig,
    ExperimentConfig,
    OptimizerConfig,
    ScheduleConfig,
    train,
)

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


def duplicate_first_matrix(data: bytes) -> bytes:
    """The checkpoint bytes with its first matrix listed twice."""
    (json_len,) = struct.unpack("<I", data[8:12])
    start = 12 + json_len
    (count, name_len) = struct.unpack("<II", data[start : start + 8])
    rows, cols = struct.unpack("<II", data[start + 8 + name_len : start + 16 + name_len])
    entry = data[start + 4 : start + 18 + name_len + 8 * rows * cols]
    return data[:start] + struct.pack("<I", count + 1) + entry + data[start + 4 :]


def with_rng_algorithm(data: bytes, algorithm: str) -> bytes:
    """The checkpoint bytes with ``algorithm`` written into the header's
    RNG block."""
    (json_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + json_len])
    header["rng"]["algorithm"] = algorithm
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + json_len :]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("step", -1, "checkpoint config: step must be an integer >= 0, got -1"),
        ("tokens", "8", "checkpoint config: tokens must be an integer >= 0, got '8'"),
        ("seed", -3, "rng config: seed must be an integer >= 0, got -3"),
        ("position", -1, "rng config: position must be an integer >= 0, got -1"),
        ("algorithm", "xorshift", "rng config: algorithm must be 'splitmix64-boxmuller'"),
        ("duplicate", None, "matrix 'm/blocks.0.attn.k.w_down' appears twice"),
    ],
    ids=["negative-step", "string-tokens", "negative-seed", "negative-position",
         "unknown-algorithm", "duplicate-matrix"],
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
        bad.write_bytes(with_rng_algorithm(bad.read_bytes(), value))
    argv = ["train", "--config", write_config(experiment_blob(), tmp_path),
            "--out", str(tmp_path / "run"), "--resume", str(bad)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list((tmp_path / "run").glob("*.nxf"))


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


def test_fit_scaling_on_a_header_only_metrics_csv_exits_1(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    path.write_text("path," + SNAPSHOT_COLUMNS + "\n", encoding="utf-8")
    assert cli.main(["fit-scaling", "--metrics", str(path)]) == 1
    assert capsys.readouterr().err == "error: no (r, ppl) pairs given\n"


def test_metrics_csv_without_ppl_column_exits_1(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    path.write_text("tokens,r\n0,0.0\n320,0.5\n", encoding="utf-8")
    assert cli.main(["fit-scaling", "--metrics", str(path)]) == 1
    assert "no 'ppl' column" in capsys.readouterr().err


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


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_metrics_exit_1(bad, tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    rows = [f"{320 * i},{0.1 * (i + 1)},{3.0 + i}" for i in range(8)]
    rows[3] = f"960,{bad},6.0"
    path.write_text("tokens,r,ppl\n" + "\n".join(rows) + "\n", encoding="utf-8")
    for command in ("fit-scaling", "periodicity"):
        assert cli.main([command, "--metrics", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err


def test_periodicity_exits_0(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    rows = [f"{320 * i},{0.5 + 0.3 * math.cos(2 * math.pi * i / 4) + 0.01 * i}" for i in range(12)]
    path.write_text("tokens,r\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert cli.main(["periodicity", "--metrics", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["harmonic"]["degenerate"] is False
    assert abs(out["harmonic"]["freq"] - 1 / 1.28) < 0.05  # one cycle per 4 rows of 320 tokens
    assert out["fisher_g"]["fourier_term_count"] == 5


@pytest.fixture(scope="module")
def two_plan_reports(base_run, tmp_path_factory):
    """metrics.csv of a two-plan growth experiment, and of its first plan
    emitted alone."""
    plans = [growth.GrowthPlan(2, 2, "guarded-zero", seed=3),
             growth.GrowthPlan(2, 2, "noise:0.1", seed=3)]
    series = run_growth_experiment(base_run, plans, budget=8, cadence=2)
    both, first = tmp_path_factory.mktemp("both"), tmp_path_factory.mktemp("first")
    emit_reports(series, both)
    label = sorted(series)[0]
    emit_reports({label: series[label]}, first)
    return both / "metrics.csv", first / "metrics.csv", sorted(series)


@pytest.mark.parametrize("command", ["fit-scaling", "periodicity"])
def test_one_path_of_a_multi_plan_file_reads_as_that_path_alone(
    command, two_plan_reports, capsys
):
    both, first, labels = two_plan_reports
    assert cli.main([command, "--metrics", str(first)]) == 0
    alone = capsys.readouterr().out
    assert cli.main([command, "--metrics", str(both), "--path", labels[0]]) == 0
    assert capsys.readouterr().out == alone


@pytest.mark.parametrize("command", ["fit-scaling", "periodicity"])
@pytest.mark.parametrize("extra", [[], ["--path", "no-such-plan"]], ids=["no-path", "unknown"])
def test_multi_plan_file_without_a_known_path_exits_1(
    command, extra, two_plan_reports, capsys
):
    both, _, labels = two_plan_reports
    assert cli.main([command, "--metrics", str(both), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(label in err for label in labels)


def test_path_label_on_a_file_without_a_path_column_exits_1(tmp_path, capsys):
    path = tmp_path / "alignment.csv"
    path.write_text("tokens,r\n0,0.5\n320,0.6\n", encoding="utf-8")
    assert cli.main(["periodicity", "--metrics", str(path), "--path", "x"]) == 1
    assert "no 'path' column" in capsys.readouterr().err


def test_short_row_of_a_multi_plan_file_exits_1(two_plan_reports, tmp_path, capsys):
    both, _, labels = two_plan_reports
    short = tmp_path / "metrics.csv"
    lines = both.read_text(encoding="utf-8").splitlines()
    label_only = lines[1].split(",")[lines[0].split(",").index("path")]
    short.write_text("\n".join([lines[0], label_only, *lines[2:]]) + "\n", encoding="utf-8")
    assert cli.main(["periodicity", "--metrics", str(short), "--path", labels[0]]) == 1
    assert "malformed metrics row" in capsys.readouterr().err


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


def write_config(config: dict, tmp_path) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_train_resume_final_checkpoint_matches_direct_run(tmp_path):
    config = experiment_blob()
    config["schedule"] = {"steps": 4, "warmup": 2, "snapshot_every": 2}
    path = write_config(config, tmp_path)
    direct, resumed = tmp_path / "direct", tmp_path / "resumed"
    assert cli.main(["train", "--config", path, "--out", str(direct)]) == 0
    assert cli.main(["train", "--config", path, "--out", str(resumed),
                     "--resume", str(direct / "step00000002.nxf")]) == 0
    assert sorted(p.name for p in resumed.glob("*.nxf")) == ["step00000002.nxf",
                                                             "step00000004.nxf"]
    final = "step00000004.nxf"
    assert (resumed / final).read_bytes() == (direct / final).read_bytes()


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


def test_analyze_grown_series_exits_0(base_path, tmp_path, capsys):
    grown = tmp_path / "grown.nxf"
    assert cli.main(grow_args(base_path, grown, "guarded-zero")) == 0
    config = experiment_blob()
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


def test_zero_policy_grow_with_nonzero_deviation_exits_2(base_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(growth, "verify_function_preservation", lambda *args: 1e-16)
    out = tmp_path / "grown.nxf"
    assert cli.main(grow_args(base_path, out, "guarded-zero")) == 2
    assert "must preserve the output exactly" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_without_experiment_config_exits_1_for_grow_and_verify(
    base_path, tmp_path, capsys
):
    ck = load_checkpoint(base_path)
    ck.experiment = None
    bare = tmp_path / "bare.nxf"
    save_checkpoint(ck, bare)
    out = tmp_path / "grown.nxf"
    assert cli.main(grow_args(bare, out, "guarded-zero")) == 1
    assert capsys.readouterr().err == "error: base checkpoint carries no experiment config\n"
    assert not out.exists()
    assert cli.main(["verify", "--old", str(bare), "--new", str(base_path)]) == 1
    assert capsys.readouterr().err == "error: base checkpoint carries no experiment config\n"
