"""Tests of the benchmark itself: FLOP accounting of the tracer, tracing
that changes no output, and a smoke run of every workload."""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import growformer as gf
from growformer.corpus import gen_corpus
from growformer.flops import model_flops

from perfbench import workloads
from perfbench.hostspeed import INTERVAL_S, REFERENCE_S, HostClock
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", [2, 37, 128])
def test_blas_matmul_flops_match_analytic_model(n):
    params = gf.init_params(gf.TOY_CONFIG, seed=0)
    ids = gen_corpus("mixed", 1, n)
    tracer = Tracer()
    with tracer:
        gf.model_forward(gf.TOY_CONFIG, params, ids)
    expected = n * model_flops(gf.TOY_CONFIG, seq_len=n).total
    assert tracer.flops == {"blas": expected, "exact": 0}
    assert tracer.metrics()["linalg.matmul.blas.gflop"] == expected / 1e9


def test_matmul_inside_preservation_check_counts_as_exact():
    base = gf.init_params(gf.TOY_CONFIG, seed=0)
    plan = gf.GrowthPlan(8, 8, "guarded-zero", seed=1)
    grown, grown_config, _ = gf.grow_model(base, gf.TOY_CONFIG, plan)
    probe = [gen_corpus("mixed", 1, 16)]
    tracer = Tracer()
    with tracer:
        deviation = gf.verify_function_preservation(base, gf.TOY_CONFIG, grown, grown_config, probe)
    assert deviation == 0.0
    both = model_flops(gf.TOY_CONFIG, seq_len=16).total + model_flops(grown_config, seq_len=16).total
    assert tracer.flops == {"blas": 0, "exact": 16 * both}


def test_tracer_restores_every_patched_name():
    originals = (gf.model_forward, gf.linalg.matmul, gf.model.matmul, gf.ladder.matmul)
    with Tracer():
        assert gf.model.matmul is not originals[2]
        assert gf.ladder.matmul is gf.model.matmul
    assert (gf.model_forward, gf.linalg.matmul, gf.model.matmul, gf.ladder.matmul) == originals


def test_host_clock_leaves_out_its_own_samples():
    clock = HostClock()
    handler = signal.getsignal(signal.SIGALRM)
    with clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * INTERVAL_S:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(clock.took) >= 3
    assert clock.kernel_s(start, end) == sum(clock.took)
    speed = REFERENCE_S / statistics.median(clock.took)
    assert clock.scaled(start, end) == (end - start - sum(clock.took)) * speed
    # An interval far from every sample gets a sample of its own.
    later = time.perf_counter() + 1.0
    assert clock.factor(later, later) == REFERENCE_S / clock.took[-1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_output_digests_unchanged(name, tmp_path):
    # A fresh workload for each side, so both start from the same inputs.
    plain_run, traced_run = (workloads.WORKLOADS[name](workloads.TINY, 7, tmp_path) for _ in "ab")
    plain_run.setup()
    plain = plain_run.finish(plain_run.op())
    traced_run.setup()
    with Tracer():
        raw = traced_run.op()
    traced = traced_run.finish(raw)
    assert plain.problems == traced.problems == []
    assert plain.digests == traced.digests


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_smoke_run_reports_every_metric(name, trace):
    proc = _run(["--workload", name, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--tiny"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert "digest" in proc.stdout


def test_refuses_a_checkout_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
