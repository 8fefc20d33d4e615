"""The benchmark's workloads and the timed loop that runs them.

All three run at ``TOY_CONFIG`` through the public growformer API, in one
process, with inputs made from the workload seed:

* ``train``: what ``growformer train`` does. One ``train()`` call on the
  ``mixed`` corpus with snapshots at the start and the end, each written
  with ``save_checkpoint``. Forward+backward and AdamW do most of the work;
  nothing here calls alignment or exact-mode matmul.
* ``eval``: forward-only scoring of a grown model (``TOY_CONFIG.grown(32,
  32)``), one ``model_forward`` call per held-out 128-token window. Same
  model, ladder and linalg code as ``train``, but no backward pass and no
  optimizer.
* ``grow_analyze``: the paper's protocol. ``load_checkpoint`` a base
  trained during set-up, ``run_growth_experiment`` with one guarded-zero
  plan and a dense snapshot cadence, then ``emit_reports``. Alignment
  statistics and exact-mode preservation checking dominate.

An operation is one timed pass of a workload. It fails when it raises,
when a loss is non-finite, when the guarded-zero preservation deviation
is not exactly 0.0, when another output check below fails, or when the
digest of its outputs (loss trajectory, eval losses, bytes of written
files) differs from that of the run's first operation on the same inputs.
Digests are printed, one line per operation, so that a numeric change is
visible.

Every reported time is scaled to the reference host speed of
``hostspeed.py``, which samples the host while untraced operations and
set-up run. Traced operations take no samples and report unscaled times.

After each ``train`` and ``grow_analyze`` operation the benchmark scores
held-out windows with ``model_forward`` outside the timed part: the final
trained model for ``train`` and the reloaded base for ``grow_analyze``.
Those calls give the ``eval_seq_ms`` latencies of those workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import growformer as gf
from growformer import experiment, linalg, training

from perfbench.hostspeed import HostClock
from perfbench.tracer import OVERHEAD, Tracer, per_layer_spec

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# Each bound is about three times the largest spread (IQR over median)
# measured over five to ten seeds on a shared 2-vCPU VM, with times scaled
# by hostspeed.py: 0.03-0.07 for the times, up to 0.03 for the held-out
# loss, which repeats exactly for a seed, and up to 0.02 for peak RSS.
# Set-up time gets the widest bound allowed. The p90 forward latency is not
# reported: even scaled it spread by 0.09-0.15, since the host's slow spells
# are shorter than the sampling that corrects for them.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("tokens_per_s", "tok/s", "higher", 0.2),
    ("eval_seq_ms.p50", "ms", "lower", 0.2),
    ("heldout_loss", "nats", "lower", 0.08),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
CLOCK = HostClock()
LANGUAGE_SEED = 0  # structure of the "mixed" corpus shared by every workload seed


@dataclass(frozen=True)
class Size:
    model: gf.ModelConfig
    growth: tuple[int, int]  # (delta_m, delta_a) of the guarded-zero plan
    corpus_length: int
    train_steps: int
    base_steps: int  # training of the base model in set-up
    budget: int  # continued-training steps after growth
    cadence: int  # snapshot every this many continued steps
    eval_windows: int
    score_windows: int
    setup_repeats: int


FULL = Size(
    model=gf.TOY_CONFIG, growth=(32, 32), corpus_length=100_000, train_steps=100,
    base_steps=40, budget=16, cadence=2, eval_windows=256, score_windows=64,
    setup_repeats=3,
)
# Smallest size on which every workload still runs every code path; for
# the benchmark's own tests.
TINY = Size(
    model=gf.ModelConfig(
        vocab_size=64, context_len=32, hidden_size=16, n_heads=2, n_layers=1,
        ladder_m=20, ladder_a=24, ffn_size=16,
    ),
    growth=(4, 4), corpus_length=4000, train_steps=20, base_steps=4, budget=4,
    cadence=2, eval_windows=4, score_windows=4, setup_repeats=2,
)


@dataclass
class OpResult:
    tokens: int
    losses: list[float]
    files: dict[str, bytes]
    heldout_loss: float
    calls: list[tuple[float, float]]  # perf_counter() at start and end of each scoring call
    variant: int = 0  # which of the workload's VARIANTS of the seed's inputs
    problems: list[str] = field(default_factory=list)

    @property
    def digests(self) -> tuple[str, str]:
        loss_hash = hashlib.sha256(np.asarray(self.losses, dtype="<f8").tobytes())
        file_hash = hashlib.sha256()
        for name in sorted(self.files):
            file_hash.update(name.encode("utf-8") + b"\0" + self.files[name])
        return loss_hash.hexdigest()[:16], file_hash.hexdigest()[:16]


def experiment_config(size: Size, seed: int, steps: int) -> gf.ExperimentConfig:
    """The workload seed picks the initialisation and the training sample
    stream of one fixed language, so every seed poses an equally hard task
    and ``heldout_loss`` varies little between seeds. Streams are even, so
    no seed's continued-training stream (stream + 2) is the held-out one."""
    return gf.ExperimentConfig(
        model=size.model,
        optimizer=training.OptimizerConfig(),
        schedule=training.ScheduleConfig(steps=steps, warmup=10, snapshot_every=steps),
        corpus=training.CorpusConfig(
            generator="mixed", seed=LANGUAGE_SEED, length=size.corpus_length, stream=2 * seed
        ),
        seed=seed,
    )


def score(config, params, windows) -> tuple[list[float], list[tuple[float, float]]]:
    """Loss, and start and end time, of one ``model_forward`` call per window."""
    losses, calls = [], []
    for window in windows:
        start = time.perf_counter()
        _, loss = gf.model_forward(config, params, window)
        calls.append((start, time.perf_counter()))
        losses.append(loss)
    return losses, calls


def read_files(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _non_finite(values) -> list[str]:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{len(bad)} non-finite losses"] if bad else []


class TrainWorkload:
    """Operations cycle over ``VARIANTS`` runs of training, each with its
    own initialisation and sample stream made from the seed. The reported
    held-out loss is their mean: over ten seeds its spread (IQR over
    median) was 0.04-0.06 for a single training run and 0.01 for the mean."""

    VARIANTS = 4

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.seed, self.workdir = size, seed, workdir
        self.ops = 0

    def setup(self) -> None:
        self.configs = [
            experiment_config(self.size, self.seed * self.VARIANTS + v, self.size.train_steps)
            for v in range(self.VARIANTS)
        ]
        self.windows = training.heldout_sequences(self.configs[0], count=self.size.score_windows)
        # A two-step call loads every kernel and code path the timed call uses.
        warm = replace(self.configs[0], schedule=training.ScheduleConfig(2, warmup=1, snapshot_every=2))
        gf.train(warm)

    def op(self):
        variant = self.ops % self.VARIANTS
        self.ops += 1
        out = self.workdir / f"train-{self.ops}"
        out.mkdir()
        result = gf.train(self.configs[variant])
        for ck in result.checkpoints:
            gf.save_checkpoint(ck, out / f"step{ck.step:08d}.nxf")
        return result, out, variant

    def finish(self, raw) -> OpResult:
        result, out, variant = raw
        files = read_files(out)
        final = result.final
        reloaded = gf.load_checkpoint(out / f"step{final.step:08d}.nxf")
        shutil.rmtree(out)
        heldout = [row.heldout_loss for row in result.log]
        scored, calls = score(final.model_config, final.params, self.windows)
        problems = _non_finite(result.step_losses + heldout + scored)
        if len(result.checkpoints) != 2:
            problems.append(f"expected 2 snapshots, got {len(result.checkpoints)}")
        if not heldout[-1] < heldout[0]:
            problems.append(f"held-out loss did not fall: {heldout[0]!r} -> {heldout[-1]!r}")
        if any(not np.array_equal(reloaded.params[k], p) for k, p in final.params.items()):
            problems.append("saved final checkpoint does not load back bit-identically")
        return OpResult(
            tokens=self.size.train_steps * final.model_config.context_len,
            losses=result.step_losses + heldout + scored,
            files=files,
            heldout_loss=heldout[-1],
            calls=calls,
            variant=variant,
            problems=problems,
        )


def train_base(size: Size, seed: int) -> gf.Checkpoint:
    return gf.train(experiment_config(size, seed, size.base_steps)).final


def growth_plan(size: Size, seed: int) -> gf.GrowthPlan:
    return gf.GrowthPlan(*size.growth, "guarded-zero", seed=seed)


class EvalWorkload:
    VARIANTS = 1

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.seed = size, seed
        self.checked_reference = False

    def setup(self) -> None:
        base = train_base(self.size, self.seed)
        self.params, self.config, _ = gf.grow_model(
            base.params, base.model_config, growth_plan(self.size, self.seed)
        )
        base_exp = gf.ExperimentConfig.from_dict(base.experiment)
        self.windows = training.heldout_sequences(base_exp, count=self.size.eval_windows)

    def op(self):
        return score(self.config, self.params, self.windows)

    def finish(self, raw) -> OpResult:
        losses, calls = raw
        problems = _non_finite(losses)
        if not self.checked_reference:
            # The BLAS path must agree with the channel-ordered reference.
            with linalg.exact_arithmetic():
                _, exact = gf.model_forward(self.config, self.params, self.windows[0])
            if abs(exact - losses[0]) > 1e-9 * abs(exact):
                problems.append(f"loss {losses[0]!r} differs from exact-mode {exact!r}")
            self.checked_reference = True
        return OpResult(
            tokens=len(self.windows) * self.config.context_len,
            losses=losses,
            files={},
            heldout_loss=float(np.mean(losses)),
            calls=calls,
            problems=problems,
        )


class GrowAnalyzeWorkload:
    VARIANTS = 1

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.seed, self.workdir = size, seed, workdir
        self.ops = 0

    def setup(self) -> None:
        base = train_base(self.size, self.seed)
        self.base_path = self.workdir / "base.nxf"
        gf.save_checkpoint(base, self.base_path)
        self.windows = training.heldout_sequences(
            gf.ExperimentConfig.from_dict(base.experiment), count=self.size.score_windows
        )
        self.base_scores, _ = score(base.model_config, base.params, self.windows)

    def op(self):
        self.ops += 1
        out = self.workdir / f"reports-{self.ops}"
        base = gf.load_checkpoint(self.base_path)
        series = experiment.run_growth_experiment(
            base, [growth_plan(self.size, self.seed)], self.size.budget, self.size.cadence
        )
        experiment.emit_reports(series, out)
        return base, series, out

    def finish(self, raw) -> OpResult:
        base, series, out = raw
        files = read_files(out)
        shutil.rmtree(out)
        (s,) = series.values()
        losses = [snap.loss for snap in s.snapshots]
        scored, calls = score(base.model_config, base.params, self.windows)
        problems = _non_finite(losses + scored)
        expected = self.size.budget // self.size.cadence + 1
        if len(s.snapshots) != expected:
            problems.append(f"expected {expected} snapshots, got {len(s.snapshots)}")
        emitted = json.loads(files["growth_report.json"])[s.label]["max_output_deviation"]
        for where, dev in (("series", s.growth_report.max_output_deviation), ("report", emitted)):
            if dev != 0.0:
                problems.append(f"guarded-zero deviation in {where} is {dev!r}, not 0.0")
        if scored != self.base_scores:
            problems.append("reloaded base scores differ from the base trained in set-up")
        return OpResult(
            tokens=self.size.budget * base.model_config.context_len,
            losses=losses,
            files=files,
            heldout_loss=losses[-1],
            calls=calls,
            problems=problems,
        )


WORKLOADS = {"train": TrainWorkload, "eval": EvalWorkload, "grow_analyze": GrowAnalyzeWorkload}


def run(name: str, seed: int, seconds: float, trace: bool, size: Size, workroot: Path) -> dict:
    """Set up, then run operations for ``seconds``, starting none that
    would end past them by the time of the one before.

    Untraced, it reports the end-to-end metrics (all but ``peak_rss_mb``,
    which the launching process measures). Traced, it alternates untraced
    and traced operations and reports the per-layer metrics of the traced
    ones, plus the tracing overhead.
    """
    workroot.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workroot))
    try:
        setup_s = []
        for _ in range(1 if trace else size.setup_repeats):
            workload = WORKLOADS[name](size, seed, workdir)
            with CLOCK:
                start = time.perf_counter()
                workload.setup()
                end = time.perf_counter()
            setup_s.append(CLOCK.scaled(start, end))

        tracer = Tracer()
        walls: dict[bool, list[float]] = {False: [], True: []}  # unscaled, less kernel time
        scaled_walls: list[float] = []
        latencies: list[float] = []
        rates: list[float] = []  # tokens per second of each operation
        heldout: dict[int, float] = {}  # by variant
        references: dict[int, tuple[str, str]] = {}  # first digests of each variant
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        while True:
            raw = result = None  # free the last operation's outputs before the next
            traced = trace and attempted % 2 == 1
            attempted += 1
            began = time.perf_counter()
            try:
                # Traced operations run without host-speed samples, so
                # that spans hold no kernel time.
                with nullcontext() if traced else CLOCK:
                    with tracer if traced else nullcontext():
                        start = time.perf_counter()
                        raw = workload.op()
                        end = time.perf_counter()
                    result = workload.finish(raw)
            except Exception:  # an operation that raises is counted as failed
                traceback.print_exc()
                failed += 1
            else:
                wall = end - start - CLOCK.kernel_s(start, end)
                factor = 1.0 if traced else CLOCK.factor(start, end)
                digests = result.digests
                print(f"digest {name} seed={seed} op={attempted} variant={result.variant} "
                      f"traced={int(traced)} wall={wall:.4f} scale={factor:.4f} "
                      f"losses={digests[0]} files={digests[1]}")
                reference = references.setdefault(result.variant, digests)
                if digests != reference:
                    result.problems.append("output digest differs from the first operation "
                                           "with the same inputs")
                if result.problems:
                    failed += 1
                    print(f"operation {attempted} failed: {'; '.join(result.problems)}",
                          file=sys.stderr)
                else:
                    walls[traced].append(wall)
                    if not traced:
                        scaled_walls.append(wall * factor)
                        latencies += [CLOCK.scaled(*call) for call in result.calls]
                        rates.append(result.tokens / (wall * factor))
                        heldout[result.variant] = result.heldout_loss
            # Start no operation that would end past the deadline.
            now = time.perf_counter()
            if now + (now - began) > deadline and attempted >= (2 if trace else workload.VARIANTS):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:  # another run is still using it
            pass

    if not walls[False] or (trace and not walls[True]):
        raise SystemExit(f"{name}: no operation succeeded ({failed} of {attempted} failed)")
    if trace:
        values = tracer.metrics(len(walls[True]))
        values[OVERHEAD] = statistics.median(walls[True]) - statistics.median(walls[False])
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(scaled_walls),
            "tokens_per_s": statistics.median(rates),
            "eval_seq_ms.p50": statistics.median(latencies) * 1e3,
            "heldout_loss": statistics.fmean(heldout.values()),
        }
        units = {metric[0]: metric[1] for metric in END_TO_END}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    parser.add_argument("--workdir", required=True, type=Path)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              TINY if args.tiny else FULL, args.workdir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
