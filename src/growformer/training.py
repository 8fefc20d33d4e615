"""Training loop: AdamW with linear warmup, deterministic data order,
checkpoint snapshots at a fixed cadence, optional in-run growth. Each
snapshot's held-out windows are scored on a pool of background threads
while the loop trains on.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .checkpoint import Checkpoint
from .corpus import gen_corpus
from .errors import NumericError, ValidationError, check_int, check_keys, check_real, check_seed
from .growth import GrowthPlan, embed, grow_model
from .model import ModelConfig, heldout_loss, init_params, model_loss_and_grads
from .rng import HELDOUT_STREAM, RngState, StreamTag, derive_seed, seeded_ints

_ADAM_EPS = 1e-8


@dataclass
class OptimizerConfig:
    kind: str = "adamw"
    lr: float = 3e-3
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.kind != "adamw":
            raise ValidationError(
                f"optimizer kind {self.kind!r} is not implemented; the only kind is 'adamw'"
            )
        check_real("optimizer", "lr", self.lr)
        check_real("optimizer", "weight_decay", self.weight_decay)
        if not isinstance(self.betas, (list, tuple)) or len(self.betas) != 2:
            raise ValidationError(
                f"optimizer config: betas must be a pair of real numbers, got {self.betas!r}"
            )
        for beta in self.betas:
            check_real("optimizer", "betas", beta)
            if not 0.0 <= beta < 1.0:
                raise ValidationError(f"optimizer config: betas must lie in [0, 1), got {beta!r}")
        self.betas = tuple(self.betas)

    def to_dict(self):
        return {**asdict(self), "betas": list(self.betas)}

    @classmethod
    def from_dict(cls, d):
        # a config file must set lr; the default serves callers in code
        return cls(**check_keys("optimizer", d, fields(cls), required=("lr",)))


@dataclass
class ScheduleConfig:
    steps: int
    warmup: int = 50
    snapshot_every: int = field(kw_only=True)

    def __post_init__(self):
        check_int("schedule", "steps", self.steps, minimum=0)
        check_int("schedule", "warmup", self.warmup, minimum=0)
        check_int("schedule", "snapshot_every", self.snapshot_every, minimum=1)

    @classmethod
    def from_dict(cls, d):
        return cls(**check_keys("schedule", d, fields(cls)))


@dataclass
class CorpusConfig:
    generator: str
    seed: int
    length: int
    stream: int = 0  # disjoint sample stream within the same language

    def __post_init__(self):
        if not isinstance(self.generator, str):
            raise ValidationError(
                f"corpus config: generator must be a string, got {self.generator!r}"
            )
        check_int("corpus", "length", self.length)
        for name in ("seed", "stream"):
            check_seed("corpus", name, getattr(self, name))
        if self.stream == HELDOUT_STREAM:
            raise ValidationError(f"corpus config: stream {self.stream} is the held-out stream")

    @classmethod
    def from_dict(cls, d):
        return cls(**check_keys("corpus", d, fields(cls)))


@dataclass(frozen=True)
class GrowthConfig(GrowthPlan):
    """An in-run growth: the plan, applied before step ``trigger_step``."""

    trigger_step: int = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        check_int("growth", "trigger_step", self.trigger_step)


@dataclass
class ExperimentConfig:
    model: ModelConfig
    optimizer: OptimizerConfig
    schedule: ScheduleConfig
    corpus: CorpusConfig
    seed: int = 0
    growth: GrowthConfig | None = None
    rewarm_steps: int = 50

    def __post_init__(self):
        check_seed("experiment", "seed", self.seed)
        check_int("experiment", "rewarm_steps", self.rewarm_steps, minimum=0)
        if self.growth is not None and not isinstance(self.growth, GrowthConfig):
            raise ValidationError(f"growth must be a GrowthConfig, not {type(self.growth).__name__}")
        if self.growth is not None and not 0 <= self.growth.trigger_step < self.schedule.steps:
            raise ValidationError(
                f"growth config: trigger_step must lie in [0, {self.schedule.steps}), "
                f"the steps of the schedule, got {self.growth.trigger_step}"
            )
        if self.optimizer.lr <= 0:
            raise ValidationError(f"lr must be positive, got {self.optimizer.lr}")
        if self.schedule.steps % self.schedule.snapshot_every != 0:
            raise ValidationError(
                f"snapshot_every {self.schedule.snapshot_every} must divide "
                f"steps {self.schedule.steps}"
            )
        if self.corpus.length < self.model.context_len + 1:
            raise ValidationError("corpus shorter than one context window")

    def to_dict(self) -> dict:
        """The config as a JSON object: one key per field and block."""
        return {**asdict(self), "optimizer": self.optimizer.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build from ``to_dict`` output. Each block, the top level included,
        is held to the key rule of ``errors.check_keys``: a key that is not a
        field of the block's dataclass is a ValidationError naming it, and
        so is a missing key whose field has no default. The optimizer's
        ``lr`` is required too, and a value of the wrong type is a
        ValidationError naming its key."""
        d = check_keys("experiment", d, fields(cls))
        if d.get("growth") is not None:
            d["growth"] = GrowthConfig(**check_keys("growth", d["growth"], fields(GrowthConfig)))
        return cls(
            model=ModelConfig.from_dict(d.pop("model")),
            optimizer=OptimizerConfig.from_dict(d.pop("optimizer")),
            schedule=ScheduleConfig.from_dict(d.pop("schedule")),
            corpus=CorpusConfig.from_dict(d.pop("corpus")),
            **d,
        )


def checkpoint_experiment(ck: Checkpoint) -> ExperimentConfig:
    """The experiment config a base checkpoint carries."""
    return ExperimentConfig.from_dict(ck.experiment)


@dataclass
class LogRow:
    step: int
    tokens: int
    train_loss: float
    heldout_loss: float | None = None


@dataclass
class TrainResult:
    """``checkpoints`` holds every snapshot in step order when ``train`` has
    no ``on_snapshot``. With one it is empty, so ``final`` must not be
    read; ``log`` has a row per snapshot either way."""

    checkpoints: list[Checkpoint]
    log: list[LogRow] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)

    @property
    def final(self) -> Checkpoint:
        return self.checkpoints[-1]


def heldout_sequences(config: ExperimentConfig, count: int = 8) -> list[np.ndarray]:
    """Evaluation windows from a sample stream disjoint from training."""
    ctx = config.model.context_len
    stream = gen_corpus(
        config.corpus.generator,
        config.corpus.seed,
        count * ctx,
        stream=HELDOUT_STREAM,
    )
    return [stream[i * ctx : (i + 1) * ctx] for i in range(count)]


def _no_decay(name: str) -> bool:
    return ".ln" in name or name.startswith("ln_")


def adamw_step(params, grads, m, v, t, lr, betas, weight_decay):
    """One decoupled-weight-decay Adam update.

    The arrays ``params[key]``, ``m[key]`` and ``v[key]`` are overwritten
    in place, so the caller must own them: nothing else (a checkpoint, a
    snapshot, a loaded file's buffer) may hold the same arrays. Each
    elementwise operation runs in the order of the out-of-place formula

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        update = (m/c1) / (sqrt(v/c2) + eps) [+ wd*p];  p = p - lr*update

    so the result is bit-identical to it.
    """
    b1, b2 = betas
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for key, g in grads.items():
        mk, vk, p = m[key], v[key], params[key]
        tmp = np.empty_like(g)
        update = np.empty_like(g)
        np.multiply(mk, b1, out=mk)
        np.multiply(g, 1.0 - b1, out=tmp)
        np.add(mk, tmp, out=mk)
        np.multiply(vk, b2, out=vk)
        np.multiply(g, 1.0 - b2, out=tmp)
        np.multiply(tmp, g, out=tmp)
        np.add(vk, tmp, out=vk)
        np.divide(vk, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        np.add(tmp, _ADAM_EPS, out=tmp)
        np.divide(mk, c1, out=update)
        np.divide(update, tmp, out=update)
        if weight_decay and not _no_decay(key):
            np.multiply(p, weight_decay, out=tmp)
            np.add(update, tmp, out=update)
        np.multiply(update, lr, out=update)
        np.subtract(p, update, out=p)


def _lr_at(config: ExperimentConfig, step: int, growth_step: int | None) -> float:
    lr = config.optimizer.lr
    factor = min(1.0, (step + 1) / max(config.schedule.warmup, 1))
    if growth_step is not None and step >= growth_step and config.rewarm_steps > 0:
        factor = min(factor, (step - growth_step + 1) / config.rewarm_steps)
    return lr * factor


def _snapshot(config, model_config, params, m, v, order_rng, step, tokens) -> Checkpoint:
    return Checkpoint(
        model_config=model_config,
        params={k: p.copy() for k, p in params.items()},
        adam_m={k: p.copy() for k, p in m.items()},
        adam_v={k: p.copy() for k, p in v.items()},
        rng=RngState(order_rng.seed, order_rng.position),
        step=step,
        tokens=tokens,
        experiment=config.to_dict(),
    )


def start_checkpoint(config: ExperimentConfig, params: dict) -> Checkpoint:
    """Step 0 of a run that starts from ``params``: zero Adam moments and
    the data-order stream of ``config.seed``, so ``train(config,
    resume=start_checkpoint(config, params))`` is a fresh run from them."""
    return Checkpoint(
        model_config=config.model,
        params=params,
        adam_m={k: np.zeros_like(p) for k, p in params.items()},
        adam_v={k: np.zeros_like(p) for k, p in params.items()},
        rng=RngState(derive_seed(config.seed, StreamTag.ORDER)),
        step=0,
        tokens=0,
        experiment=config.to_dict(),
    )


def train(
    config: ExperimentConfig,
    resume: Checkpoint | None = None,
    on_snapshot: Callable[[Checkpoint], None] | None = None,
) -> TrainResult:
    """Run the configured schedule, taking a snapshot at every cadence
    boundary (including the starting state); returns them and the loss log.

    A snapshot is a ``Checkpoint`` with its own copy of the parameters and
    both Adam moments. Without ``on_snapshot`` the result keeps them all.
    With it, each is passed to ``on_snapshot`` as soon as it is made, in
    the calling thread, and the result keeps none: the caller keeps what
    it reads or writes the snapshot out. The scorer below reads the
    snapshot's parameters, so the hand-off must not write them; an error
    it raises ends the run as a failed step does.

    Without ``resume`` the run starts from ``start_checkpoint`` over the
    seeded initial parameters. ``schedule.steps`` is the absolute step
    target: resuming a checkpoint with the config that produced it
    continues to the same endpoint and reproduces the remaining snapshots
    byte-for-byte. The checkpoint must hold ``config.model``, or under a
    growth block the model grown by it once its step is past the trigger;
    snapshots record the config's widths, so any other model is refused
    before any data is generated.

    Each snapshot's held-out loss is scored while training continues, on
    the call's one thread pool, a worker per CPU the process may use, as
    one ``heldout_loss`` task per held-out window. A task reads only the
    snapshot's own copy of the parameters, never the live ones that
    ``adamw_step`` overwrites, in the worker's own context, not the
    caller's. The window losses are averaged in window order, so every
    logged loss is bit-identical to ``heldout_loss`` on the snapshot in
    place. The starting snapshot's windows go to the pool before the
    training stream is generated, so the two overlap. The pool ends with
    the call. A failed window stops training at the next snapshot, and
    its error wins over a later step's: the first failure in step order.
    """
    if resume is None:
        resume = start_checkpoint(
            config, init_params(config.model, derive_seed(config.seed, StreamTag.INIT))
        )
    model_config = resume.model_config
    step0, tokens = resume.step, resume.tokens
    if step0 > config.schedule.steps:
        raise ValidationError(
            f"checkpoint is already at step {step0}, past the target "
            f"{config.schedule.steps}"
        )
    # a mismatch would skip or repeat the growth, or label every snapshot
    # with widths it does not hold
    growth_step = None if config.growth is None else config.growth.trigger_step
    want = config.model
    if config.growth is not None and step0 > growth_step:
        want = want.grown(config.growth.delta_m, config.growth.delta_a)
    if model_config != want:
        source = "config" if config.growth is None else f"growth block at step {growth_step}"
        raise ValidationError(
            f"checkpoint at step {step0} holds {model_config}, but the {source} implies {want}"
        )

    heldout = heldout_sequences(config)
    ctx = config.model.context_len
    params = {k: p.copy() for k, p in resume.params.items()}
    m = {k: p.copy() for k, p in resume.adam_m.items()}
    v = {k: p.copy() for k, p in resume.adam_v.items()}
    order_rng = RngState(resume.rng.seed, resume.rng.position)
    del resume  # a fresh start checkpoint must not live beside the copies for the whole run

    checkpoints: list[Checkpoint] = []
    hand_off = checkpoints.append if on_snapshot is None else on_snapshot
    log: list[LogRow] = []
    scores: list[list[Future]] = []  # each log row's window losses, in window order
    step_losses: list[float] = []

    def record(step):
        # stop at a failed window; tasks start in submission order, so only later ones are cancelled
        failed = [w for row in scores for w in row if w.done() and w.exception()]
        if failed:
            scorer.shutdown(wait=False, cancel_futures=True)
            raise failed[0].exception()
        ck = _snapshot(config, model_config, params, m, v, order_rng, step, tokens)
        # ck.params is the snapshot's own copy, which no later step writes
        windows = [scorer.submit(heldout_loss, ck.model_config, ck.params, [w]) for w in heldout]
        log.append(LogRow(step, tokens, last_loss if step > step0 else float("nan")))
        scores.append(windows)
        hand_off(ck)

    last_loss = float("nan")
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as scorer:
        try:
            record(step0)
            # generated while the pool scores the first snapshot
            stream = gen_corpus(
                config.corpus.generator, config.corpus.seed, config.corpus.length,
                stream=config.corpus.stream,
            )
            for local in range(config.schedule.steps - step0):
                step = step0 + local
                if step == growth_step:
                    params, model_config, _ = grow_model(
                        params, model_config, config.growth, probe=heldout
                    )
                    m, v = embed(m, model_config), embed(v, model_config)
                start = int(seeded_ints(order_rng, 1, stream.size - ctx)[0])
                window = stream[start : start + ctx]
                loss, grads = model_loss_and_grads(model_config, params, window)
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite training loss at step {step}")
                last_loss = loss
                step_losses.append(loss)
                adamw_step(
                    params, grads, m, v, step + 1,
                    _lr_at(config, step, growth_step),
                    config.optimizer.betas, config.optimizer.weight_decay,
                )
                tokens += ctx
                if (step + 1) % config.schedule.snapshot_every == 0:
                    record(step + 1)
        finally:
            # Every submitted window precedes any step that raised here, and
            # every cancelled one follows a failed one, so the first error in
            # step and window order, if any, replaces the step's.
            for row, windows in zip(log, scores, strict=True):
                row.heldout_loss = float(np.mean([w.result() for w in windows]))
    return TrainResult(checkpoints=checkpoints, log=log, step_losses=step_losses)
