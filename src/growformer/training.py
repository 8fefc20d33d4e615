"""Training loop: AdamW with linear warmup, deterministic data order,
checkpoint snapshots at a fixed cadence, optional in-run growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import Checkpoint
from .corpus import gen_corpus
from .errors import NumericError, ValidationError
from .growth import GrowthPlan, grow_model, grow_projections
from .model import ModelConfig, heldout_loss, init_params, model_loss_and_grads, param_shapes
from .rng import RngState, derive_seed, seeded_ints

_ADAM_EPS = 1e-8
_ORDER_TAG = 0x0D0E
_INIT_TAG = 0x1217


def _required(d, key: str, block: str):
    if not isinstance(d, dict):
        raise ValidationError(f"{block} config must be an object, got {type(d).__name__}")
    if key not in d:
        raise ValidationError(f"{block} config: missing required key {key!r}")
    return d[key]


def _check_int(block: str, name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{block} config: {name} must be an integer, got {value!r}")


def _check_real(block: str, name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{block} config: {name} must be a real number, got {value!r}")


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
        _check_real("optimizer", "lr", self.lr)
        _check_real("optimizer", "weight_decay", self.weight_decay)
        if not isinstance(self.betas, (list, tuple)) or len(self.betas) != 2:
            raise ValidationError(
                f"optimizer config: betas must be a pair of real numbers, got {self.betas!r}"
            )
        for beta in self.betas:
            _check_real("optimizer", "betas", beta)
        self.betas = tuple(self.betas)

    def to_dict(self):
        return {
            "kind": self.kind,
            "lr": self.lr,
            "betas": list(self.betas),
            "weight_decay": self.weight_decay,
        }

    @classmethod
    def from_dict(cls, d):
        lr = _required(d, "lr", "optimizer")
        return cls(
            kind=d.get("kind", "adamw"),
            lr=lr,
            betas=d.get("betas", (0.9, 0.95)),
            weight_decay=d.get("weight_decay", 0.01),
        )


@dataclass
class ScheduleConfig:
    steps: int
    warmup: int = 50
    snapshot_every: int = 100

    def __post_init__(self):
        for name in ("steps", "warmup", "snapshot_every"):
            _check_int("schedule", name, getattr(self, name))
        if self.snapshot_every < 1:
            raise ValidationError(
                f"schedule config: snapshot_every must be >= 1, got {self.snapshot_every}"
            )

    def to_dict(self):
        return {"steps": self.steps, "warmup": self.warmup, "snapshot_every": self.snapshot_every}

    @classmethod
    def from_dict(cls, d):
        return cls(
            steps=_required(d, "steps", "schedule"),
            warmup=d.get("warmup", 50),
            snapshot_every=_required(d, "snapshot_every", "schedule"),
        )


@dataclass
class CorpusConfig:
    generator: str = "markov-k2"
    seed: int = 0
    length: int = 100_000
    stream: int = 0  # disjoint sample stream within the same language

    def __post_init__(self):
        if not isinstance(self.generator, str):
            raise ValidationError(
                f"corpus config: generator must be a string, got {self.generator!r}"
            )
        for name in ("seed", "length", "stream"):
            _check_int("corpus", name, getattr(self, name))

    def to_dict(self):
        return {
            "generator": self.generator,
            "seed": self.seed,
            "length": self.length,
            "stream": self.stream,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            generator=_required(d, "generator", "corpus"),
            seed=_required(d, "seed", "corpus"),
            length=_required(d, "length", "corpus"),
            stream=d.get("stream", 0),
        )


@dataclass
class ExperimentConfig:
    model: ModelConfig
    optimizer: OptimizerConfig
    schedule: ScheduleConfig
    corpus: CorpusConfig
    seed: int = 0
    growth: GrowthPlan | None = None
    growth_trigger: int | None = None
    rewarm_steps: int = 50
    out_dir: str | None = None

    def __post_init__(self):
        _check_int("experiment", "seed", self.seed)
        _check_int("experiment", "rewarm_steps", self.rewarm_steps)
        if self.growth_trigger is not None:
            _check_int("growth", "trigger_step", self.growth_trigger)
        if self.optimizer.lr <= 0:
            raise ValidationError(f"lr must be positive, got {self.optimizer.lr}")
        if self.schedule.steps % self.schedule.snapshot_every != 0:
            raise ValidationError(
                f"snapshot_every {self.schedule.snapshot_every} must divide "
                f"steps {self.schedule.steps}"
            )
        if self.corpus.length < self.model.context_len + 1:
            raise ValidationError("corpus shorter than one context window")
        if (self.growth is None) != (self.growth_trigger is None):
            raise ValidationError("growth plan and trigger step must be given together")

    def to_dict(self) -> dict:
        growth = None
        if self.growth is not None:
            growth = {
                "delta_m": self.growth.delta_m,
                "delta_a": self.growth.delta_a,
                "init_policy": self.growth.init_policy,
                "seed": self.growth.seed,
                "trigger_step": self.growth_trigger,
            }
        return {
            "model": self.model.to_dict(),
            "optimizer": self.optimizer.to_dict(),
            "schedule": self.schedule.to_dict(),
            "corpus": self.corpus.to_dict(),
            "seed": self.seed,
            "growth": growth,
            "rewarm_steps": self.rewarm_steps,
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build from ``to_dict`` output. A missing required key or a value
        of the wrong type is a ValidationError naming it."""
        model = ModelConfig.from_dict(_required(d, "model", "experiment"))
        growth = d.get("growth")
        plan = None
        trigger = None
        if growth is not None:
            plan = GrowthPlan(
                delta_m=_required(growth, "delta_m", "growth"),
                delta_a=_required(growth, "delta_a", "growth"),
                init_policy=_required(growth, "init_policy", "growth"),
                seed=_required(growth, "seed", "growth"),
            )
            trigger = _required(growth, "trigger_step", "growth")
        return cls(
            model=model,
            optimizer=OptimizerConfig.from_dict(_required(d, "optimizer", "experiment")),
            schedule=ScheduleConfig.from_dict(_required(d, "schedule", "experiment")),
            corpus=CorpusConfig.from_dict(_required(d, "corpus", "experiment")),
            seed=d.get("seed", 0),
            growth=plan,
            growth_trigger=trigger,
            rewarm_steps=d.get("rewarm_steps", 50),
            out_dir=d.get("out_dir"),
        )


@dataclass
class LogRow:
    step: int
    tokens: int
    train_loss: float
    heldout_loss: float | None = None


@dataclass
class TrainResult:
    checkpoints: list[Checkpoint]
    log: list[LogRow] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)

    @property
    def final(self) -> Checkpoint:
        return self.checkpoints[-1]


_HELDOUT_STREAM = 7919


def heldout_sequences(config: ExperimentConfig, count: int = 8) -> list[np.ndarray]:
    """Evaluation windows from a sample stream disjoint from training."""
    ctx = config.model.context_len
    stream = gen_corpus(
        config.corpus.generator,
        config.corpus.seed,
        count * ctx,
        stream=_HELDOUT_STREAM,
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
    warm = min(1.0, (step + 1) / max(config.schedule.warmup, 1))
    factor = warm
    if growth_step is not None and step >= growth_step and config.rewarm_steps > 0:
        factor = min(warm, (step - growth_step + 1) / config.rewarm_steps)
        factor = min(factor, 1.0)
    return lr * factor


def _snapshot(config, model_config, params, m, v, order_rng, step, tokens) -> Checkpoint:
    return Checkpoint(
        model_config=model_config,
        params={k: p.copy() for k, p in params.items()},
        adam_m={k: p.copy() for k, p in m.items()},
        adam_v={k: p.copy() for k, p in v.items()},
        rng=RngState(order_rng.seed, order_rng.position, order_rng.algorithm),
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
        rng=RngState(derive_seed(config.seed, _ORDER_TAG)),
        step=0,
        tokens=0,
        experiment=config.to_dict(),
    )


def train(config: ExperimentConfig, resume: Checkpoint | None = None) -> TrainResult:
    """Run the configured schedule; returns snapshots at every cadence
    boundary (including the starting state) and the loss log.

    Without ``resume`` the run starts from ``start_checkpoint`` over the
    seeded initial parameters. ``schedule.steps`` is the absolute step
    target: resuming a checkpoint with the config that produced it
    continues to the same endpoint and reproduces the remaining snapshots
    byte-for-byte.
    """
    stream = gen_corpus(
        config.corpus.generator, config.corpus.seed, config.corpus.length,
        stream=config.corpus.stream,
    )
    heldout = heldout_sequences(config)
    ctx = config.model.context_len

    if resume is None:
        resume = start_checkpoint(
            config, init_params(config.model, derive_seed(config.seed, _INIT_TAG))
        )
    model_config = resume.model_config
    # ``param_shapes`` order whatever the source (a loaded checkpoint is in
    # sorted-name order): in-run growth draws its new blocks in key order,
    # so this keeps a resume across the growth trigger bit-exact
    order = param_shapes(model_config)
    params = {k: resume.params[k].copy() for k in order}
    m = {k: resume.adam_m[k].copy() for k in order}
    v = {k: resume.adam_v[k].copy() for k in order}
    order_rng = RngState(resume.rng.seed, resume.rng.position, resume.rng.algorithm)
    step0, tokens = resume.step, resume.tokens
    del resume  # a fresh start checkpoint must not live beside the copies for the whole run

    growth_step = config.growth_trigger
    checkpoints: list[Checkpoint] = []
    log: list[LogRow] = []
    step_losses: list[float] = []

    def record(step):
        ck = _snapshot(config, model_config, params, m, v, order_rng, step, tokens)
        checkpoints.append(ck)
        log.append(
            LogRow(step, tokens, last_loss if step > step0 else float("nan"),
                   heldout_loss(model_config, params, heldout))
        )

    if step0 > config.schedule.steps:
        raise ValidationError(
            f"checkpoint is already at step {step0}, past the target "
            f"{config.schedule.steps}"
        )
    last_loss = float("nan")
    record(step0)
    for local in range(config.schedule.steps - step0):
        step = step0 + local
        if growth_step is not None and config.growth is not None and step == growth_step:
            old_config = model_config
            params, model_config, _ = grow_model(
                params, old_config, config.growth, probe=heldout[:2]
            )
            zero = GrowthPlan(config.growth.delta_m, config.growth.delta_a, "strict-zero", seed=0)
            m = grow_projections(m, old_config, zero, RngState(0), ref_std=0.0)
            v = grow_projections(v, old_config, zero, RngState(0), ref_std=0.0)
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
    return TrainResult(checkpoints=checkpoints, log=log, step_losses=step_losses)
