"""Training loop: AdamW with linear warmup, deterministic data order,
checkpoint snapshots at a fixed cadence, optional in-run growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import Checkpoint
from .corpus import gen_corpus
from .errors import NumericError, ValidationError
from .growth import (
    GrowthPlan,
    grow_model,
    grow_projections,
    require_exact_preservation,
    verify_function_preservation,
)
from .model import ModelConfig, heldout_loss, init_params, model_loss_and_grads
from .rng import RngState, derive_seed, seeded_ints

_ADAM_EPS = 1e-8
_ORDER_TAG = 0x0D0E
_INIT_TAG = 0x1217


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

    def to_dict(self):
        return {
            "kind": self.kind,
            "lr": self.lr,
            "betas": list(self.betas),
            "weight_decay": self.weight_decay,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            kind=d.get("kind", "adamw"),
            lr=d["lr"],
            betas=tuple(d.get("betas", (0.9, 0.95))),
            weight_decay=d.get("weight_decay", 0.01),
        )


@dataclass
class ScheduleConfig:
    steps: int
    warmup: int = 50
    snapshot_every: int = 100

    def to_dict(self):
        return {"steps": self.steps, "warmup": self.warmup, "snapshot_every": self.snapshot_every}

    @classmethod
    def from_dict(cls, d):
        return cls(steps=d["steps"], warmup=d.get("warmup", 50), snapshot_every=d["snapshot_every"])


@dataclass
class CorpusConfig:
    generator: str = "markov-k2"
    seed: int = 0
    length: int = 100_000
    stream: int = 0  # disjoint sample stream within the same language

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
            generator=d["generator"],
            seed=d["seed"],
            length=d["length"],
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
        growth = d.get("growth")
        plan = None
        trigger = None
        if growth is not None:
            plan = GrowthPlan(
                delta_m=growth["delta_m"],
                delta_a=growth["delta_a"],
                init_policy=growth["init_policy"],
                seed=growth["seed"],
            )
            trigger = growth["trigger_step"]
        return cls(
            model=ModelConfig.from_dict(d["model"]),
            optimizer=OptimizerConfig.from_dict(d["optimizer"]),
            schedule=ScheduleConfig.from_dict(d["schedule"]),
            corpus=CorpusConfig.from_dict(d["corpus"]),
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
    """One decoupled-weight-decay Adam update (in place on the dicts)."""
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
    params = {k: p.copy() for k, p in resume.params.items()}
    m = {k: p.copy() for k, p in resume.adam_m.items()}
    v = {k: p.copy() for k, p in resume.adam_v.items()}
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
            old_params, old_config = params, model_config
            params, model_config, _ = grow_model(old_params, old_config, config.growth)
            deviation = verify_function_preservation(
                old_params, old_config, params, model_config, heldout[:2]
            )
            require_exact_preservation(deviation, config.growth)
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
