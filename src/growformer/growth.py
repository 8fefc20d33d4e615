"""Dual-axis width expansion of staged projections.

A growth step widens the intermediate width by delta_m and the
over-capacity width by delta_a in every Q/K/V projection of every layer.
The pre-growth weights always survive bit-identically in the leading
index ranges; what happens to the five freshly created blocks is the
initialisation policy:

* ``strict-zero``  - every new block is zero. Output is preserved
  exactly, but every new block also receives an exactly-zero gradient,
  so plain first-order training cannot move them (a saddle).
* ``guarded-zero`` - ``up_new``, ``mid_right`` and ``mid_corner`` are
  random; ``mid_bottom`` and ``down_new`` stay zero. The two zero blocks
  are the minimal cut that keeps the output exactly preserved (new
  intermediate channels cannot reach the old over-capacity columns, and
  new over-capacity channels cannot reach the output), while the zero
  blocks themselves receive nonzero gradient, so training escapes the
  saddle in one step. Default for training experiments.
* ``noise:<f>``    - all five blocks random with std equal to f times
  the std of the pretrained projection entries. Output is perturbed.

``new_block_slices`` alone states where the five blocks lie. ``embed``
zero-pads every tensor to the grown shapes (this alone grows the Adam
moments); ``grow_model`` then fills each block the policy makes random,
in ``param_shapes`` order whatever the input dict's key order, with std
1/sqrt(rows of the grown matrix) under guarded-zero.

Growth takes any widths; only a fresh ladder must keep d < m < a
(``ladder.validate_hierarchy``). The paper's own axis ablation grows m
past a, and nothing above depends on the order of the grown widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError, check_int, check_seed
from .ladder import block_form
from .model import PROJ_NAMES, ModelConfig, model_forward, model_loss_and_grads
from .model import check_fits_memory, param_shapes, projection_keys
from .rng import RngState, StreamTag, derive_seed, seeded_gaussian

# the minimal cut that guarded-zero keeps zero (see the module docstring)
GUARDED_BLOCKS = frozenset({"mid_bottom", "down_new"})


@dataclass(frozen=True)
class GrowthPlan:
    delta_m: int
    delta_a: int
    init_policy: str  # "strict-zero" | "guarded-zero" | "noise:<fraction>"
    seed: int

    def __post_init__(self):
        for name in ("delta_m", "delta_a"):
            check_int("growth", name, getattr(self, name), minimum=0)
        check_seed("growth", "seed", self.seed)
        if not isinstance(self.init_policy, str):
            raise ValidationError(
                f"growth config: init_policy must be a string, got {self.init_policy!r}"
            )
        if self.delta_m + self.delta_a == 0:
            raise ValidationError("growth plan must add at least one unit of width")
        kind = self.policy_kind  # validates the string
        if kind == "noise" and not (0.0 < self.noise_fraction <= 1.0):
            raise ValidationError(
                f"noise fraction must be in (0, 1], got {self.noise_fraction}"
            )

    @property
    def policy_kind(self) -> str:
        if self.init_policy in ("strict-zero", "guarded-zero"):
            return self.init_policy
        if self.init_policy.startswith("noise:"):
            try:
                float(self.init_policy.split(":", 1)[1])
            except ValueError:
                raise ValidationError(f"bad noise policy {self.init_policy!r}") from None
            return "noise"
        raise ValidationError(f"unknown init policy {self.init_policy!r}")

    @property
    def noise_fraction(self) -> float:
        if self.policy_kind != "noise":
            raise ValidationError(f"{self.init_policy!r} has no noise fraction")
        return float(self.init_policy.split(":", 1)[1])

    @property
    def preserves_function(self) -> bool:
        return self.policy_kind in ("strict-zero", "guarded-zero")


@dataclass
class GrowthReport:
    old_m: int
    old_a: int
    new_m: int
    new_a: int
    init_policy: str
    block_init: dict[str, str]
    max_output_deviation: float | None = None
    new_block_grad_norms: dict[str, float] | None = None


def _describe(block: np.ndarray) -> str:
    if block.size == 0:
        return "empty"
    return "zero" if not block.any() else "random"


def pretrained_projection_std(params: dict, config: ModelConfig) -> float:
    vals = np.concatenate([params[k].ravel() for k in projection_keys(config)])
    return float(np.std(vals))


def embed(tensors: dict, config: ModelConfig) -> dict:
    """A zero-padded copy of every tensor at its ``param_shapes(config)``
    shape, in that order, the old values in the leading index ranges.

    ``config`` is the post-growth configuration. This is the whole growth
    of the Adam moments, and the first step of ``grow_model``.
    """
    check_fits_memory(config)
    out: dict[str, np.ndarray] = {}
    for key, shape in param_shapes(config).items():
        old = tensors[key]
        out[key] = np.zeros(shape)
        out[key][: old.shape[0], : old.shape[1]] = old
    return out


def grow_model(
    params: dict,
    config: ModelConfig,
    plan: GrowthPlan,
    probe=None,
):
    """Grow every Q/K/V projection with the same plan.

    Non-projection parameters are copied untouched. When ``probe`` (a
    non-empty list of token sequences) is given the report also carries
    the max output deviation on the probe and the new-block gradient
    norms at step 0, and a zero policy whose deviation is not exactly 0.0
    raises NumericError (``require_exact_preservation``).
    """
    new_config = config.grown(plan.delta_m, plan.delta_a)
    new_params = embed(params, new_config)
    # fill: draw every block the policy makes random, in new_block_slices order
    rng = RngState(derive_seed(plan.seed, StreamTag.GROWTH_FILL))
    kind = plan.policy_kind
    ref_std = pretrained_projection_std(params, config)
    block_init = {}
    for name, key, block in new_block_slices(new_params, new_config, plan.delta_m, plan.delta_a):
        if kind == "noise" or (kind == "guarded-zero" and name not in GUARDED_BLOCKS):
            rows = new_params[key].shape[0]
            std = plan.noise_fraction * ref_std if kind == "noise" else 1.0 / np.sqrt(rows)
            block[...] = seeded_gaussian(rng, *block.shape, 0.0, std)
        block_init[name] = _describe(block)

    report = GrowthReport(
        old_m=config.ladder_m,
        old_a=config.ladder_a,
        new_m=new_config.ladder_m,
        new_a=new_config.ladder_a,
        init_policy=plan.init_policy,
        block_init=block_init,
    )
    if probe is not None:
        report.max_output_deviation = verify_function_preservation(
            params, config, new_params, new_config, probe
        )
        require_exact_preservation(report.max_output_deviation, plan)
        report.new_block_grad_norms = new_block_gradient_report(
            new_params, new_config, plan, probe[0]
        )
    return new_params, new_config, report


def verify_function_preservation(
    old_params, old_config: ModelConfig, new_params, new_config: ModelConfig, probe
) -> float:
    """Max absolute logit deviation between the two models on the probe.

    Both models run on BLAS, the grown one inside ``ladder.block_form``
    at the base's widths, so each grown ladder product is the base's own
    product plus the products through the new blocks. The zero blocks of
    the two zero policies then provably contribute nothing: the result
    is exactly 0.0 for them, and strictly positive for noise inits on
    generic probes. That holds only for a model and its growth, so any
    other pair is refused by ``ModelConfig.growth_from``.
    """
    if len(probe) == 0:
        raise ValidationError("probe must be non-empty")
    new_config.growth_from(old_config)
    worst = 0.0
    for seq in probe:
        old_logits, _ = model_forward(old_config, old_params, seq)
        with block_form(old_config.ladder_m, old_config.ladder_a):
            new_logits, _ = model_forward(new_config, new_params, seq)
        worst = max(worst, float(np.abs(old_logits - new_logits).max()))
    return worst


def new_block_slices(tensors: dict, config: ModelConfig, delta_m: int, delta_a: int):
    """Yield (block_name, matrix_name, array_view) for every block of every
    projection that a growth by (delta_m, delta_a) created, in
    ``param_shapes`` order: the one statement of where the new blocks lie.

    ``config`` is the post-growth configuration.
    """
    m_old = config.ladder_m - delta_m
    a_old = config.ladder_a - delta_a
    layout = (
        ("up_new", "w_up", np.s_[:, m_old:]),
        ("mid_right", "w_mid", np.s_[:m_old, a_old:]),
        ("mid_bottom", "w_mid", np.s_[m_old:, :a_old]),
        ("mid_corner", "w_mid", np.s_[m_old:, a_old:]),
        ("down_new", "w_down", np.s_[a_old:, :]),
    )
    for i in range(config.n_layers):
        for proj in PROJ_NAMES:
            for name, stage, where in layout:
                key = f"blocks.{i}.attn.{proj}.{stage}"
                yield name, key, tensors[key][where]


def new_block_gradient_report(
    new_params: dict, new_config: ModelConfig, plan: GrowthPlan, batch
) -> dict[str, float]:
    """Frobenius norm of the loss gradient over each new block type."""
    _, grads = model_loss_and_grads(new_config, new_params, batch)
    sums: dict[str, float] = {}
    for name, _, block in new_block_slices(grads, new_config, plan.delta_m, plan.delta_a):
        sums[name] = sums.get(name, 0.0) + float((block**2).sum())
    return {name: float(np.sqrt(s)) for name, s in sums.items()}


def require_exact_preservation(deviation: float, plan: GrowthPlan) -> None:
    """Hard gate for the zero policies before continued training."""
    if plan.preserves_function and deviation != 0.0:
        raise NumericError(
            f"{plan.init_policy} growth must preserve the output exactly, "
            f"got max logit deviation {deviation!r}"
        )
