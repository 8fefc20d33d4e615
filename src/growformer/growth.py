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

One primitive, ``grow_projections``, grows any dict shaped like the
parameters: ``grow_model`` applies it to the parameters under the plan,
and in-run growth applies it with a strict-zero plan to the Adam moments.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericError, ValidationError, check_int
from .ladder import validate_hierarchy
from .linalg import exact_arithmetic
from .model import PROJ_NAMES, ModelConfig, model_forward, model_loss_and_grads, projection_keys
from .rng import RngState, derive_seed, seeded_gaussian

NEW_BLOCKS = ("up_new", "mid_right", "mid_bottom", "mid_corner", "down_new")


@dataclass(frozen=True)
class GrowthPlan:
    delta_m: int
    delta_a: int
    init_policy: str  # "strict-zero" | "guarded-zero" | "noise:<fraction>"
    seed: int

    def __post_init__(self):
        for name in ("delta_m", "delta_a", "seed"):
            check_int("growth", name, getattr(self, name))
        if not isinstance(self.init_policy, str):
            raise ValidationError(
                f"growth config: init_policy must be a string, got {self.init_policy!r}"
            )
        if self.delta_m < 0 or self.delta_a < 0:
            raise ValidationError("growth deltas must be non-negative")
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

    def to_dict(self) -> dict:
        return asdict(self)


def _new_block(rows, cols, plan, rng, ref_std, fan_in, zero_under_guard):
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols))
    kind = plan.policy_kind
    if kind == "strict-zero":
        return np.zeros((rows, cols))
    if kind == "guarded-zero":
        if zero_under_guard:
            return np.zeros((rows, cols))
        return seeded_gaussian(rng, rows, cols, 0.0, 1.0 / np.sqrt(fan_in))
    return seeded_gaussian(rng, rows, cols, 0.0, plan.noise_fraction * ref_std)


def _describe(block: np.ndarray) -> str:
    if block.size == 0:
        return "empty"
    return "zero" if not block.any() else "random"


def grow_w_up(w, delta_m: int, plan: GrowthPlan, rng: RngState, ref_std: float):
    """Append delta_m columns to the first-stage matrix."""
    if delta_m == 0:
        return w.copy()
    new = _new_block(
        w.shape[0], delta_m, plan, rng, ref_std, fan_in=w.shape[0], zero_under_guard=False
    )
    return np.hstack([w, new])


def grow_w_mid(w, delta_m: int, delta_a: int, plan: GrowthPlan, rng: RngState, ref_std: float):
    """Grow the middle matrix along both axes, creating up to four blocks."""
    if delta_m == 0 and delta_a == 0:
        return w.copy()
    m_old, a_old = w.shape
    fan_in = m_old + delta_m
    right = _new_block(m_old, delta_a, plan, rng, ref_std, fan_in, zero_under_guard=False)
    bottom = _new_block(delta_m, a_old, plan, rng, ref_std, fan_in, zero_under_guard=True)
    corner = _new_block(delta_m, delta_a, plan, rng, ref_std, fan_in, zero_under_guard=False)
    return np.block([[w, right], [bottom, corner]])


def grow_w_down(w, delta_a: int, plan: GrowthPlan, rng: RngState, ref_std: float):
    """Append delta_a rows to the final-stage matrix."""
    if delta_a == 0:
        return w.copy()
    new = _new_block(
        delta_a, w.shape[1], plan, rng, ref_std, fan_in=w.shape[0] + delta_a, zero_under_guard=True
    )
    return np.vstack([w, new])


def pretrained_projection_std(params: dict, config: ModelConfig) -> float:
    vals = np.concatenate([params[k].ravel() for k in projection_keys(config)])
    return float(np.std(vals))


def grow_projections(
    tensors: dict, config: ModelConfig, plan: GrowthPlan, rng: RngState, ref_std: float
) -> dict:
    """Grow every Q/K/V projection entry of a dict shaped like the params.

    ``config`` is the pre-growth configuration. Entries that are not
    projection stages are copied untouched. The new blocks are drawn from
    ``rng`` under ``plan`` in the dict's key order; with a strict-zero plan
    this grows optimizer moments, whose old block stays in the leading
    ranges and whose new entries are zero.
    """
    proj_keys = set(projection_keys(config))
    out: dict[str, np.ndarray] = {}
    for key, w in tensors.items():
        if key not in proj_keys:
            out[key] = w.copy()
        elif key.endswith("w_up"):
            out[key] = grow_w_up(w, plan.delta_m, plan, rng, ref_std)
        elif key.endswith("w_mid"):
            out[key] = grow_w_mid(w, plan.delta_m, plan.delta_a, plan, rng, ref_std)
        else:
            out[key] = grow_w_down(w, plan.delta_a, plan, rng, ref_std)
    return out


def grow_model(
    params: dict,
    config: ModelConfig,
    plan: GrowthPlan,
    strict_hierarchy: bool = True,
    probe=None,
):
    """Grow every Q/K/V projection with the same plan.

    Non-projection parameters are copied untouched. When ``probe`` (a
    list of token sequences) is given the report also carries the max
    output deviation on the probe and the new-block gradient norms at
    step 0, and a zero policy whose deviation is not exactly 0.0 raises
    NumericError (``require_exact_preservation``).
    """
    new_config = config.grown(plan.delta_m, plan.delta_a)
    violations = validate_hierarchy(
        new_config.hidden_size, new_config.ladder_m, new_config.ladder_a, strict=strict_hierarchy
    )
    rng = RngState(derive_seed(plan.seed, 0x6702))
    new_params = grow_projections(
        params, config, plan, rng, pretrained_projection_std(params, config)
    )
    block_init = {
        name: _describe(block)
        for name, block in new_block_slices(new_params, new_config, plan.delta_m, plan.delta_a)
    }

    report = GrowthReport(
        old_m=config.ladder_m,
        old_a=config.ladder_a,
        new_m=new_config.ladder_m,
        new_a=new_config.ladder_a,
        init_policy=plan.init_policy,
        block_init=block_init,
    )
    if violations and not strict_hierarchy:
        report.block_init["hierarchy_warnings"] = "; ".join(violations)
    if probe is not None and len(probe) > 0:
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

    Both models run under channel-ordered exact arithmetic, where the
    zero blocks of the two zero policies provably contribute nothing:
    the result is exactly 0.0 for them, and strictly positive for noise
    inits on generic probes.
    """
    if len(probe) == 0:
        raise ValidationError("probe must be non-empty")
    if old_config.vocab_size != new_config.vocab_size:
        raise ValidationError("vocab size mismatch between models")
    if old_config.context_len != new_config.context_len:
        raise ValidationError("context length mismatch between models")
    worst = 0.0
    with exact_arithmetic():
        for seq in probe:
            old_logits, _ = model_forward(old_config, old_params, seq)
            new_logits, _ = model_forward(new_config, new_params, seq)
            worst = max(worst, float(np.abs(old_logits - new_logits).max()))
    return worst


def new_block_slices(tensors: dict, config: ModelConfig, delta_m: int, delta_a: int):
    """Yield (block_name, array_view) for every block of every projection
    that a growth by (delta_m, delta_a) created.

    ``config`` is the post-growth configuration.
    """
    m_old = config.ladder_m - delta_m
    a_old = config.ladder_a - delta_a
    for i in range(config.n_layers):
        for proj in PROJ_NAMES:
            p = f"blocks.{i}.attn.{proj}."
            up = tensors[p + "w_up"]
            mid = tensors[p + "w_mid"]
            down = tensors[p + "w_down"]
            yield "up_new", up[:, m_old:]
            yield "mid_right", mid[:m_old, a_old:]
            yield "mid_bottom", mid[m_old:, :a_old]
            yield "mid_corner", mid[m_old:, a_old:]
            yield "down_new", down[a_old:, :]


def new_block_gradient_report(
    new_params: dict, new_config: ModelConfig, plan: GrowthPlan, batch
) -> dict[str, float]:
    """Frobenius norm of the loss gradient over each new block type."""
    _, grads = model_loss_and_grads(new_config, new_params, batch)
    sums = {name: 0.0 for name in NEW_BLOCKS}
    for name, block in new_block_slices(grads, new_config, plan.delta_m, plan.delta_a):
        sums[name] += float((block**2).sum())
    return {name: float(np.sqrt(s)) for name, s in sums.items()}


def require_exact_preservation(deviation: float, plan: GrowthPlan) -> None:
    """Hard gate for the zero policies before continued training."""
    if plan.preserves_function and deviation != 0.0:
        raise NumericError(
            f"{plan.init_policy} growth must preserve the output exactly, "
            f"got max logit deviation {deviation!r}"
        )
