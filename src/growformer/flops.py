"""Analytic per-token FLOP accounting.

Convention: one multiply-add counts as 2 FLOPs. Counted components are
the Q/K/V projections, the attention score and aggregation matmuls at
the full sequence length, the attention output projection, the FFN
matmuls, and the vocabulary head. Normalisation, softmax, activations
and embedding lookups are excluded.

``model_flops`` is checked against the matmuls a real forward pass
performs, counted at 2*m*k*n each: per module in ``tests/test_flops.py``,
and in total by the benchmark's tracer (``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .errors import ValidationError
from .model import ModelConfig


@dataclass
class FlopsBreakdown:
    qkv_projections: int
    attention_scores: int
    attention_aggregate: int
    output_projection: int
    ffn: int
    lm_head: int

    @property
    def total(self) -> int:
        return sum(astuple(self))


def nexus_proj_flops(d: int, m: int, a: int) -> int:
    """Per-token cost of one staged projection d -> m -> a -> d."""
    if min(d, m, a) < 1:
        raise ValidationError("projection dims must be >= 1")
    return 2 * (d * m + m * a + a * d)


def standard_proj_flops(d: int) -> int:
    """Per-token cost of one plain linear projection d -> d."""
    if d < 1:
        raise ValidationError("projection dim must be >= 1")
    return 2 * d * d


def model_flops(
    config: ModelConfig, seq_len: int | None = None, projection: str = "ladder"
) -> FlopsBreakdown:
    """Per-token FLOP estimate for a whole model.

    ``projection`` selects staged ("ladder") or plain ("standard")
    Q/K/V maps; the latter models a conventional baseline with the same
    hidden size.
    """
    n = config.context_len if seq_len is None else seq_len
    if n < 1:
        raise ValidationError(f"seq_len must be >= 1, got {n}")
    if projection not in ("ladder", "standard"):
        raise ValidationError(f"unknown projection kind {projection!r}")
    d, layers = config.hidden_size, config.n_layers
    if projection == "ladder":
        qkv = 3 * nexus_proj_flops(d, config.ladder_m, config.ladder_a)
    else:
        qkv = 3 * standard_proj_flops(d)
    scores = 2 * n * d
    aggregate = 2 * n * d
    out_proj = 2 * d * d
    ffn = 4 * d * config.ffn_size
    return FlopsBreakdown(
        qkv_projections=layers * qkv,
        attention_scores=layers * scores,
        attention_aggregate=layers * aggregate,
        output_projection=layers * out_proj,
        ffn=layers * ffn,
        lm_head=2 * d * config.vocab_size,
    )


def breakdown_csv_rows(name: str, config: ModelConfig, seq_len: int | None = None) -> list[str]:
    """CSV lines (config_name, components..., total, ratio_vs_baseline)
    for one named config.

    The baseline is the same config with standard projections.
    """
    header = (
        "config_name,qkv_projections,attention_scores,attention_aggregate,"
        "output_projection,ffn,lm_head,total,ratio_vs_baseline"
    )
    b = model_flops(config, seq_len=seq_len, projection="ladder")
    base = model_flops(config, seq_len=seq_len, projection="standard")
    ratio = b.total / base.total
    return [
        header,
        f"{name},{b.qkv_projections},{b.attention_scores},"
        f"{b.attention_aggregate},{b.output_projection},{b.ffn},"
        f"{b.lm_head},{b.total},{ratio!r}",
    ]
