"""Recorded results from the full-scale growth study.

Test data, not part of the package: only the tests compare against it.

These tables were measured on the production-scale runs (a 240M-parameter
base grown to 300M/380M/440M on a web-text corpus): the alignment-indicator
trajectories of the 380M path and the analyses reported on them, the
model dimension tables, the profiler FLOP/perplexity measurements and the
axis ablation.

``tests/test_paper_claims.py`` maps every name here to the tests that
check it. In short:

* reproduced from the recorded inputs: the trajectories' r column, the
  Fisher g statistic and its p-value, the FLOP/perplexity ratio column,
  and the ladder-below-baseline FLOP ordering of the dimension tables;
* mirrored at desk scale: NOC at expansion falling with growth size, and
  the axis ablation's row schema and width-order labels;
* documented as inconsistent: the harmonic fit's F and p against its
  R^2, and the scaling-law fit, which the recorded trajectories do not
  give.
"""

from growformer.model import ModelConfig

# Indicator trajectories along the 240M -> 380M growth path, recorded at
# 3B-token intervals of continued training, for the three new-block
# initialisation settings. "r" is the radial indicator derived from the
# u_p / noc columns relative to the 0-budget row.
GROWTH_PATH_BUDGETS_B = [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30]

GROWTH_PATH_TRAJECTORIES = {
    "zero": {
        "u_p": [0.8152, 0.8608, 0.7707, 0.8794, 0.8769, 0.9374,
                0.9903, 0.8490, 0.8697, 0.5923, 0.7171],
        "noc": [0.7752, 0.7888, 0.7747, 0.7663, 0.7614, 0.7585,
                0.7567, 0.7559, 0.7550, 0.7595, 0.7645],
        "r": [0.0, 0.058623857, 0.054591642, 0.079586138, 0.0777523,
              0.151441944, 0.216115606, 0.04836286, 0.071753518,
              0.274178867, 0.12112758],
        "loss": [2.5112, 2.6199, 2.5528, 2.5385, 2.5932, 2.6416,
                 2.5655, 2.5608, 2.5404, 2.3602, 2.3337],
    },
    "noise10": {
        "u_p": [0.7168, 0.9653, 0.3055, 0.0455, 0.0404, 0.0035,
                0.0076, 0.0071, 0.0462, 0.0469, 0.0374],
        "noc": [0.7947, 0.9150, 0.9193, 0.9106, 0.8973, 0.8870,
                0.8796, 0.8783, 0.8751, 0.8843, 0.8955],
        "r": [0.0, 0.37828834, 0.594835608, 0.947811059, 0.952429315,
              1.001872123, 0.995148381, 0.995667735, 0.941001262,
              0.941346665, 0.956273056],
        "loss": [2.5119, 2.6255, 2.5550, 2.5370, 2.5900, 2.6376,
                 2.5602, 2.5540, 2.5310, 2.3487, 2.32018],
    },
    "noise20": {
        "u_p": [0.7702, 0.7103, 0.2047, 0.0039, 0.0145, 0.0147,
                0.0424, 0.0259, 0.0462, 0.0029, 0.0128],
        "noc": [0.8135, 0.9174, 0.9224, 0.9106, 0.8955, 0.8854,
                0.8770, 0.8724, 0.8679, 0.8788, 0.8922],
        "r": [0.0, 0.149535328, 0.746328532, 1.002070555, 0.986337829,
              0.98488782, 0.948167874, 0.969080895, 0.942391158,
              0.99946336, 0.988128119],
        "loss": [2.5170, 2.6256, 2.5565, 2.5393, 2.5892, 2.6371,
                 2.5580, 2.5510, 2.5283, 2.3466, 2.31934],
    },
}

# Alignment statistics at the moment of expansion (0-budget) for the
# three production growth targets; NOC decreases as more zero-valued
# parameters are added.
ZERO_BUDGET_NOC_BY_TARGET = {"300M": 0.8674, "380M": 0.7752, "440M": 0.7194}

# Reported analysis values for the zero-init 380M radial series.
REPORTED_HARMONIC = {"r_squared": 0.685, "f_stat": 5.89, "dof": (2, 8), "p_value": 0.035}
REPORTED_FISHER_G = {"g_stat": 0.4876, "p_value": 0.3448}
REPORTED_SCALING = {"slope": -0.0991, "intercept": 2.4804, "r_squared": 0.658}

# Staged-projection model dimensions at each scale:
# (layers, hidden, vocab, ffn, mid, over). Sequence length 4096.
LADDER_MODEL_DIMS = {
    "170M": (12, 768, 32000, 1706, 780, 800),
    "240M": (12, 768, 32000, 2048, 780, 960),
    "300M": (12, 768, 32000, 2048, 1088, 1228),
    "380M": (12, 800, 32000, 2048, 1340, 1530),
    "440M": (12, 1024, 32000, 2048, 1540, 1730),
    "480M": (24, 800, 32000, 2304, 896, 968),
    "640M": (24, 1024, 32000, 2560, 1152, 1280),
}

# Plain-projection baseline dimensions: (layers, hidden, vocab, ffn).
BASELINE_MODEL_DIMS = {
    "240M": (12, 1088, 32000, 4032),
    "300M": (12, 1240, 32000, 4880),
    "380M": (12, 1300, 32000, 6912),
    "440M": (12, 1360, 32000, 6912),
}

FULL_SCALE_SEQ_LEN = 4096

# Profiler-measured per-token FLOPs and achieved perplexity.
MEASURED = {
    ("ladder", "240M"): {"flops": 4.256e8, "ppl": 10.8157, "ppl_per_flop": 2.54e-8},
    ("baseline", "240M"): {"flops": 4.223e8, "ppl": 18.1741, "ppl_per_flop": 4.30e-8},
    ("ladder", "300M"): {"flops": 5.648e8, "ppl": 9.4216, "ppl_per_flop": 1.67e-8},
    ("baseline", "300M"): {"flops": 6.036e8, "ppl": 13.7495, "ppl_per_flop": 2.28e-8},
    ("ladder", "380M"): {"flops": 7.171e8, "ppl": 8.3981, "ppl_per_flop": 1.17e-8},
    ("baseline", "380M"): {"flops": 7.570e8, "ppl": 12.8842, "ppl_per_flop": 1.70e-8},
    ("ladder", "440M"): {"flops": 8.390e8, "ppl": 9.1706, "ppl_per_flop": 1.09e-8},
    ("baseline", "440M"): {"flops": 8.704e8, "ppl": 12.2500, "ppl_per_flop": 1.41e-8},
}

# Axis-ablation schema from the 280M study: expanding both widths with
# the over-capacity axis leading gave the best perplexity (10.890);
# the absolute values are scale-specific, the schema and orderings are
# what the desk-scale harness mirrors.
AXIS_ABLATION_ROWS = [
    {"axis": "M", "order": "M>A>D", "m": 1180, "a": 960, "ppl": 10.89386732},
    {"axis": "A", "order": "A>M>D", "m": 780, "a": 1360, "ppl": 10.89604631},
    {"axis": "M+A", "order": "M>A>D", "m": 1130, "a": 1010, "ppl": 10.89386732},
    {"axis": "M+A", "order": "A>M>D", "m": 830, "a": 1310, "ppl": 10.89016404},
]


def ladder_model_config(size: str) -> ModelConfig:
    """ModelConfig for a recorded staged-projection scale."""
    layers, hidden, vocab, ffn, mid, over = LADDER_MODEL_DIMS[size]
    return ModelConfig(
        vocab_size=vocab,
        context_len=FULL_SCALE_SEQ_LEN,
        hidden_size=hidden,
        n_heads=8,
        n_layers=layers,
        ladder_m=mid,
        ladder_a=over,
        ffn_size=ffn,
    )


def baseline_model_config(size: str) -> ModelConfig:
    """ModelConfig carrying a recorded plain-projection baseline's dims.

    Only meaningful for FLOP accounting with projection="standard"; the
    ladder widths are placeholders.
    """
    layers, hidden, vocab, ffn = BASELINE_MODEL_DIMS[size]
    heads = next(h for h in (8, 4, 2, 1) if hidden % h == 0)
    return ModelConfig(
        vocab_size=vocab,
        context_len=FULL_SCALE_SEQ_LEN,
        hidden_size=hidden,
        n_heads=heads,
        n_layers=layers,
        ladder_m=hidden + 1,
        ladder_a=hidden + 2,
        ffn_size=ffn,
    )
