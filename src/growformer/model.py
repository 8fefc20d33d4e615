"""A minimal causal language model whose Q/K/V maps are staged projections.

Block layout: learned token + position embeddings, then per layer
pre-norm attention (three ladder projections, multi-head softmax, output
projection) and a pre-norm GeLU FFN, both with residual connections,
then a final norm and an unembedding matrix. All linear maps are
bias-free. Forward and backward are hand-written on 2-D float64 arrays,
one sequence at a time; ``heldout_loss`` scores its sequences in order,
in the caller's thread and context. ``train`` scores held-out windows on
a pool whose workers run in their own context.

Only ``model_loss_and_grads`` keeps the per-block caches, because only
the backward reads them. Every forward-only pass (``model_forward``,
``heldout_loss``, preservation checks) builds none, and each block's
intermediates die with the block: at ``TOY_CONFIG`` grown by (32, 32)
the caches would take about 8 MiB, where the forward alone needs under
2 MiB, the per-core L2 of the benchmark host.

``param_shapes`` is the one statement of the parameter layout, and
``check_params`` holds a parameter set to it where one enters the program.
``check_fits_memory`` refuses a configuration whose parameters and Adam
moments could not fit in physical memory before any of them is made.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import NumericError, ValidationError, check_int, check_keys
from .ladder import Triple, attention_backward, attention_forward, validate_hierarchy
from .linalg import gelu, gelu_derivative, matmul
from .rng import RngState, StreamTag, derive_seed, seeded_gaussian

_LN_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    context_len: int
    hidden_size: int
    n_heads: int
    n_layers: int
    ladder_m: int
    ladder_a: int
    ffn_size: int

    def __post_init__(self):
        for f in fields(self):
            check_int("model", f.name, getattr(self, f.name), minimum=1)
        if self.hidden_size % self.n_heads != 0:
            raise ValidationError(
                f"n_heads {self.n_heads} does not divide hidden {self.hidden_size}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build from ``to_dict`` output under ``errors.check_keys``."""
        return cls(**check_keys("model", d, fields(cls)))

    def grown(self, delta_m: int, delta_a: int) -> "ModelConfig":
        return replace(self, ladder_m=self.ladder_m + delta_m, ladder_a=self.ladder_a + delta_a)


# Default toy configuration: smallest setup where every invariant of the
# growth and analysis pipeline is still meaningful.
TOY_CONFIG = ModelConfig(
    vocab_size=64,
    context_len=128,
    hidden_size=64,
    n_heads=4,
    n_layers=2,
    ladder_m=96,
    ladder_a=128,
    ffn_size=256,
)

PROJ_NAMES = ("q", "k", "v")
PROJ_STAGES = ("w_up", "w_mid", "w_down")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """(rows, cols) of every parameter, in the order ``init_params`` draws
    them: the order of every parameter and moment dict built or loaded."""
    d, m, a, f = config.hidden_size, config.ladder_m, config.ladder_a, config.ffn_size
    shapes = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.context_len, d)}
    for i in range(config.n_layers):
        p = f"blocks.{i}."
        shapes[p + "ln1.g"] = shapes[p + "ln1.b"] = (1, d)
        for proj in PROJ_NAMES:
            shapes[p + f"attn.{proj}.w_up"] = (d, m)
            shapes[p + f"attn.{proj}.w_mid"] = (m, a)
            shapes[p + f"attn.{proj}.w_down"] = (a, d)
        shapes[p + "attn.w_o"] = (d, d)
        shapes[p + "ln2.g"] = shapes[p + "ln2.b"] = (1, d)
        shapes[p + "ffn.w1"] = (d, f)
        shapes[p + "ffn.w2"] = (f, d)
    shapes["ln_f.g"] = shapes["ln_f.b"] = (1, d)
    shapes["unembed"] = (d, config.vocab_size)
    return shapes


def projection_keys(config: ModelConfig) -> list[str]:
    """Names of every Q/K/V projection stage, in ``param_shapes`` order."""
    return [name for name in param_shapes(config) if name.endswith(PROJ_STAGES)]


def check_fits_memory(config: ModelConfig) -> None:
    """Raise ValidationError when the parameters of ``config`` and their
    two Adam moments, 8 bytes per entry each, exceed physical memory.

    The count is the closed form of ``param_shapes`` in Python ints, so
    a config too large to lay out is refused without building anything.
    """
    d, m, a, f = config.hidden_size, config.ladder_m, config.ladder_a, config.ffn_size
    per_layer = 4 * d + 3 * (d * m + m * a + a * d) + d * d + 2 * d * f
    count = (2 * config.vocab_size + config.context_len + 2) * d + config.n_layers * per_layer
    need = 3 * 8 * count
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise ValidationError(
            f"model: {count} parameters need {need} bytes with their Adam moments, "
            f"more than the {physical} bytes of physical memory"
        )


def check_params(config: ModelConfig, params: dict, label: str) -> None:
    """Raise ValidationError unless ``params`` holds exactly the matrices
    of ``param_shapes(config)``, each of that shape. ``label`` names the
    set (parameters or a moment) in the message."""
    shapes = param_shapes(config)
    missing = [name for name in shapes if name not in params]
    extra = sorted(name for name in params if name not in shapes)
    if missing or extra:
        raise ValidationError(f"{label}: missing matrices {missing}, unexpected matrices {extra}")
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ValidationError(
                f"{label}: {name} has shape {params[name].shape}, expected {shape}"
            )


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Seeded init in ``param_shapes`` order: norm gains one, norm biases
    zero, embeddings std 1/sqrt(cols), the unembedding 0.5/sqrt(rows) (a
    half-scale head keeps the initial loss near ln(vocab)), every other
    matrix std 1/sqrt(fan_in)."""
    validate_hierarchy(config.hidden_size, config.ladder_m, config.ladder_a)
    check_fits_memory(config)
    rng = RngState(derive_seed(seed, StreamTag.INIT_DRAWS))
    params: dict[str, np.ndarray] = {}
    for name, (rows, cols) in param_shapes(config).items():
        if name.endswith(".g"):
            params[name] = np.ones((rows, cols))
        elif name.endswith(".b"):
            params[name] = np.zeros((rows, cols))
        else:
            if name.endswith("_emb"):
                std = 1.0 / np.sqrt(cols)
            elif name == "unembed":
                std = 0.5 / np.sqrt(rows)
            else:
                std = 1.0 / np.sqrt(rows)
            params[name] = seeded_gaussian(rng, rows, cols, 0.0, std)
    return params


def _projections(params: dict, layer: int) -> list[Triple]:
    """The q, k and v weight triples of one layer."""
    p = f"blocks.{layer}.attn."
    return [tuple(params[f"{p}{proj}.{stage}"] for stage in PROJ_STAGES) for proj in PROJ_NAMES]


def _layernorm_forward(x, g, b):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv_std
    return g * xhat + b, (xhat, inv_std)


def _layernorm_backward(d_out, g, cache):
    xhat, inv_std = cache
    d_xhat = d_out * g
    dx = inv_std * (
        d_xhat
        - d_xhat.mean(axis=1, keepdims=True)
        - xhat * (d_xhat * xhat).mean(axis=1, keepdims=True)
    )
    dg = (d_out * xhat).sum(axis=0, keepdims=True)
    db = d_out.sum(axis=0, keepdims=True)
    return dx, dg, db


def _check_tokens(config: ModelConfig, token_ids) -> np.ndarray:
    ids = np.asarray(token_ids)
    # a float or bool id would be truncated to some other token, not refused
    if ids.dtype.kind not in "iu":
        raise ValidationError(f"token_ids must be integers, got dtype {ids.dtype}")
    if ids.ndim != 1:
        raise ValidationError("token_ids must be a 1-D sequence")
    n = ids.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 tokens for next-token loss")
    if n > config.context_len:
        raise ValidationError(f"sequence length {n} exceeds context {config.context_len}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValidationError(
            f"token id out of range [0, {config.vocab_size}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    return ids.astype(np.int64, copy=False)


def _block_forward(params, i, h, n_heads, keep_cache):
    """One pre-norm block: h + attention, then + FFN. Returns the block's
    output and, with ``keep_cache``, what the backward reuses. Without
    it every intermediate goes out of scope when the block returns."""
    p = f"blocks.{i}."
    a_in, ln1_cache = _layernorm_forward(h, params[p + "ln1.g"], params[p + "ln1.b"])
    att, att_cache = attention_forward(
        *_projections(params, i), a_in, n_heads, keep_cache=keep_cache
    )
    h1 = h + matmul(att, params[p + "attn.w_o"])
    f_in, ln2_cache = _layernorm_forward(h1, params[p + "ln2.g"], params[p + "ln2.b"])
    ffn_pre = matmul(f_in, params[p + "ffn.w1"])
    ffn_act, ffn_cdf = gelu(ffn_pre)
    h2 = h1 + matmul(ffn_act, params[p + "ffn.w2"])
    if not keep_cache:
        return h2, None
    return h2, dict(
        ln1=ln1_cache,
        att=att_cache,
        att_concat=att,
        ln2=ln2_cache,
        f_in=f_in,
        ffn_pre=ffn_pre,
        ffn_act=ffn_act,
        ffn_cdf=ffn_cdf,
    )


def _forward(config, params, ids, keep_caches):
    """Logits, the final norm's input and cache, and, with
    ``keep_caches``, one cache per block for the backward.

    Caches exist only for the backward pass. A forward-only pass keeps
    none, so its live set is one block's intermediates (one ladder
    projection's at a time inside attention): for ``TOY_CONFIG`` grown by
    (32, 32) on a full window that is under 2 MiB, inside a per-core L2,
    where the caches alone take several times that."""
    n = ids.shape[0]
    h = params["tok_emb"][ids] + params["pos_emb"][:n]
    caches = []
    for i in range(config.n_layers):
        h, cache = _block_forward(params, i, h, config.n_heads, keep_caches)
        if keep_caches:
            caches.append(cache)
    hn, lnf_cache = _layernorm_forward(h, params["ln_f.g"], params["ln_f.b"])
    logits = matmul(hn, params["unembed"])
    return logits, hn, lnf_cache, caches


def _loss_from_logits(logits, ids):
    pred = logits[:-1]
    targets = ids[1:]
    shifted = pred - pred.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(len(targets)), targets].mean()
    probs = np.exp(logp)
    return loss, probs, targets


def model_forward(config: ModelConfig, params: dict, token_ids):
    """Return (logits, mean next-token cross-entropy loss)."""
    ids = _check_tokens(config, token_ids)
    logits, _, _, _ = _forward(config, params, ids, keep_caches=False)
    loss, _, _ = _loss_from_logits(logits, ids)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")
    return logits, float(loss)


def model_loss_and_grads(config: ModelConfig, params: dict, token_ids):
    """Return (loss, grads) with one gradient array per parameter."""
    ids = _check_tokens(config, token_ids)
    n = ids.shape[0]
    logits, hn, lnf_cache, caches = _forward(config, params, ids, keep_caches=True)
    loss, probs, targets = _loss_from_logits(logits, ids)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")

    # every gradient but the two embeddings' is assigned whole below
    grads = dict.fromkeys(params)
    grads["tok_emb"] = np.zeros_like(params["tok_emb"])  # rows accumulate by np.add.at
    grads["pos_emb"] = np.zeros_like(params["pos_emb"])  # rows past n stay 0
    d_logits = np.zeros_like(logits)
    d_logits[:-1] = probs
    d_logits[np.arange(len(targets)), targets] -= 1.0
    d_logits[:-1] /= len(targets)

    grads["unembed"] = matmul(hn.T, d_logits)
    d_hn = matmul(d_logits, params["unembed"].T)
    d_h, dg, db = _layernorm_backward(d_hn, params["ln_f.g"], lnf_cache)
    grads["ln_f.g"] = dg
    grads["ln_f.b"] = db

    for i in range(config.n_layers - 1, -1, -1):
        p = f"blocks.{i}."
        c = caches[i]
        # FFN branch
        d_ffn_out = d_h
        grads[p + "ffn.w2"] = matmul(c["ffn_act"].T, d_ffn_out)
        d_act = matmul(d_ffn_out, params[p + "ffn.w2"].T)
        d_pre = d_act * gelu_derivative(c["ffn_pre"], c["ffn_cdf"])
        grads[p + "ffn.w1"] = matmul(c["f_in"].T, d_pre)
        d_f_in = matmul(d_pre, params[p + "ffn.w1"].T)
        d_h1, dg, db = _layernorm_backward(d_f_in, params[p + "ln2.g"], c["ln2"])
        grads[p + "ln2.g"] = dg
        grads[p + "ln2.b"] = db
        d_h1 = d_h1 + d_h  # residual
        # attention branch
        d_att_out = d_h1
        grads[p + "attn.w_o"] = matmul(c["att_concat"].T, d_att_out)
        d_att = matmul(d_att_out, params[p + "attn.w_o"].T)
        d_a_in, *proj_grads = attention_backward(*_projections(params, i), c["att"], d_att)
        for which, gs in zip(PROJ_NAMES, proj_grads):
            for stage, g in zip(PROJ_STAGES, gs):
                grads[p + f"attn.{which}.{stage}"] = g
        d_hprev, dg, db = _layernorm_backward(d_a_in, params[p + "ln1.g"], c["ln1"])
        grads[p + "ln1.g"] = dg
        grads[p + "ln1.b"] = db
        d_h = d_hprev + d_h1  # residual

    np.add.at(grads["tok_emb"], ids, d_h)
    grads["pos_emb"][:n] = d_h
    return float(loss), grads


def heldout_loss(config: ModelConfig, params: dict, sequences) -> float:
    """Mean loss over a list of evaluation sequences, scored in order in
    the caller's thread and context; a pool worker that calls it, as in
    ``train``, scores in the worker's own context."""
    if len(sequences) == 0:
        raise ValidationError("heldout_loss needs at least one sequence")
    return float(np.mean([model_forward(config, params, s)[1] for s in sequences]))
