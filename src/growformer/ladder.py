"""Staged projection layers: d_in -> d_1 -> ... -> d_k -> d_out with a GeLU
after every stage except the last, and multi-head attention built from
three such layers in place of the usual linear Q/K/V maps.

The two-stage case (d_in, mid, over, d_in) is the workhorse: ``w_up``
lifts into the intermediate width, ``w_mid`` expands into the
over-capacity width, ``w_down`` projects back. Because there are no bias
terms and GeLU(0) = 0, zero-initialised blocks appended to these matrices
contribute exactly nothing to the output, which is what makes lossless
width growth possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix, causal_mask, gelu, gelu_derivative, matmul, softmax_rows
from .rng import RngState, seeded_gaussian


@dataclass(frozen=True)
class DimLadder:
    """Widths of a staged projection: d_in, the inner rungs, d_out."""

    d_in: int
    inner: tuple[int, ...]
    d_out: int

    def __post_init__(self):
        if len(self.inner) == 0:
            raise ValidationError("DimLadder needs at least one inner width")
        for d in (self.d_in, *self.inner, self.d_out):
            if d < 1:
                raise ValidationError(f"ladder widths must be >= 1, got {d}")

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.d_in, *self.inner, self.d_out)


def validate_hierarchy(ladder: DimLadder, strict: bool = False) -> list[str]:
    """Check d_in < d_1 < ... < d_k (the output width is unconstrained).

    Returns the list of violations; in strict mode the first violation
    raises instead.
    """
    chain = (ladder.d_in, *ladder.inner)
    violations = []
    for i in range(1, len(chain)):
        if chain[i] <= chain[i - 1]:
            rel = "=" if chain[i] == chain[i - 1] else "<"
            violations.append(
                f"stage {i} width {chain[i]} {rel} stage {i - 1} width {chain[i - 1]}"
            )
    if strict and violations:
        raise ValidationError("ladder hierarchy violated: " + "; ".join(violations))
    return violations


@dataclass
class LadderProjection:
    """Weights of one staged projection; weights[i] maps width i to i+1."""

    ladder: DimLadder
    weights: list[np.ndarray]

    def __post_init__(self):
        widths = self.ladder.widths
        if len(self.weights) != len(widths) - 1:
            raise ValidationError(
                f"expected {len(widths) - 1} weight matrices, got {len(self.weights)}"
            )
        for i, w in enumerate(self.weights):
            if w.shape != (widths[i], widths[i + 1]):
                raise ValidationError(
                    f"weight {i} has shape {w.shape}, expected "
                    f"({widths[i]}, {widths[i + 1]})"
                )

    @classmethod
    def init(
        cls, ladder: DimLadder, rng: RngState, strict: bool = True
    ) -> "LadderProjection":
        """Gaussian init with std 1/sqrt(fan_in) per matrix."""
        validate_hierarchy(ladder, strict=strict)
        widths = ladder.widths
        weights = [
            seeded_gaussian(rng, widths[i], widths[i + 1], 0.0, 1.0 / np.sqrt(widths[i]))
            for i in range(len(widths) - 1)
        ]
        return cls(ladder, weights)


@dataclass
class ForwardCache:
    """Intermediates needed by the backward pass."""

    x: np.ndarray
    pre: list[np.ndarray] = field(default_factory=list)
    post: list[np.ndarray] = field(default_factory=list)
    cdf: list[np.ndarray] = field(default_factory=list)  # Phi(pre), reused by backward


def ladder_forward(layer: LadderProjection, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """out = W_last . gelu( ... gelu(x W_1) ... ), returning the cache."""
    x = as_matrix(x, "x")
    if x.shape[1] != layer.ladder.d_in:
        raise ValidationError(
            f"input width {x.shape[1]} != ladder d_in {layer.ladder.d_in}"
        )
    cache = ForwardCache(x=x)
    h = x
    last = len(layer.weights) - 1
    for i, w in enumerate(layer.weights):
        z = matmul(h, w)
        if i < last:
            cache.pre.append(z)
            h, cdf = gelu(z)
            cache.post.append(h)
            cache.cdf.append(cdf)
        else:
            h = z
    return h, cache


def ladder_backward(
    layer: LadderProjection, cache: ForwardCache, d_out: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Reverse-mode gradients; returns (d_x, [d_W per stage])."""
    d_out = as_matrix(d_out, "d_out")
    if d_out.shape[1] != layer.ladder.d_out or d_out.shape[0] != cache.x.shape[0]:
        raise ValidationError(
            f"d_out shape {d_out.shape} inconsistent with cache "
            f"({cache.x.shape[0]}, {layer.ladder.d_out})"
        )
    grads: list[np.ndarray] = [None] * len(layer.weights)
    d = d_out
    for i in range(len(layer.weights) - 1, -1, -1):
        h_in = cache.x if i == 0 else cache.post[i - 1]
        grads[i] = matmul(h_in.T, d)
        if i > 0:
            d = matmul(d, layer.weights[i].T) * gelu_derivative(
                cache.pre[i - 1], cache.cdf[i - 1]
            )
        else:
            d = matmul(d, layer.weights[i].T)
    return d, grads


@dataclass
class AttentionCache:
    q_cache: ForwardCache
    k_cache: ForwardCache
    v_cache: ForwardCache
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    probs: list[np.ndarray]  # per-head post-softmax attention weights
    n_heads: int


def attention_forward(
    q_proj: LadderProjection,
    k_proj: LadderProjection,
    v_proj: LadderProjection,
    x: np.ndarray,
    n_heads: int,
) -> tuple[np.ndarray, AttentionCache]:
    """Multi-head causal scaled dot-product attention over staged projections.

    Returns the concatenated head outputs (no output projection here) and
    the cache for the backward pass.
    """
    x = as_matrix(x, "x")
    d = x.shape[1]
    for name, proj in (("q", q_proj), ("k", k_proj), ("v", v_proj)):
        if proj.ladder.d_in != d or proj.ladder.d_out != d:
            raise ValidationError(
                f"{name} projection must map width {d} to {d}, "
                f"got {proj.ladder.d_in}->{proj.ladder.d_out}"
            )
    if d % n_heads != 0:
        raise ValidationError(f"n_heads {n_heads} does not divide width {d}")
    n = x.shape[0]
    head_dim = d // n_heads
    scale = 1.0 / np.sqrt(head_dim)

    q, q_cache = ladder_forward(q_proj, x)
    k, k_cache = ladder_forward(k_proj, x)
    v, v_cache = ladder_forward(v_proj, x)

    mask = causal_mask(n)
    out = np.empty_like(q)
    probs = []
    for h in range(n_heads):
        sl = slice(h * head_dim, (h + 1) * head_dim)
        scores = matmul(q[:, sl], k[:, sl].T) * scale
        p = softmax_rows(scores, mask)
        probs.append(p)
        out[:, sl] = matmul(p, v[:, sl])
    cache = AttentionCache(q_cache, k_cache, v_cache, q, k, v, probs, n_heads)
    return out, cache


def attention_backward(
    q_proj: LadderProjection,
    k_proj: LadderProjection,
    v_proj: LadderProjection,
    cache: AttentionCache,
    d_out: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Gradients of attention_forward's output.

    Returns (d_x, q_grads, k_grads, v_grads) where the grad lists follow
    the per-stage layout of ladder_backward.
    """
    q, k, v = cache.q, cache.k, cache.v
    n, d = q.shape
    head_dim = d // cache.n_heads
    scale = 1.0 / np.sqrt(head_dim)
    dq = np.zeros_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)
    for h in range(cache.n_heads):
        sl = slice(h * head_dim, (h + 1) * head_dim)
        p = cache.probs[h]
        d_o = d_out[:, sl]
        dp = matmul(d_o, v[:, sl].T)
        dv[:, sl] = matmul(p.T, d_o)
        # softmax backward; masked entries have p == 0 so they stay 0
        ds = p * (dp - (dp * p).sum(axis=1, keepdims=True))
        dq[:, sl] = matmul(ds, k[:, sl]) * scale
        dk[:, sl] = matmul(ds.T, q[:, sl]) * scale
    dx_q, q_grads = ladder_backward(q_proj, cache.q_cache, dq)
    dx_k, k_grads = ladder_backward(k_proj, cache.k_cache, dk)
    dx_v, v_grads = ladder_backward(v_proj, cache.v_cache, dv)
    return dx_q + dx_k + dx_v, q_grads, k_grads, v_grads


_RANK_TOL = 1e-7


@dataclass
class RankReport:
    rank_x: int
    rank_w: int
    rank_xw: int
    inequality_holds: bool


def _numeric_rank(m: np.ndarray) -> int:
    """Count singular values above _RANK_TOL * sigma_max."""
    if min(m.shape) <= 3:
        from .linalg import svd_small

        _, s, _ = svd_small(m)
    else:
        small = matmul(m.T, m) if m.shape[0] >= m.shape[1] else matmul(m, m.T)
        lam = np.linalg.eigvalsh(small)
        s = np.sqrt(np.clip(lam, 0.0, None))
    if s.size == 0 or s.max() == 0.0:
        return 0
    return int((s > _RANK_TOL * s.max()).sum())


def rank_bottleneck_check(x: np.ndarray, w: np.ndarray) -> RankReport:
    """Numeric check that rank(x @ w) <= min(rank x, rank w).

    The relative threshold ``_RANK_TOL`` sits above sqrt(machine epsilon)
    because ranks of wider matrices come from Gram-matrix eigenvalues,
    whose noise floor is eps * lambda_max.
    """
    x = as_matrix(x, "x")
    w = as_matrix(w, "w")
    if x.shape[1] != w.shape[0]:
        raise ValidationError(
            f"rank_bottleneck_check shape mismatch: {x.shape} @ {w.shape}"
        )
    rx = _numeric_rank(x)
    rw = _numeric_rank(w)
    rxw = _numeric_rank(matmul(x, w))
    return RankReport(rx, rw, rxw, rxw <= min(rx, rw))
