"""Nexus-Rank projection, the three-stage map d -> m -> a -> d, and
multi-head attention built from three of them in place of linear Q/K/V.

A projection is the weight triple ``(w_up, w_mid, w_down)`` of shapes
(d, m), (m, a), (a, d), with a GeLU after each of the first two stages.
There are no bias terms and GeLU(0) = 0, so zero blocks appended to
these matrices contribute exactly nothing to the output: that is what
makes lossless width growth possible. Shapes are checked once, where
parameters enter the program (``model.check_params``); ``matmul`` still
rejects any product whose inner dimensions disagree. ``block_form``
states that losslessness literally on BLAS (see ``ladder_forward``).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix, causal_mask, gelu, gelu_derivative, matmul, softmax_rows

Triple = tuple[np.ndarray, np.ndarray, np.ndarray]  # (w_up, w_mid, w_down)

# (m0, a0) of the base a ladder was grown from, in the calling context only
_BASE_WIDTHS: ContextVar[tuple[int, int] | None] = ContextVar("base_widths", default=None)


@contextmanager
def block_form(m0: int, a0: int):
    """Compute every ``ladder_forward`` made inside, in the calling
    context only, in blocks split at the base widths (m0, a0)."""
    token = _BASE_WIDTHS.set((m0, a0))
    try:
        yield
    finally:
        _BASE_WIDTHS.reset(token)


def validate_hierarchy(d: int, m: int, a: int) -> None:
    """Raise ValidationError unless d < m < a: the rule for a fresh ladder
    (``model.init_params``) only. Growth takes any widths, because the
    paper's axis ablation grows m past a and preservation needs no order.
    """
    chain = (d, m, a)
    violations = []
    for i in range(1, len(chain)):
        if chain[i] <= chain[i - 1]:
            rel = "=" if chain[i] == chain[i - 1] else "<"
            violations.append(
                f"stage {i} width {chain[i]} {rel} stage {i - 1} width {chain[i - 1]}"
            )
    if violations:
        raise ValidationError("ladder hierarchy violated: " + "; ".join(violations))


def _product(a: np.ndarray, b: np.ndarray, k0: int, n0: int) -> np.ndarray:
    """a @ b split at (k0, n0); one matmul when (k0, n0) is the shape of
    ``b``. The old block's operands are copied contiguous, as the base's
    own are: BLAS may round a product of strided views differently."""
    if (k0, n0) == b.shape:
        return matmul(a, b)
    out = np.empty((a.shape[0], b.shape[1]))
    out[:, :n0] = matmul(np.ascontiguousarray(a[:, :k0]), np.ascontiguousarray(b[:k0, :n0]))
    if k0 < b.shape[0]:
        out[:, :n0] += matmul(a[:, k0:], b[k0:, :n0])
    if n0 < b.shape[1]:
        out[:, n0:] = matmul(a, b[:, n0:])
    return out


def ladder_forward(
    ws: Triple, x: np.ndarray, *, keep_cache: bool
) -> tuple[np.ndarray, tuple | None]:
    """out = gelu(gelu(x W_up) W_mid) W_down, and the cache of stage inputs,
    pre-activations and Phi(pre-activation) that ladder_backward reuses.

    The cache exists only for the backward pass: with ``keep_cache``
    False it is None, and the six intermediates are freed on return
    instead of staying alive with the caller. A forward-only pass then
    keeps one projection's intermediates live at a time, which at the
    grown toy size is what lets its working set fit a 2 MiB L2.

    Inside ``block_form(m0, a0)`` each product a @ b is split at the
    base widths: the old block a[:, :k0] @ b[:k0, :n0] has the base
    product's shape and inputs, so BLAS gives it the base's bits; then
    a[:, k0:] @ b[k0:, :n0] is added into the old columns, and
    a @ b[:, n0:] fills the new ones. Where ``mid_bottom`` and
    ``down_new`` are zero, as under both zero policies, every added term
    is ±0 and x + (±0) = x, so each old output keeps its value (only a
    zero's sign may change, which no later difference can see).
    """
    w_up, w_mid, w_down = ws
    m0, a0 = _BASE_WIDTHS.get() or w_mid.shape
    z_up = _product(x, w_up, x.shape[1], m0)
    h_up, cdf_up = gelu(z_up)
    z_mid = _product(h_up, w_mid, m0, a0)
    h_mid, cdf_mid = gelu(z_mid)
    out = _product(h_mid, w_down, a0, w_down.shape[1])
    if not keep_cache:
        return out, None
    return out, (x, z_up, h_up, cdf_up, z_mid, h_mid, cdf_mid)


def ladder_backward(ws: Triple, cache: tuple, d_out: np.ndarray) -> tuple[np.ndarray, Triple]:
    """Reverse-mode gradients; returns ``(d_x, (d_w_up, d_w_mid, d_w_down))``."""
    w_up, w_mid, w_down = ws
    x, z_up, h_up, cdf_up, z_mid, h_mid, cdf_mid = cache
    g_down = matmul(h_mid.T, d_out)
    d = matmul(d_out, w_down.T) * gelu_derivative(z_mid, cdf_mid)
    g_mid = matmul(h_up.T, d)
    d = matmul(d, w_mid.T) * gelu_derivative(z_up, cdf_up)
    g_up = matmul(x.T, d)
    return matmul(d, w_up.T), (g_up, g_mid, g_down)


@dataclass
class AttentionCache:
    """What attention_backward reuses from attention_forward: the three
    projections' ladder caches and outputs, and ``probs``, the post-softmax
    attention weights of every head as one (n_heads, n, n) array. The head
    count is ``probs.shape[0]``.

    Only a pass that runs the backward builds one: it keeps six stage
    arrays of each projection alive, several times a forward's own
    working set, so a forward-only pass that kept it would spill L2."""

    q_cache: tuple
    k_cache: tuple
    v_cache: tuple
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray


def attention_forward(
    q_ws: Triple, k_ws: Triple, v_ws: Triple, x: np.ndarray, n_heads: int, *, keep_cache: bool
) -> tuple[np.ndarray, AttentionCache | None]:
    """Multi-head causal scaled dot-product attention over three staged
    projections.

    Returns the concatenated head outputs (no output projection here) and
    the cache for the backward pass, or None without ``keep_cache``: the
    cache exists only for the backward, and leaving it out frees each
    projection's intermediates as soon as the projection returns (see
    ``ladder_forward``). Each head's products are 2-D ``matmul`` calls;
    the scaled scores of all heads share one (n_heads, n, n) buffer and
    one masked softmax.
    """
    x = as_matrix(x, "x")
    d = x.shape[1]
    if d % n_heads != 0:
        raise ValidationError(f"n_heads {n_heads} does not divide width {d}")
    n = x.shape[0]
    head_dim = d // n_heads
    scale = 1.0 / np.sqrt(head_dim)

    q, q_cache = ladder_forward(q_ws, x, keep_cache=keep_cache)
    k, k_cache = ladder_forward(k_ws, x, keep_cache=keep_cache)
    v, v_cache = ladder_forward(v_ws, x, keep_cache=keep_cache)

    heads = [slice(h * head_dim, (h + 1) * head_dim) for h in range(n_heads)]
    scores = np.empty((n_heads, n, n))
    for h, sl in enumerate(heads):
        np.multiply(matmul(q[:, sl], k[:, sl].T), scale, out=scores[h])
    probs = softmax_rows(scores, causal_mask(n))
    out = np.empty_like(q)
    for h, sl in enumerate(heads):
        out[:, sl] = matmul(probs[h], v[:, sl])
    if not keep_cache:
        return out, None
    return out, AttentionCache(q_cache, k_cache, v_cache, q, k, v, probs)


def attention_backward(
    q_ws: Triple, k_ws: Triple, v_ws: Triple, cache: AttentionCache, d_out: np.ndarray
) -> tuple[np.ndarray, Triple, Triple, Triple]:
    """Gradients of attention_forward's output.

    Returns (d_x, q_grads, k_grads, v_grads) where each grad triple
    follows the (w_up, w_mid, w_down) layout of ladder_backward.
    """
    q, k, v, p = cache.q, cache.k, cache.v, cache.probs
    n, d = q.shape
    n_heads = p.shape[0]
    head_dim = d // n_heads
    scale = 1.0 / np.sqrt(head_dim)
    heads = [slice(h * head_dim, (h + 1) * head_dim) for h in range(n_heads)]
    dq = np.empty_like(q)
    dk = np.empty_like(k)
    dv = np.empty_like(v)
    ds = np.empty_like(p)  # d(probs) per head, turned into d(scores) in place below
    for h, sl in enumerate(heads):
        d_o = d_out[:, sl]
        ds[h] = matmul(d_o, v[:, sl].T)
        dv[:, sl] = matmul(p[h].T, d_o)
    # softmax backward, ds = p * (dp - sum(dp * p)); masked entries have
    # p == 0, so they stay 0
    t = ds * p
    ds -= t.sum(axis=-1, keepdims=True)
    ds *= p
    for h, sl in enumerate(heads):
        np.multiply(matmul(ds[h], k[:, sl]), scale, out=dq[:, sl])
        np.multiply(matmul(ds[h].T, q[:, sl]), scale, out=dk[:, sl])
    dx_q, q_grads = ladder_backward(q_ws, cache.q_cache, dq)
    dx_k, k_grads = ladder_backward(k_ws, cache.k_cache, dk)
    dx_v, v_grads = ladder_backward(v_ws, cache.v_cache, dv)
    return dx_q + dx_k + dx_v, q_grads, k_grads, v_grads
