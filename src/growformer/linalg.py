"""Dense 2-D float64 linear algebra and activation kernels.

Everything operates on plain numpy arrays of shape (rows, cols), or for
``softmax_rows`` also on a stack of them, and is a pure function of its
inputs: the same call is bit-identical across runs.

Matrix products run on BLAS, which is fast and reproducible per shape:
the same shape and inputs give the same bits, though two shapes may
round the same mathematical sum differently (kernel tiling). That is
all lossless growth needs, because ``ladder`` computes a grown ladder's
products in blocks at the base model's own shapes (see
``ladder.ladder_forward``).

``exact_arithmetic()`` is a reference, not a second path of the
program: inside it, in the calling context only, every ``matmul`` sums
one input channel at a time, in channel order, as an elementwise
multiply followed by an add, so each output element is rounded the same
way whatever the shapes. Only the benchmark's eval check enters it, to
hold the BLAS losses to that reference.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from scipy.special import ndtr

from .errors import ValidationError

_INV_SQRT_2PI = 0.3989422804014327

# Per thread (and per asyncio task): entering the mode in one thread
# leaves every other thread's matmuls on BLAS.
_EXACT_MODE: ContextVar[bool] = ContextVar("exact_arithmetic", default=False)


@contextmanager
def exact_arithmetic():
    """Channel-ordered summation for every matmul made inside, in the
    calling context only: the reference arithmetic of the module docstring."""
    token = _EXACT_MODE.set(True)
    try:
        yield
    finally:
        _EXACT_MODE.reset(token)


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={a.ndim}")
    return a


def _matmul_channel_ordered(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b summed one input channel at a time, in channel order: one
    elementwise multiply and one add per channel."""
    out = np.zeros((a.shape[0], b.shape[1]))
    term = np.empty_like(out)
    for k in range(a.shape[1]):
        np.multiply(a[:, k, None], b[k, None, :], out=term)
        out += term
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product on BLAS, or channel-ordered under
    ``exact_arithmetic()``; see the module docstring."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValidationError(
            f"matmul shape mismatch: {a.shape[0]}x{a.shape[1]} @ "
            f"{b.shape[0]}x{b.shape[1]}"
        )
    if _EXACT_MODE.get():
        return _matmul_channel_ordered(a, b)
    return a @ b


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact-CDF GeLU. Returns (x * Phi(x), Phi(x)); the backward pass
    hands Phi back to ``gelu_derivative``. Maps 0 to 0 bit-exactly."""
    x = np.asarray(x, dtype=np.float64)
    cdf = ndtr(x)
    return x * cdf, cdf


def gelu_derivative(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx of exact-CDF GeLU, Phi(x) + x * phi(x), given ``cdf`` =
    Phi(x) as returned by ``gelu(x)``."""
    x = np.asarray(x, dtype=np.float64)
    return cdf + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def softmax_rows(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with max-subtraction, of a 2-D array
    or of a (..., rows, cols) stack of them.

    ``mask`` is a boolean (rows, cols) array, shared by every matrix of a
    stack; False entries are excluded and come out exactly 0,
    whatever ``x`` holds there (an inf or a NaN included). A row with
    nothing allowed is an error rather than a NaN. ``x`` is not written:
    the result is one new array, and the max-subtraction, ``exp`` and
    division run in place on it. Each matrix of a stack comes out
    bit-equal to the softmax of that matrix on its own.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValidationError(f"x must be 2-D or a stack of 2-D arrays, got ndim={x.ndim}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape[-2:]:
        raise ValidationError(f"mask shape {mask.shape} != x shape {x.shape[-2:]}")
    if not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise ValidationError(f"softmax row {bad} is fully masked")
    out = np.where(mask, x, -np.inf)
    out -= out.max(axis=-1, keepdims=True)
    # exp(-inf) is +0.0 but takes numpy's slow special-value path
    np.exp(out, out=out, where=mask)
    np.copyto(out, 0.0, where=~mask)
    out /= out.sum(axis=-1, keepdims=True)
    return out


@functools.lru_cache(maxsize=16)
def causal_mask(n: int) -> np.ndarray:
    """Lower-triangular boolean mask: position i may attend to j <= i.

    Cached per ``n`` and shared by every caller, so the array is
    read-only."""
    mask = np.tril(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def eig_sym3(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric 3x3 matrix.

    Eigenvalues descending; eigenvectors are the columns of the returned
    matrix, each signed so its largest-magnitude component is positive.
    """
    c = as_matrix(c, "c")
    if c.shape != (3, 3):
        raise ValidationError(f"eig_sym3 needs a 3x3 matrix, got {c.shape}")
    if np.abs(c - c.T).max() > 1e-12:
        raise ValidationError("eig_sym3: input not symmetric within 1e-12")
    vals, vecs = np.linalg.eigh(c)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(3):
        i = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vals, vecs
