"""Dense 2-D float64 linear algebra and activation kernels.

Everything operates on plain numpy arrays of shape (rows, cols), or for
``softmax_rows`` also on a stack of them, and is a pure function of its
inputs: the same call is bit-identical across runs.

Matrix products have two modes. The default hands off to BLAS, which is
fast and reproducible per shape but may round the *same* mathematical
sum differently for different matrix shapes (kernel tiling). Inside an
``exact_arithmetic()`` block, the products made inside a
``width_dependent_products()`` scope instead accumulate rank-1 terms
strictly in input-channel order, so the rounding of each output element
depends only on the sequence of (a_ik, b_kj) values feeding it - never
on how wide the matrices are. ``ladder.ladder_forward`` and
``ladder.ladder_backward`` enter that scope; every other product stays
on BLAS in either mode.

That is the arithmetic under which a zero-initialised width expansion
leaves every pre-existing output bit-identical, and it is what
function-preservation checks run in. Growth changes only ``ladder_m``
and ``ladder_a``, widths that occur only inside the ladder, so the
ladder's products are the only ones whose shapes change. Channel order
makes their pre-existing outputs bit-identical. Every other product
(attention scores and aggregate, the output projection, the FFN, the
unembedding) then keeps its shape and receives bit-identical inputs,
and BLAS rounds the same shape and inputs the same way, so its output
is bit-identical too.

Exact mode still runs on BLAS: one ``dgemm`` per input channel k, with
inner dimension 1 and alpha = beta = 1, accumulating into one output.
Such a call rounds each element as fl(fl(a_ik * b_kj) + c_ij): the
product is rounded on its own and then added, with no fused multiply-add
spanning two channels, which is the same arithmetic as an elementwise
multiply followed by an add. This rests on the BLAS kernel not fusing
the K=1 product into the accumulation; the tests compare it bit for bit
against that numpy loop.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from scipy.special import ndtr

from .errors import ValidationError

_INV_SQRT_2PI = 0.3989422804014327

# Per thread (and per asyncio task): entering the mode or the scope in one
# thread leaves every other thread's matmuls on the BLAS path.
_EXACT_MODE: ContextVar[bool] = ContextVar("exact_arithmetic", default=False)
_WIDTH_DEPENDENT: ContextVar[bool] = ContextVar("width_dependent_products", default=False)


@contextmanager
def exact_arithmetic():
    """Shape-stable, channel-ordered summation for every matmul made inside
    a ``width_dependent_products()`` scope, in the calling thread only."""
    token = _EXACT_MODE.set(True)
    try:
        yield
    finally:
        _EXACT_MODE.reset(token)


@contextmanager
def width_dependent_products():
    """Mark the matmuls made inside, in the calling thread, as products
    whose shapes change when the model grows: under ``exact_arithmetic()``
    these, and only these, sum one input channel at a time."""
    token = _WIDTH_DEPENDENT.set(True)
    try:
        yield
    finally:
        _WIDTH_DEPENDENT.reset(token)


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={a.ndim}")
    return a


def _matmul_channel_ordered(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b summed one input channel at a time, in channel order.

    Each step is a K=1 ``dgemm`` that adds the rank-1 term of channel k
    to the output in place. It runs on the transposed problem,
    out.T += b[k].T @ a[:, k].T, so the Fortran-ordered accumulator is
    ``out`` in C order and every operand slice is contiguous.

    The netlib reference dgemm skips the terms whose second-operand
    entry is zero (here a[i, k] == 0), so a zero there would hide an inf
    or NaN in ``b``. The tests pin that non-finite operands give the
    same values as the numpy loop on the OpenBLAS in use. Where two NaNs
    of opposite sign meet in one element the NaN's sign bit may differ.
    """
    # Imported here: scipy.linalg costs ~6 MB of resident memory, and
    # only exact mode needs it.
    from scipy.linalg.blas import dgemm

    a_cols = np.ascontiguousarray(a.T)
    b_rows = np.ascontiguousarray(b)
    out_t = np.zeros((b.shape[1], a.shape[0]), order="F")
    for k in range(a.shape[1]):
        out_t = dgemm(1.0, b_rows[k : k + 1].T, a_cols[k : k + 1], 1.0, out_t, overwrite_c=1)
    return out_t.T


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product; see the module docstring for the two modes."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValidationError(
            f"matmul shape mismatch: {a.shape[0]}x{a.shape[1]} @ "
            f"{b.shape[0]}x{b.shape[1]}"
        )
    if _EXACT_MODE.get() and _WIDTH_DEPENDENT.get():
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
