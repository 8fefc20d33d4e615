"""Reference computations the tests compare the package against.

None of them is part of the program: a central-difference gradient for
the analytic backward passes, the stationary unigram entropy of a
``markov-k2`` table for the corpus generator, and the harmonic fit with
a linear trend regressor that the paper's recorded R^2 needs and the
pipeline's ``seriesstats.harmonic_fit`` does not fit.
"""

from typing import Callable

import numpy as np

from growformer.corpus import VOCAB, markov_table
from growformer.errors import NumericError, ValidationError
from growformer.linalg import as_matrix


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix."""
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    x = as_matrix(x, "x")
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        fp = float(f(xp))
        xm = x.copy()
        xm[idx] -= eps
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"finite_diff_grad: non-finite f at index {idx}")
        g[idx] = (fp - fm) / (2.0 * eps)
    return g


def markov_stationary_unigram_entropy(seed: int) -> float:
    """Entropy (nats) of the stationary unigram distribution, computed by
    at most 2000 steps of power iteration over the 64^2 context-pair
    distribution."""
    table = markov_table(seed)
    pi = np.full((VOCAB, VOCAB), 1.0 / (VOCAB * VOCAB))
    for _ in range(2000):
        nxt = np.einsum("ab,abc->bc", pi, table)
        if np.abs(nxt - pi).sum() < 1e-13:
            pi = nxt
            break
        pi = nxt
    unigram = pi.sum(axis=0)
    unigram = unigram / unigram.sum()
    nz = unigram[unigram > 0]
    return float(-(nz * np.log(nz)).sum())


def unigram_entropy(stream: np.ndarray) -> float:
    """Entropy (nats) of the empirical unigram distribution of a stream."""
    counts = np.bincount(stream, minlength=VOCAB).astype(np.float64)
    p = counts / counts.sum()
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def harmonic_fit_with_trend(times, values) -> tuple[float, float]:
    """(R^2, frequency) of values ~ a0 + a1*cos(2*pi*f*t + phase) + slope*t
    by OLS, with f searched on ``seriesstats.harmonic_fit``'s 512-point grid
    (the lowest frequency wins a tie)."""
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    sst = float(((v - v.mean()) ** 2).sum())
    best_r2, best_f = -np.inf, None
    for f in np.linspace(1.0 / (2.0 * (t[-1] - t[0])), 1.0 / (2.0 * np.diff(t).min()), 512):
        design = np.column_stack([np.ones_like(t), np.cos(2 * np.pi * f * t),
                                  np.sin(2 * np.pi * f * t), t])
        res = v - design @ np.linalg.lstsq(design, v, rcond=None)[0]
        r2 = 1.0 - float(res @ res) / sst
        if r2 > best_r2:
            best_r2, best_f = r2, float(f)
    return max(min(best_r2, 1.0), 0.0), best_f
