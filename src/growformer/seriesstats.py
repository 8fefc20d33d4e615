"""Time-series statistics for the radial-indicator trajectory.

Each fit has one mode, and a series it cannot support raises
``ValidationError`` with the reason; ``experiment.analyze_snapshot_series``
reports that reason in place of the fit.

* ``harmonic_fit``   - OLS cosine regression with the frequency chosen by
  a dense deterministic grid search. The recorded full-scale harmonic
  R^2 is matched only with a regressor linear in time added, which the
  pipeline does not fit (see ``tests/test_paper_claims.py``).
* ``fisher_g_test``  - max-share-of-periodogram test against white noise
  on the series less its least-squares line, with the exact null p-value
  formula. It is the only periodicity significance test.
* ``scaling_law_fit`` - OLS of ln(ppl) on |ln(r)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def ols_linear(x, y) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared).

    A constant y gives slope 0 with r_squared defined as 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("x and y must be 1-D and equally long")
    n = x.size
    if n < 2:
        raise ValidationError(f"need at least 2 points, got {n}")
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = float(xm @ xm)
    if sxx == 0:
        raise ValidationError("x has zero variance")
    slope = float(xm @ ym) / sxx
    intercept = float(y.mean() - slope * x.mean())
    sst = float(ym @ ym)
    if sst == 0:
        return slope, intercept, 0.0
    res = y - (slope * x + intercept)
    return slope, intercept, float(1.0 - (res @ res) / sst)


@dataclass
class HarmonicFit:
    a0: float
    a1: float
    freq: float
    phase: float
    r_squared: float


def harmonic_fit(times, values) -> HarmonicFit:
    """Fit values ~ a0 + a1*cos(2*pi*f*t + phase) by OLS.

    The frequency is searched on a 512-point grid over
    [1/(2*span), 1/(2*min_spacing)]; ties in the grid argmax resolve to
    the lowest frequency. It needs 4 observations, one more than the
    coefficients, and values that vary. It reports no p-value;
    periodicity significance comes from ``fisher_g_test``, whose null
    accounts for the search.
    """
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if t.shape != v.shape or t.ndim != 1:
        raise ValidationError("times and values must be 1-D and equally long")
    if not (np.isfinite(t).all() and np.isfinite(v).all()):
        raise ValidationError("times and values must be finite")
    if t.size < 4:
        raise ValidationError(f"need at least 4 observations, got {t.size}")
    if not (np.diff(t) > 0).all():
        raise ValidationError("times must be strictly increasing")
    sst = float(((v - v.mean()) ** 2).sum())
    if sst == 0:
        raise ValidationError("values have zero variance")

    span = t[-1] - t[0]
    min_spacing = float(np.diff(t).min())
    grid = np.linspace(1.0 / (2.0 * span), 1.0 / (2.0 * min_spacing), 512)

    best_r2 = -np.inf
    best = None
    for f in grid:
        design = np.column_stack(
            [np.ones_like(t), np.cos(2 * np.pi * f * t), np.sin(2 * np.pi * f * t)]
        )
        coef, *_ = np.linalg.lstsq(design, v, rcond=None)
        res = v - design @ coef
        r2 = 1.0 - float(res @ res) / sst
        if r2 > best_r2:
            best_r2 = r2
            best = (f, coef)
    f, coef = best
    a_cos, a_sin = float(coef[1]), float(coef[2])
    phase = math.atan2(-a_sin, a_cos)
    if phase == -math.pi:
        phase = math.pi
    r2 = max(min(best_r2, 1.0), 0.0)
    return HarmonicFit(
        a0=float(coef[0]), a1=math.hypot(a_cos, a_sin), freq=float(f), phase=phase, r_squared=r2
    )


@dataclass
class FisherGResult:
    g_stat: float
    p_value: float
    fourier_term_count: int
    peak_index: int  # 1-based Fourier frequency index of the max ordinate


def fisher_g_p_value(x: float, m: int) -> float:
    """Exact null tail probability P(g > x) for m periodogram ordinates."""
    if m < 1:
        raise ValidationError("need at least one Fourier term")
    if x <= 1.0 / m:
        return 1.0
    if x >= 1.0:
        return 0.0
    total = 0.0
    for k in range(1, min(m, int(1.0 / x)) + 1):
        total += (-1) ** (k - 1) * math.comb(m, k) * (1.0 - k * x) ** (m - 1)
    return float(min(max(total, 0.0), 1.0))


def fisher_g_test(values) -> FisherGResult:
    """Max periodogram share over the Fourier frequencies of the series
    less its least-squares line, with exact p.

    A series that is a line has an empty spectrum once the line is
    removed; it reports the minimum share 1/m with p = 1.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValidationError("values must be 1-D")
    if not np.isfinite(v).all():
        raise ValidationError("values must be finite")
    n = v.size
    if n < 5:
        raise ValidationError(f"need at least 5 observations, got {n}")
    design = np.column_stack([np.ones(n), np.arange(n, dtype=np.float64)])
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    x = v - design @ coef
    m = (n - 1) // 2
    spectrum = np.abs(np.fft.rfft(x)[1 : m + 1]) ** 2 / n
    total = spectrum.sum()
    if total == 0:
        return FisherGResult(1.0 / m, 1.0, m, 1)
    g = float(spectrum.max() / total)
    return FisherGResult(g, fisher_g_p_value(g, m), m, int(np.argmax(spectrum)) + 1)


@dataclass
class ScalingFit:
    slope: float
    intercept: float
    r_squared: float
    n_used: int
    n_excluded: int  # pairs dropped because r == 0


def scaling_law_fit(pairs) -> ScalingFit:
    """OLS of ln(ppl) on |ln(r)| over (r, ppl) pairs.

    Pairs with r == 0 are excluded (|ln 0| diverges) and counted.
    """
    rs, ppls = [], []
    excluded = 0
    for r, ppl in pairs:
        if not (math.isfinite(r) and math.isfinite(ppl)):
            raise ValidationError(f"r and ppl must be finite, got ({r}, {ppl})")
        if ppl <= 0:
            raise ValidationError(f"ppl must be positive, got {ppl}")
        if r < 0:
            raise ValidationError(f"r must be non-negative, got {r}")
        if r == 0:
            excluded += 1
            continue
        rs.append(abs(math.log(r)))
        ppls.append(math.log(ppl))
    if not rs:
        reason = "all pairs excluded (every r was zero)" if excluded else "no (r, ppl) pairs given"
        raise ValidationError(reason)
    if len(rs) < 2:
        raise ValidationError(f"need at least 2 usable pairs, got {len(rs)}")
    slope, intercept, r2 = ols_linear(rs, ppls)
    return ScalingFit(slope, intercept, r2, len(rs), excluded)
