"""Nonparametric alignment statistics between a frozen base model and a
grown model under continued training.

Two distribution statistics drive everything:

* ``noc``       - histogram intersection of two weight populations
                  (shared equal-width bins over the union range).
* ``u_p_score`` - two-sided Mann-Whitney p-value locating the new-block
                  entries against the frozen base distribution, by the
                  normal approximation, from a rank sum that is exact
                  while n1 * (n1 + n2) < 2^52 (see ``u_p_score``).

``snapshot_alignment`` measures both for one snapshot against the frozen
base. Their signed shifts relative to the first snapshot of a series,
taken in ``experiment.analyze_snapshot_series``, combine into the scalar
radial indicator r = sqrt(up_pct^2 + noc_pct^2); small r means the grown
model's weight distribution still looks like the base model's.

Sample semantics: ``noc`` compares the frozen base projection entries
against *all* projection entries of the current model, while ``u_p``
compares only the entries that did not exist before the growth step
against the frozen base distribution. Populations above 10^5 entries are
subsampled with a seeded generator (``rng.subsample``). Which entries are
drawn is a pure function of ``(seed, position, n, limit)``, not of the
values, and is memoised: every snapshot of a series draws the same
positions from populations of the same size, so only the first snapshot
pays for the shuffle.

Populations are plain flat float64 arrays, unchecked here: they are
finite by the loader's gate (``checkpoint.load_checkpoint``) and because
``train`` stops on a non-finite loss, and no width is 0, so none is empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ValidationError
from .growth import new_block_slices
from .model import ModelConfig, projection_keys
from .rng import RngState, StreamTag, derive_seed, subsample

SUBSAMPLE_LIMIT = 100_000
BINS = 128


def noc(f: np.ndarray, g: np.ndarray) -> float:
    """Histogram overlap coefficient in [0, 1] of two flat float64
    populations over ``BINS`` shared bins; symmetric in its arguments."""
    lo = min(f.min(), g.min())
    hi = max(f.max(), g.max())
    if lo == hi:
        # both samples are the same constant
        return 1.0
    edges = np.linspace(lo, hi, BINS + 1)
    pf, _ = np.histogram(f, bins=edges)
    pg, _ = np.histogram(g, bins=edges)
    # integer cross-products keep the sum exact (1.0 for equal histograms)
    overlap = np.minimum(pf * g.size, pg * f.size).sum()
    return float(overlap / (f.size * g.size))


def u_p_score(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sided Mann-Whitney p-value for the location of the flat float64
    population ``x`` (the new entries) against ``y`` (the frozen base).

    The normal approximation with tie and continuity corrections, the
    only path: an exact null distribution matters only for a sample of
    a few entries. Growth never shrinks a width, so from a valid init
    (d < m < a) every growth adds at least 3 new entries per projection
    (9 per layer) against a base of at least 33.

    r1, the rank sum of ``x``, is exact in any summation order: a new
    entry whose tie group of ``count`` ends at pooled sorted slot ``end`` - 1
    has the half-integer rank (2 * end - count + 1) / 2, and float64 holds
    2 * r1 exactly while n1 * (n1 + n2) < 2^52 (2^35 at ``SUBSAMPLE_LIMIT``).
    """
    n1, n2 = x.size, y.size
    if n1 < 2 or n2 < 2:
        raise ValidationError(f"both samples need >= 2 entries, got {n1} and {n2}")
    values, count = np.unique(np.concatenate([x, y]), return_counts=True)
    end = np.cumsum(count)
    group = values.searchsorted(np.sort(x))
    r1 = float((2 * end[group] - count[group] + 1).sum()) / 2
    u1 = n1 * n2 + n1 * (n1 + 1) / 2.0 - r1

    n = n1 + n2
    mu = n1 * n2 / 2.0
    tie_term = (count.astype(np.float64) ** 3 - count).sum() / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var <= 0:
        return 1.0
    z = (abs(u1 - mu) - 0.5) / np.sqrt(var)
    z = max(z, 0.0)
    return float(min(2.0 * ndtr(-z), 1.0))


def percent_shift(current: float, initial: float) -> float:
    """Signed relative shift (current - initial) / initial."""
    if initial == 0:
        raise ValidationError("percent_shift undefined for a zero initial value")
    return (current - initial) / initial


def radial_energy(up_pct: float, noc_pct: float) -> float:
    """Radial indicator sqrt(up_pct^2 + noc_pct^2)."""
    return float(np.hypot(up_pct, noc_pct))


def perf_gain(current_perf: float, baseline_perf: float) -> float:
    """Signed performance gain versus a baseline.

    The denominator uses |baseline| so that "better" is always positive
    even when the performance proxy is a negated loss.
    """
    if baseline_perf == 0:
        raise ValidationError("perf_gain undefined for a zero baseline")
    return (current_perf - baseline_perf) / abs(baseline_perf)


@dataclass
class AlignmentSnapshot:
    tokens: int
    u_p: float
    noc: float
    loss: float
    up_pct: float
    noc_pct: float
    perf_pct: float

    @property
    def ppl(self) -> float:
        return float(np.exp(self.loss))

    @property
    def r(self) -> float:
        return radial_energy(self.up_pct, self.noc_pct)

    @property
    def state_vector(self) -> np.ndarray:
        return np.array([self.up_pct, self.noc_pct, self.perf_pct])


def base_projection_sample(params: dict, config: ModelConfig, rng: RngState) -> np.ndarray:
    """Subsample of every Q/K/V projection entry."""
    vals = np.concatenate([params[k].ravel() for k in projection_keys(config)])
    return subsample(rng, vals, SUBSAMPLE_LIMIT)


def snapshot_alignment(
    base_params: dict,
    base_config: ModelConfig,
    current_params: dict,
    current_config: ModelConfig,
) -> tuple[float, float]:
    """(u_p, noc) of the current model against the frozen base: the half
    of a snapshot's alignment record that needs neither its held-out loss
    nor any other snapshot, so a snapshot is measured as it is made and
    its parameters need not outlive the call.

    ``experiment.analyze_snapshot_series`` completes the record: it takes
    every snapshot's figures and shifts them against the series' first.
    The current model must be a growth of the base
    (``ModelConfig.growth_from``).
    """
    delta_m, delta_a = current_config.growth_from(base_config)
    rng = RngState(derive_seed(0, StreamTag.SUBSAMPLE))
    base_s = base_projection_sample(base_params, base_config, rng)
    noc_val = noc(base_s, base_projection_sample(current_params, current_config, rng))
    if delta_m + delta_a > 0:
        blocks = new_block_slices(current_params, current_config, delta_m, delta_a)
        new = np.concatenate([b.ravel() for _, _, b in blocks])
        return u_p_score(subsample(rng, new, SUBSAMPLE_LIMIT), base_s), noc_val
    return 1.0, noc_val  # no new parameters: nothing can have diverged
