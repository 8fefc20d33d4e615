"""Low-dimensional geometry of the alignment trajectory.

Each snapshot contributes a 3-vector of signed shifts (up_pct, noc_pct,
perf_pct), so a series is an (n, 3) array of states. A 3x3 PCA embeds
each state as z in the plane of the two leading components, and each
embedding is measured against the first, z0, in two ways:

- r_e, the Euclidean distance |z - z0|;
- r_g, the Grassmann distance between the lifted planes span{(z0, 0), e3}
  and span{(z, 0), e3} of R^3, sqrt(theta1^2 + theta2^2) over their two
  principal angles.

Both lifted planes contain e3, so one principal angle is always 0 and r_g
is the other: the angle between the lines through z0 and z, computed as
atan2(|z0 x z|, |z0 . z|) in [0, pi/2]. That form keeps full accuracy at
small angles, where the arccos of a cosine near 1 loses half the digits
(Bjorck & Golub 1973). An embedding with |z| < 1e-10 has no line; it
stands for e1, so the distance stays total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix, eig_sym3, matmul


@dataclass
class PcaModel:
    mean: np.ndarray  # (3,)
    eigenvectors: np.ndarray  # (3, 3), columns
    eigenvalues: np.ndarray  # (3,), descending
    variance_ratios: np.ndarray  # (3,), sums to 1


def _states_matrix(states) -> np.ndarray:
    x = as_matrix(states, "states")
    if x.shape[1] != 3:
        raise ValidationError(f"states must be 3-D, got width {x.shape[1]}")
    return x


def pca_fit(states) -> PcaModel:
    """Eigendecomposition of the 3x3 sample covariance of an (n, 3) array
    of states.

    Needs at least 3 states: two points span a single direction, so PC2
    and with it the 2-D embedding would be undefined. States with zero
    total variance are rejected for the same reason.
    """
    x = _states_matrix(states)
    n = x.shape[0]
    if n < 3:
        raise ValidationError(f"need at least 3 states for PCA, got {n}")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = matmul(xc.T, xc) / (n - 1)
    vals, vecs = eig_sym3(cov)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total <= 0:
        raise ValidationError("degenerate states: zero total variance")
    return PcaModel(mean=mean, eigenvectors=vecs, eigenvalues=vals, variance_ratios=vals / total)


def pca_project(model: PcaModel, states) -> np.ndarray:
    """Embed an (n, 3) array of states into the plane of the two leading
    components, one (n, 2) row each. Rows are projected one at a time, so
    a state's embedding does not depend on how many rows come with it."""
    x = _states_matrix(states)
    return np.array([model.eigenvectors[:, :2].T @ (row - model.mean) for row in x])


def _grassmann_distance(z0: np.ndarray, z: np.ndarray) -> float:
    """r_g of two embeddings, atan2(|u0 x u|, |u0 . u|) over their lines
    (see the module docstring). It is exactly 0.0 for u against u or -u,
    and symmetric bit for bit: swapping the arguments only negates the
    cross term."""
    (a0, a1), (b0, b1) = [(1.0, 0.0) if np.linalg.norm(v) < 1e-10 else v for v in (z0, z)]
    cross, dot = a0 * b1 - a1 * b0, a0 * b0 + a1 * b1
    return math.atan2(abs(cross), abs(dot))


@dataclass
class TrajectoryPoint:
    """One state's embedding ``z`` and its distances ``r_g`` (Grassmann)
    and ``r_e`` (Euclidean) from the first state's embedding."""

    z: np.ndarray  # (2,)
    r_g: float
    r_e: float


def trajectory_series(model: PcaModel, states) -> list[TrajectoryPoint]:
    """One point per row of an (n, 3) array of states, measured from the
    first row."""
    zs = pca_project(model, states)
    if len(zs) < 2:
        raise ValidationError("need at least 2 states for a trajectory")
    return [
        TrajectoryPoint(
            z=z, r_g=_grassmann_distance(zs[0], z), r_e=float(np.linalg.norm(z - zs[0]))
        )
        for z in zs
    ]
