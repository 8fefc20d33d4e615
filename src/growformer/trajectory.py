"""Low-dimensional geometry of the alignment trajectory.

Each snapshot contributes a 3-vector of signed shifts (up_pct, noc_pct,
perf_pct). A 3x3 PCA gives a 2-D embedding; each embedded point is then
lifted to the plane spanned by [pc1, pc2, 0] and [0, 0, 1], a point on
the manifold of 2-D subspaces of R^3, so that trajectory movement can be
measured both as a geodesic subspace distance (via principal angles) and
as the plain Euclidean distance between embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import AlignmentSnapshot
from .errors import ValidationError
from .linalg import as_matrix, eig_sym3, matmul, qr_thin


@dataclass
class PcaModel:
    mean: np.ndarray  # (3,)
    eigenvectors: np.ndarray  # (3, 3), columns
    eigenvalues: np.ndarray  # (3,), descending
    variance_ratios: np.ndarray  # (3,), sums to 1


@dataclass
class SubspacePoint:
    basis: np.ndarray  # (3, 2), orthonormal columns
    z: np.ndarray  # (2,), the embedding that generated it


def _states_matrix(states) -> np.ndarray:
    rows = []
    for s in states:
        if isinstance(s, AlignmentSnapshot):
            rows.append(s.state_vector)
        else:
            rows.append(np.asarray(s, dtype=np.float64))
    x = np.vstack(rows)
    if x.shape[1] != 3:
        raise ValidationError(f"states must be 3-D, got width {x.shape[1]}")
    return x


def pca_fit(states) -> PcaModel:
    """Eigendecomposition of the 3x3 sample covariance of the states.

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


def pca_project(model: PcaModel, state) -> np.ndarray:
    """Embed one state into the plane of the two leading components."""
    x = _states_matrix([state])[0]
    return model.eigenvectors[:, :2].T @ (x - model.mean)


def lift_subspace(z) -> SubspacePoint:
    """Lift an embedding to the subspace span{[z0, z1, 0], e3}.

    An exactly-centered point has no in-plane direction; it falls back to
    e1 so that the map stays total.
    """
    z = np.asarray(z, dtype=np.float64).reshape(2)
    v1 = np.array([z[0], z[1], 0.0])
    if np.linalg.norm(v1) < 1e-10:
        v1 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([0.0, 0.0, 1.0])
    q, _ = qr_thin(np.column_stack([v1, v2]))
    return SubspacePoint(basis=q, z=z)


def _principal_cosines_2x2(m: np.ndarray) -> tuple[float, float]:
    """Singular values of a 2x2 matrix from transpose-invariant scalars.

    Built from the Frobenius norm and determinant only, so that
    cosines(m) == cosines(m.T) bit-for-bit and the subspace distance is
    exactly symmetric.
    """
    s = (m[0, 0] * m[0, 0] + m[1, 1] * m[1, 1]) + (m[0, 1] * m[0, 1] + m[1, 0] * m[1, 0])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = max(s * s - 4.0 * det * det, 0.0)
    root = np.sqrt(disc)
    big = np.sqrt(max((s + root) / 2.0, 0.0))
    small = np.sqrt(max((s - root) / 2.0, 0.0))
    return float(min(big, 1.0)), float(min(small, 1.0))


def grassmann_distance(a: SubspacePoint, b: SubspacePoint) -> float:
    """Geodesic distance sqrt(sum of squared principal angles)."""
    qa = as_matrix(a.basis, "a.basis")
    qb = as_matrix(b.basis, "b.basis")
    if qa.shape != (3, 2) or qb.shape != (3, 2):
        raise ValidationError("subspace bases must be 3x2")
    m = matmul(qa.T, qb)
    c1, c2 = _principal_cosines_2x2(m)
    theta1 = np.arccos(c1)
    theta2 = np.arccos(c2)
    return float(np.sqrt(theta1 * theta1 + theta2 * theta2))


@dataclass
class TrajectoryPoint:
    tokens: int
    z: np.ndarray  # (2,)
    r_g: float
    r_e: float


def trajectory_series(model: PcaModel, snapshots) -> list[TrajectoryPoint]:
    """Per-snapshot embedding plus distances from the first snapshot."""
    snapshots = list(snapshots)
    if len(snapshots) < 2:
        raise ValidationError("need at least 2 snapshots for a trajectory")
    zs = [pca_project(model, s) for s in snapshots]
    subs = [lift_subspace(z) for z in zs]
    out = []
    for idx, (snap, z, sub) in enumerate(zip(snapshots, zs, subs)):
        tokens = snap.tokens if isinstance(snap, AlignmentSnapshot) else idx
        out.append(
            TrajectoryPoint(
                tokens=tokens,
                z=z,
                r_g=grassmann_distance(subs[0], sub),
                r_e=float(np.linalg.norm(z - zs[0])),
            )
        )
    return out

