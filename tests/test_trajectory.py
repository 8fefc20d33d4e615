import numpy as np
import pytest

from growformer.errors import ValidationError
from growformer.trajectory import (
    PcaModel,
    SubspacePoint,
    grassmann_distance,
    lift_subspace,
    pca_fit,
    pca_project,
    trajectory_series,
)


def random_states(rng, n, transform=None):
    pts = rng.normal(size=(n, 3))
    if transform is not None:
        pts = pts @ transform.T
    return pts


class TestPcaFit:
    def test_planar_states_have_zero_third_eigenvalue(self):
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.normal(size=(3, 2)))[0]
        pts = rng.normal(size=(40, 2)) @ basis.T + 0.3
        model = pca_fit(pts)
        assert model.eigenvalues[2] < 1e-10
        assert abs(model.variance_ratios[:2].sum() - 1.0) < 1e-10

    def test_isotropic_cloud_equal_ratios(self):
        rng = np.random.default_rng(1)
        model = pca_fit(rng.normal(size=(10_000, 3)))
        assert np.abs(model.variance_ratios - 1 / 3).max() < 0.05

    def test_spectral_reconstruction(self):
        rng = np.random.default_rng(2)
        pts = random_states(rng, 200, transform=rng.normal(size=(3, 3)))
        model = pca_fit(pts)
        xc = pts - pts.mean(axis=0)
        cov = xc.T @ xc / (len(pts) - 1)
        recon = model.eigenvectors @ np.diag(model.eigenvalues) @ model.eigenvectors.T
        assert np.abs(recon - cov).max() < 1e-9

    def test_orthonormal_loadings(self):
        rng = np.random.default_rng(3)
        model = pca_fit(random_states(rng, 50))
        v = model.eigenvectors
        assert np.abs(v.T @ v - np.eye(3)).max() < 1e-10

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        pts = random_states(rng, 60, transform=np.diag([3.0, 1.0, 0.2]))
        m1 = pca_fit(pts)
        m2 = pca_fit(pts * 2.5)
        assert np.abs(m2.eigenvalues - 2.5**2 * m1.eigenvalues).max() < 1e-8
        for j in range(3):
            assert abs(abs(m1.eigenvectors[:, j] @ m2.eigenvectors[:, j]) - 1) < 1e-9

    def test_too_few_states(self):
        with pytest.raises(ValidationError):
            pca_fit(np.zeros((2, 3)))

    def test_degenerate_variance(self):
        with pytest.raises(ValidationError, match="variance"):
            pca_fit(np.ones((5, 3)))


class TestPcaProject:
    def _model(self):
        rng = np.random.default_rng(5)
        return pca_fit(random_states(rng, 100, transform=np.diag([4.0, 2.0, 1.0])))

    def test_mean_maps_to_origin(self):
        model = self._model()
        z = pca_project(model, model.mean)
        assert np.abs(z).max() < 1e-12

    def test_leading_direction_maps_to_e1(self):
        model = self._model()
        z = pca_project(model, model.mean + model.eigenvectors[:, 0])
        assert abs(z[0] - 1.0) < 1e-12 and abs(z[1]) < 1e-12

    def test_roundtrip_residual_along_third_axis(self):
        model = self._model()
        rng = np.random.default_rng(6)
        x = rng.normal(size=3)
        z = pca_project(model, x)
        residual = (x - model.mean) - model.eigenvectors[:, :2] @ z
        along_v3 = (residual @ model.eigenvectors[:, 2]) * model.eigenvectors[:, 2]
        assert np.abs(residual - along_v3).max() < 1e-12


class TestLift:
    def test_axis_point(self):
        sub = lift_subspace(np.array([1.0, 0.0]))
        assert np.abs(np.abs(sub.basis[:, 0]) - [1, 0, 0]).max() < 1e-12
        assert np.abs(np.abs(sub.basis[:, 1]) - [0, 0, 1]).max() < 1e-12

    def test_closed_form_direction(self):
        sub = lift_subspace(np.array([3.0, 4.0]))
        assert np.abs(np.abs(sub.basis[:, 0]) - [0.6, 0.8, 0.0]).max() < 1e-12

    def test_orthonormal_for_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sub = lift_subspace(rng.normal(size=2))
            assert np.abs(sub.basis.T @ sub.basis - np.eye(2)).max() < 1e-10

    def test_degenerate_point_falls_back(self):
        sub = lift_subspace(np.zeros(2))
        assert np.abs(sub.basis.T @ sub.basis - np.eye(2)).max() < 1e-12


def grid_search_distance(qa, qb, steps=3000):
    """Oracle: smallest principal angle by scanning unit vectors of each
    plane; the second angle comes from the orthogonal complements."""
    ts = np.linspace(0, 2 * np.pi, steps, endpoint=False)
    ua = qa @ np.vstack([np.cos(ts), np.sin(ts)])  # 3 x steps candidates
    ub = qb @ np.vstack([np.cos(ts), np.sin(ts)])
    dots = np.abs(ua.T @ ub)
    i, j = np.unravel_index(np.argmax(dots), dots.shape)
    c1 = min(dots[i, j], 1.0)
    # orthogonal complements within each plane
    a2 = np.cross(np.cross(qa[:, 0], qa[:, 1]), ua[:, i])
    b2 = np.cross(np.cross(qb[:, 0], qb[:, 1]), ub[:, j])
    a2 /= np.linalg.norm(a2)
    b2 /= np.linalg.norm(b2)
    c2 = min(abs(float(a2 @ b2)), 1.0)
    return float(np.hypot(np.arccos(c1), np.arccos(c2)))


class TestGrassmannDistance:
    def test_identical_subspaces(self):
        sub = lift_subspace(np.array([0.3, -1.2]))
        assert grassmann_distance(sub, sub) == 0.0

    def test_orthogonal_planes_quarter_turn(self):
        a = SubspacePoint(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        b = SubspacePoint(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        assert abs(grassmann_distance(a, b) - np.pi / 2) < 1e-12

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            qa = np.linalg.qr(rng.normal(size=(3, 2)))[0]
            qb = np.linalg.qr(rng.normal(size=(3, 2)))[0]
            a = SubspacePoint(qa, np.zeros(2))
            b = SubspacePoint(qb, np.zeros(2))
            assert abs(grassmann_distance(a, b) - grid_search_distance(qa, qb)) < 1e-3

    def test_metric_axioms_on_sampled_triples(self):
        rng = np.random.default_rng(9)
        points = [lift_subspace(rng.normal(size=2)) for _ in range(30)]
        for _ in range(1000):
            i, j, k = rng.integers(0, len(points), size=3)
            a, b, c = points[i], points[j], points[k]
            dab = grassmann_distance(a, b)
            assert dab == grassmann_distance(b, a)  # exact symmetry
            assert dab <= grassmann_distance(a, c) + grassmann_distance(c, b) + 1e-9
            assert 0.0 <= dab <= np.pi / 2 + 1e-12  # shared e3 kills one angle


class TestTrajectorySeries:
    def test_constant_states(self):
        rng = np.random.default_rng(10)
        base = rng.normal(size=(12, 3))  # fit on varied states
        model = pca_fit(base)
        series = trajectory_series(model, [base[0]] * 5)
        assert all(p.r_g == 0.0 and p.r_e == 0.0 for p in series)

    def test_two_point_euclidean(self):
        model = PcaModel(
            mean=np.zeros(3),
            eigenvectors=np.eye(3),
            eigenvalues=np.array([3.0, 2.0, 1.0]),
            variance_ratios=np.array([0.5, 1 / 3, 1 / 6]),
        )
        series = trajectory_series(model, [np.zeros(3), np.array([1.0, 0.0, 0.0])])
        assert series[0].r_e == 0.0
        assert abs(series[1].r_e - 1.0) < 1e-12

    def test_loop_returns_to_start(self):
        rng = np.random.default_rng(11)
        ts = np.linspace(0, 2 * np.pi, 9)
        loop = np.column_stack([np.cos(ts), np.sin(ts), 0.2 * np.cos(2 * ts)])
        model = pca_fit(loop)
        series = trajectory_series(model, list(loop))
        assert series[-1].r_e < 1e-10
        assert series[-1].r_g < 1e-7

    def test_needs_two_snapshots(self):
        model = pca_fit(np.random.default_rng(12).normal(size=(5, 3)))
        with pytest.raises(ValidationError):
            trajectory_series(model, [np.zeros(3)])

