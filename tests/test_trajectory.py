import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from growformer.errors import ValidationError
from growformer.trajectory import PcaModel, pca_fit, pca_project, trajectory_series


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
        z = pca_project(model, model.mean[None])[0]
        assert np.abs(z).max() < 1e-12

    def test_leading_direction_maps_to_e1(self):
        model = self._model()
        z = pca_project(model, (model.mean + model.eigenvectors[:, 0])[None])[0]
        assert abs(z[0] - 1.0) < 1e-12 and abs(z[1]) < 1e-12

    def test_roundtrip_residual_along_third_axis(self):
        model = self._model()
        rng = np.random.default_rng(6)
        x = rng.normal(size=3)
        z = pca_project(model, x[None])[0]
        residual = (x - model.mean) - model.eigenvectors[:, :2] @ z
        along_v3 = (residual @ model.eigenvectors[:, 2]) * model.eigenvectors[:, 2]
        assert np.abs(residual - along_v3).max() < 1e-12


IDENTITY = PcaModel(
    mean=np.zeros(3),
    eigenvectors=np.eye(3),
    eigenvalues=np.array([3.0, 2.0, 1.0]),
    variance_ratios=np.array([0.5, 1 / 3, 1 / 6]),
)


def r_g(z0, z):
    """r_g of embedding z from z0, through the public series: under the
    identity model a state (z, 0) embeds as z exactly."""
    states = np.array([[z0[0], z0[1], 0.0], [z[0], z[1], 0.0]])
    return trajectory_series(IDENTITY, states)[1].r_g


def lifted_basis(z):
    """Orthonormal basis of the lifted plane span{(z, 0), e3}."""
    v1 = np.array([z[0], z[1], 0.0])
    if np.linalg.norm(v1) < 1e-10:
        v1 = np.array([1.0, 0.0, 0.0])
    return np.linalg.qr(np.column_stack([v1, [0.0, 0.0, 1.0]]))[0]


def svd_grassmann_distance(qa, qb):
    """Oracle: sqrt(sum of squared principal angles) from np.linalg.svd.
    An angle above pi/4 is the arccos of a cosine, one below it the arcsin
    of a sine, so that neither loses digits (as in Knyazev & Argentati
    2002)."""
    m = qa.T @ qb
    cos = np.linalg.svd(m, compute_uv=False)  # angles ascending
    sin = np.linalg.svd(qb - qa @ m, compute_uv=False)[::-1]
    angles = np.where(
        cos * cos < 0.5, np.arccos(np.minimum(cos, 1.0)), np.arcsin(np.minimum(sin, 1.0))
    )
    return float(np.sqrt(np.sum(angles * angles)))


def polar(scale, phi):
    return np.array([scale * np.cos(phi), scale * np.sin(phi)])


EMBEDDINGS = st.builds(
    polar, st.floats(-3.0, 3.0).map(lambda e: 10.0**e), st.floats(-np.pi, np.pi)
)


class TestLift:
    def test_degenerate_point_falls_back(self):
        # an embedding within 1e-10 of the origin stands for e1
        assert r_g(np.zeros(2), [3.0, 0.0]) == 0.0
        assert r_g([1e-11, -2e-11], [0.0, 2.0]) == np.pi / 2


class TestGrassmannDistance:
    @settings(max_examples=300, deadline=None)
    @given(EMBEDDINGS, EMBEDDINGS)
    def test_matches_svd_of_lifted_bases(self, z0, z):
        want = svd_grassmann_distance(lifted_basis(z0), lifted_basis(z))
        assert abs(r_g(z0, z) - want) <= 1e-11

    def test_identical_subspaces(self):
        rng = np.random.default_rng(8)
        for z in [np.array([0.3, -1.2])] + list(rng.normal(size=(200, 2))):
            assert r_g(z, z) == 0.0

    def test_opposite_points_share_a_line(self):
        rng = np.random.default_rng(7)
        for z in rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1)):
            assert r_g(z, -z) == 0.0

    def test_orthogonal_planes_quarter_turn(self):
        assert r_g([1.0, 0.0], [0.0, 1.0]) == np.pi / 2
        assert r_g([-2.5, 0.0], [0.0, 1e-3]) == np.pi / 2

    @pytest.mark.parametrize("theta", [10.0**-k for k in range(2, 11)])
    def test_small_rotation_reads_its_angle(self, theta):
        # the arccos of a cosine near 1 reads a 1e-8 turn as 2.98e-8
        rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        rng = np.random.default_rng(6)
        for z in rng.normal(size=(20, 2)):
            assert abs(r_g(z, rotation @ z) - theta) <= 1e-15

    def test_metric_axioms_on_sampled_triples(self):
        rng = np.random.default_rng(9)
        points = list(rng.normal(size=(30, 2)))
        for _ in range(1000):
            i, j, k = rng.integers(0, len(points), size=3)
            a, b, c = points[i], points[j], points[k]
            dab = r_g(a, b)
            assert dab == r_g(b, a)  # exact symmetry
            assert dab <= r_g(a, c) + r_g(c, b) + 1e-12
            assert 0.0 <= dab <= np.pi / 2  # shared e3 kills one angle


class TestTrajectorySeries:
    def test_constant_states(self):
        rng = np.random.default_rng(10)
        base = rng.normal(size=(12, 3))  # fit on varied states
        model = pca_fit(base)
        series = trajectory_series(model, np.tile(base[0], (5, 1)))
        assert all(p.r_g == 0.0 and p.r_e == 0.0 for p in series)

    def test_two_point_euclidean(self):
        series = trajectory_series(IDENTITY, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        assert series[0].r_e == 0.0
        assert abs(series[1].r_e - 1.0) < 1e-12

    def test_loop_returns_to_start(self):
        rng = np.random.default_rng(11)
        ts = np.linspace(0, 2 * np.pi, 9)
        loop = np.column_stack([np.cos(ts), np.sin(ts), 0.2 * np.cos(2 * ts)])
        model = pca_fit(loop)
        series = trajectory_series(model, loop)
        assert series[-1].r_e < 1e-10
        assert series[-1].r_g < 1e-14

    def test_needs_two_snapshots(self):
        model = pca_fit(np.random.default_rng(12).normal(size=(5, 3)))
        with pytest.raises(ValidationError):
            trajectory_series(model, np.zeros((1, 3)))

