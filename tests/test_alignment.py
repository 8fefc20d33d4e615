import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from growformer.alignment import (
    noc,
    perf_gain,
    percent_shift,
    radial_energy,
    snapshot_alignment,
    u_p_score,
)
from growformer.errors import ValidationError
from growformer.experiment import analyze_snapshot_series
from growformer.growth import GrowthPlan, grow_model
from growformer.model import ModelConfig, heldout_loss, init_params
from growformer.rng import RngState, seeded_gaussian, seeded_ints

from refdata import GROWTH_PATH_TRAJECTORIES


class TestNoc:
    def test_identical_samples(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=5000)
        assert noc(v, v.copy()) == 1.0

    def test_disjoint_supports(self):
        assert noc(np.zeros(100), np.ones(100)) == 0.0

    def test_gaussian_shift_matches_analytic_overlap(self):
        # overlap of N(0,1) and N(1,1) is 2*Phi(-1/2)
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, 100_000)
        b = rng.normal(1.0, 1.0, 100_000)
        analytic = 2 * ndtr(-0.5)
        assert abs(noc(a, b) - analytic) < 0.01

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=3000)
        b = rng.normal(1.0, 2.0, size=4000)
        ab = noc(a, b)
        assert ab == noc(b, a)
        assert 0.0 <= ab <= 1.0

    def test_degenerate_equal_constants(self):
        assert noc(np.full(10, 2.0), np.full(7, 2.0)) == 1.0

    def test_distinct_constants(self):
        assert noc(np.full(10, 1.0), np.full(7, 3.0)) == 0.0


class TestUPScore:
    def test_extreme_separation(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=1000)
        shifted = rng.normal(size=1000) + 5 * base.std()
        assert u_p_score(shifted, base) < 1e-6

    def test_null_p_values_uniform(self):
        # 200 seeded trials, Kolmogorov-Smirnov against U(0,1) at alpha=0.01
        rng = np.random.default_rng(9)
        ps = []
        for _ in range(200):
            ps.append(u_p_score(rng.normal(size=50), rng.normal(size=50)))
        ps = np.sort(ps)
        grid = np.arange(1, 201) / 200
        d = max(np.abs(ps - grid).max(), np.abs(ps - (grid - 1 / 200)).max())
        assert d < 1.628 / np.sqrt(200)

    def test_small_samples_rejected(self):
        with pytest.raises(ValidationError):
            u_p_score(np.array([1.0]), np.array([2.0, 3.0]))


class TestShiftAndRadius:
    def test_recorded_run_shift_values(self):
        assert abs(percent_shift(0.8608, 0.8152) - 0.055937) < 1e-6
        assert abs(percent_shift(0.7888, 0.7752) - 0.017544) < 1e-6

    def test_identity(self):
        assert percent_shift(0.5, 0.5) == 0.0

    def test_zero_initial_rejected(self):
        with pytest.raises(ValidationError):
            percent_shift(1.0, 0.0)

    def test_radius_zero_at_origin(self):
        assert radial_energy(0.0, 0.0) == 0.0

    def test_radius_matches_recorded_values(self):
        # every recorded r follows from its row's u_p and noc against the
        # 0-budget row: 3 paths x 11 budgets
        for path in GROWTH_PATH_TRAJECTORIES.values():
            for u_p, nc, r in zip(path["u_p"], path["noc"], path["r"], strict=True):
                up_pct = percent_shift(u_p, path["u_p"][0])
                noc_pct = percent_shift(nc, path["noc"][0])
                assert abs(radial_energy(up_pct, noc_pct) - r) < 1e-9

    @settings(max_examples=50)
    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_radial_identity_property(self, a, b):
        r = radial_energy(a, b)
        assert abs(r * r - (a * a + b * b)) <= 1e-12 * max(1.0, a * a + b * b)


class TestPerfGain:
    def test_recorded_benchmark_gain(self):
        assert abs(perf_gain(44.842, 42.638) - 0.05169) < 1e-4

    def test_identity(self):
        assert perf_gain(3.3, 3.3) == 0.0

    def test_negated_loss_proxy_signs(self):
        # held-out loss dropping 2.0 -> 1.8 with perf = -loss is a +10% gain
        assert abs(perf_gain(-1.8, -2.0) - 0.10) < 1e-12

    def test_zero_baseline(self):
        with pytest.raises(ValidationError):
            perf_gain(1.0, 0.0)


BASE = ModelConfig(
    vocab_size=32, context_len=12, hidden_size=8, n_heads=2, n_layers=1,
    ladder_m=12, ladder_a=16, ffn_size=16,
)


def heldout(seed=40, count=4):
    return [seeded_ints(RngState(seed + i), 12, 32) for i in range(count)]


def loss_of(config, params):
    return heldout_loss(config, params, heldout())


class TestSnapshotAlignment:
    def test_self_comparison(self):
        params = init_params(BASE, seed=1)
        assert snapshot_alignment(params, BASE, params, BASE) == (1.0, 1.0)

    def test_noc_decreases_with_growth_size(self):
        params = init_params(BASE, seed=2)
        nocs = []
        for dm, da in ((2, 2), (6, 8), (12, 16)):
            grown, cfg, _ = grow_model(params, BASE, GrowthPlan(dm, da, "strict-zero", 3))
            _, noc_val = snapshot_alignment(params, BASE, grown, cfg)
            assert noc_val < 1.0
            nocs.append(noc_val)
        assert nocs[0] > nocs[1] > nocs[2]

    def test_deterministic_replay(self):
        params = init_params(BASE, seed=4)
        grown, cfg, _ = grow_model(params, BASE, GrowthPlan(3, 3, "noise:0.1", 5))
        assert snapshot_alignment(params, BASE, grown, cfg) == snapshot_alignment(
            params, BASE, grown, cfg
        )

    def test_reference_shifts(self):
        # the series completes each record against its first snapshot
        params = init_params(BASE, seed=6)
        series = [grow_model(params, BASE, GrowthPlan(3, 3, "noise:0.2", seed))[:2]
                  for seed in (7, 8)]
        weights = [(5 * i, *snapshot_alignment(params, BASE, grown, cfg))
                   for i, (grown, cfg) in enumerate(series)]
        losses = [loss_of(cfg, grown) for grown, cfg in series]
        snapshots, _, _ = analyze_snapshot_series(weights, losses)
        first, snap = snapshots
        assert first.up_pct == first.noc_pct == first.perf_pct == first.r == 0.0
        assert (snap.tokens, snap.u_p, snap.noc, snap.loss) == (5, *weights[1][1:], losses[1])
        assert snap.up_pct == percent_shift(snap.u_p, first.u_p)
        assert snap.noc_pct == percent_shift(snap.noc, first.noc)
        assert snap.perf_pct == perf_gain(-snap.loss, -first.loss) != 0.0
        assert snap.r == radial_energy(snap.up_pct, snap.noc_pct)
        assert abs(snap.ppl - math.exp(snap.loss)) < 1e-12 * snap.ppl

    def test_dim_mismatch(self):
        params = init_params(BASE, seed=1)
        smaller = ModelConfig(32, 12, 8, 2, 1, 10, 14, 16)
        s_params = init_params(smaller, seed=1)
        with pytest.raises(ValidationError, match="ladder_m mismatch between models"):
            snapshot_alignment(params, BASE, s_params, smaller)


class TestSubsampling:
    def test_large_population_subsampled_deterministically(self):
        big = seeded_gaussian(RngState(10), 1, 150_000).ravel()
        # subsampling happens in the snapshot assembly path; check the
        # underlying helper directly
        from growformer.rng import subsample

        a = subsample(RngState(3), big, 100_000)
        b = subsample(RngState(3), big, 100_000)
        assert a.size == 100_000
        assert np.array_equal(a, b)


def reference_u_p_score(x, y):
    """Oracle: ``u_p_score`` ranking the pooled sample by a stable argsort
    and a per-group loop that scatters each tie group's averaged rank."""
    values = np.concatenate([x, y])
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    ties = []
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        ties.append(j - i + 1)
        i = j + 1
    ties = np.asarray(ties, dtype=np.float64)
    n1, n2, n = x.size, y.size, values.size
    u1 = n1 * n2 + n1 * (n1 + 1) / 2.0 - float(ranks[:n1].sum())
    var = n1 * n2 / 12.0 * ((n + 1) - (ties**3 - ties).sum() / (n * (n - 1)))
    if var <= 0:
        return 1.0
    z = max((abs(u1 - n1 * n2 / 2.0) - 0.5) / np.sqrt(var), 0.0)
    return float(min(2.0 * ndtr(-z), 1.0))


@st.composite
def tie_heavy(draw, min_size=1):
    """Rounded normals, constant runs, or mixed signed zeros."""
    n = draw(st.integers(min_size, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["rounded", "runs", "signed-zeros"]))
    if kind == "rounded":
        return np.round(rng.normal(size=n), draw(st.integers(0, 2)))
    if kind == "runs":
        levels = np.round(rng.normal(size=draw(st.integers(1, 6))), 1)
        values = np.repeat(levels, rng.multinomial(n, np.full(levels.size, 1 / levels.size)))
        return rng.permutation(values) if draw(st.booleans()) else values
    return rng.choice(np.array([0.0, -0.0, 0.5, -0.5]), size=n)


class TestRankOracle:
    @settings(max_examples=60, deadline=None)
    @given(tie_heavy(min_size=4), st.floats(0.0, 1.0))
    def test_u_p_score_matches_loop(self, values, split):
        n1 = min(max(2, int(split * values.size)), values.size - 2)
        x, y = values[:n1], values[n1:]
        assert u_p_score(x, y) == reference_u_p_score(x, y)

    @settings(max_examples=60, deadline=None)
    @given(tie_heavy(min_size=4), st.floats(0.0, 1.0))
    def test_u_p_score_matches_scipy(self, values, split):
        # all-tied samples included: both give 1.0
        from scipy.stats import mannwhitneyu  # ~1.4 s to import, so only here

        n1 = min(max(2, int(split * values.size)), values.size - 2)
        x, y = values[:n1], values[n1:]
        expected = mannwhitneyu(
            x, y, alternative="two-sided", method="asymptotic", use_continuity=True
        ).pvalue
        assert u_p_score(x, y) == expected

    def test_signed_zeros_share_one_group(self):
        x, y = np.array([0.0, -0.0, 1.0]), np.array([-0.0, 2.0, 0.0, -1.0])
        p = u_p_score(x, y)
        assert p == reference_u_p_score(x, y)
        assert p == u_p_score(x + 0.0, y + 0.0)  # -0.0 + 0.0 is +0.0

    def test_workload_sized_population_matches_loop(self):
        # new-block and base sample sizes of one TOY_CONFIG snapshot: an
        # all-zero new sample against a rounded base that holds zeros too
        x = np.zeros(73_728)
        y = np.round(np.random.default_rng(11).normal(size=100_000), 2)
        assert (y == 0).any()
        assert u_p_score(x, y) == reference_u_p_score(x, y)
