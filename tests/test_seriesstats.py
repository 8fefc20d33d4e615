from dataclasses import asdict

import numpy as np
import pytest

from growformer.errors import ValidationError
from growformer.seriesstats import (
    fisher_g_p_value,
    fisher_g_test,
    harmonic_fit,
    ols_linear,
    scaling_law_fit,
)

from oracles import harmonic_fit_with_trend
from refdata import (
    GROWTH_PATH_BUDGETS_B,
    GROWTH_PATH_TRAJECTORIES,
    REPORTED_FISHER_G,
    REPORTED_HARMONIC,
)

ZERO_R = GROWTH_PATH_TRAJECTORIES["zero"]["r"]
BUDGETS = [float(b) for b in GROWTH_PATH_BUDGETS_B]


class TestOlsLinear:
    def test_exact_line(self):
        x = np.arange(10.0)
        slope, intercept, r2 = ols_linear(x, 2 * x + 1)
        assert abs(slope - 2) < 1e-12 and abs(intercept - 1) < 1e-12 and r2 == 1.0

    def test_constant_y(self):
        slope, intercept, r2 = ols_linear(np.arange(5.0), np.full(5, 3.0))
        assert slope == 0.0 and r2 == 0.0

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        design = np.column_stack([x, np.ones(40)])
        ref = np.linalg.solve(design.T @ design, design.T @ y)
        slope, intercept, _ = ols_linear(x, y)
        assert abs(slope - ref[0]) < 1e-10 and abs(intercept - ref[1]) < 1e-10

    def test_zero_variance(self):
        with pytest.raises(ValidationError):
            ols_linear(np.ones(5), np.arange(5.0))


class TestHarmonicFit:
    def test_planted_noiseless_signal(self):
        t = np.arange(0.0, 31.0, 3.0)
        v = 1.0 + 0.3 * np.cos(2 * np.pi * t / 11.0)
        fit = harmonic_fit(t, v)
        assert set(asdict(fit)) == {"a0", "a1", "freq", "phase", "r_squared"}
        span = t[-1] - t[0]
        grid_step = (1 / 6 - 1 / (2 * span)) / 511
        assert abs(fit.freq - 1 / 11) <= grid_step
        assert fit.r_squared > 0.999
        assert abs(fit.a0 - 1.0) < 0.01
        assert abs(fit.a1 - 0.3) < 0.01

    def test_constant_values_degenerate(self):
        with pytest.raises(ValidationError, match="zero variance"):
            harmonic_fit(np.arange(6.0), np.full(6, 2.0))

    def test_offset_invariance(self):
        t = np.arange(0.0, 31.0, 3.0)
        v = np.asarray(ZERO_R)
        a = harmonic_fit(t, v)
        b = harmonic_fit(t, v + 5.0)
        assert abs(a.r_squared - b.r_squared) < 1e-9
        assert abs(a.freq - b.freq) < 1e-12
        assert abs((b.a0 - a.a0) - 5.0) < 1e-9

    def test_recorded_series_with_trend_matches_reported_r2(self):
        # the recorded R^2 is matched only with a linear trend regressor,
        # which the pipeline's harmonic_fit does not fit
        r2, freq = harmonic_fit_with_trend(BUDGETS, ZERO_R)
        assert abs(r2 - REPORTED_HARMONIC["r_squared"]) <= 0.05
        # dominant period close to the reported ~11-budget-unit cycle
        assert 9.0 < 1 / freq < 12.0

    def test_trend_oracle_nests_the_pipeline_fit(self):
        # on the same grid, the trend fit's design holds harmonic_fit's, so
        # its best R^2 can only be higher
        rng = np.random.default_rng(5)
        for values in [ZERO_R, *rng.normal(size=(5, len(BUDGETS)))]:
            r2, _ = harmonic_fit_with_trend(BUDGETS, values)
            assert r2 >= harmonic_fit(BUDGETS, values).r_squared - 1e-12

    def test_too_few_points(self):
        # one more observation than coefficients: a0, cos, sin
        with pytest.raises(ValidationError, match="at least 4"):
            harmonic_fit(np.arange(3.0), [1.0, 2.0, 1.0])

    def test_non_increasing_times(self):
        with pytest.raises(ValidationError):
            harmonic_fit([0.0, 2.0, 1.0, 3.0], [1.0, 2.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ValidationError, match="finite"):
            harmonic_fit(times, [1.0, 2.0, bad, 0.0, 1.0, 2.0])
        with pytest.raises(ValidationError, match="finite"):
            harmonic_fit([*times[:-1], bad], [1.0, 2.0, 1.0, 0.0, 1.0, 2.0])


class TestFisherG:
    def test_exact_formula_hand_value(self):
        # m=5, x=0.5: only k=1 contributes, 5 * 0.5^4 = 0.3125
        assert abs(fisher_g_p_value(0.5, 5) - 0.3125) < 1e-15

    def test_p_is_one_at_minimum_share(self):
        for m in (3, 5, 31):
            assert fisher_g_p_value(1.0 / m, m) == 1.0

    def test_pure_sinusoid_all_power_in_one_bin(self):
        n = 64
        t = np.arange(n)
        result = fisher_g_test(np.cos(2 * np.pi * 4 * t / n))
        # the detrending line takes a sliver of the cosine and leaks it into
        # the other bins: the share is 0.99859, not 1
        assert result.g_stat > 0.998
        assert result.p_value < 1e-10
        assert result.peak_index == 4

    def test_recorded_series_anchor(self):
        # g and p match the recorded values at their 4 decimals
        result = fisher_g_test(ZERO_R)
        assert round(result.g_stat, 4) == REPORTED_FISHER_G["g_stat"]
        assert round(result.p_value, 4) == REPORTED_FISHER_G["p_value"]
        assert result.fourier_term_count == 5

    def test_exact_formula_against_monte_carlo(self):
        # null distribution of the max share of 5 exponential ordinates
        rng = np.random.default_rng(2)
        draws = rng.exponential(size=(200_000, 5))
        g = draws.max(axis=1) / draws.sum(axis=1)
        mc = float((g > 0.5).mean())
        assert abs(fisher_g_p_value(0.5, 5) - mc) < 0.005

    @pytest.mark.parametrize("n, detrend", [(64, "none"), (11, "linear")])
    def test_null_p_values_uniform(self, n, detrend):
        # "none" takes the raw periodogram share of white noise, whose null
        # the p-value formula holds exactly; (11, "linear") is fisher_g_test,
        # the case fits.json computes on its 11-snapshot r
        def p_value(x):
            if detrend == "linear":
                return fisher_g_test(x).p_value
            m = (n - 1) // 2
            spectrum = np.abs(np.fft.rfft(x)[1 : m + 1]) ** 2
            return fisher_g_p_value(spectrum.max() / spectrum.sum(), m)

        rng = np.random.default_rng(3)
        ps = np.array([p_value(rng.normal(size=n)) for _ in range(2000)])
        head = np.sort(ps[:200])
        grid = np.arange(1, 201) / 200
        d = max(np.abs(head - grid).max(), np.abs(head - (grid - 1 / 200)).max())
        assert d < 1.628 / np.sqrt(200)
        # linear detrending leaves the test slightly over-sized (shares of
        # 0.048 to 0.055 were measured), so the bound on the false-positive
        # rate is the nominal 0.05 plus three binomial standard deviations
        assert (ps < 0.05).mean() <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / ps.size)

    def test_g_at_least_inverse_m(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            res = fisher_g_test(rng.normal(size=13))
            assert res.g_stat >= 1.0 / res.fourier_term_count

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError):
            fisher_g_test([1.0, 2.0, 1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("trend", ["linear", "none"])
    def test_non_finite_rejected(self, bad, trend):
        # the series is detrended before its periodogram is taken; a bad
        # value must be refused whether or not the series carries a ramp
        series = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 3.0])
        if trend == "linear":
            series = series + 0.5 * np.arange(series.size)
        series[2] = bad
        with pytest.raises(ValidationError, match="finite"):
            fisher_g_test(series)


class TestScalingLaw:
    def test_recovers_exact_generator(self):
        slope_true, intercept_true = -0.0991, 2.4804
        rs = np.array([0.05, 0.08, 0.12, 0.2, 0.35, 0.6, 0.9, 1.4])
        ppls = np.exp(slope_true * np.abs(np.log(rs)) + intercept_true)
        fit = scaling_law_fit(list(zip(rs, ppls)))
        assert abs(fit.slope - slope_true) < 1e-9
        assert abs(fit.intercept - intercept_true) < 1e-9
        assert abs(fit.r_squared - 1.0) < 1e-9

    def test_two_points_interpolate(self):
        fit = scaling_law_fit([(0.5, 12.0), (0.1, 10.0)])
        assert abs(fit.r_squared - 1.0) < 1e-12

    def test_zero_r_excluded_and_counted(self):
        fit = scaling_law_fit([(0.0, 10.0), (0.5, 12.0), (0.25, 11.0)])
        assert fit.n_excluded == 1 and fit.n_used == 2

    def test_inversion_symmetry(self):
        # all r on one side of 1: replacing r by 1/r keeps |ln r|
        rs = [0.05, 0.1, 0.3, 0.7]
        ppls = [11.0, 10.5, 10.2, 9.9]
        a = scaling_law_fit(list(zip(rs, ppls)))
        b = scaling_law_fit([(1 / r, p) for r, p in zip(rs, ppls)])
        assert abs(a.slope - b.slope) < 1e-12
        assert abs(a.r_squared - b.r_squared) < 1e-12

    def test_all_excluded(self):
        with pytest.raises(ValidationError, match="excluded"):
            scaling_law_fit([(0.0, 10.0), (0.0, 11.0)])
        with pytest.raises(ValidationError, match=r"no \(r, ppl\) pairs given"):
            scaling_law_fit([])

    def test_bad_ppl(self):
        with pytest.raises(ValidationError):
            scaling_law_fit([(0.5, -1.0), (0.2, 3.0)])

    @pytest.mark.parametrize("pair", [(np.nan, 3.0), (0.2, np.nan), (np.inf, 3.0), (0.2, np.inf)])
    def test_non_finite_rejected(self, pair):
        with pytest.raises(ValidationError, match="finite"):
            scaling_law_fit([(0.5, 12.0), pair, (0.1, 10.0)])


class TestReportedValueConsistency:
    def test_reported_f_and_p_are_documented_not_asserted(self):
        # the recorded analysis quotes R^2=0.685 with F=5.89 at dof (2,8)
        # and p=0.035; those three are mutually inconsistent. The harness
        # reports no F of its own, so this test derives F from R^2 (see the
        # REPORTED_HARMONIC row of test_paper_claims.py)
        r2 = REPORTED_HARMONIC["r_squared"]
        f_from_r2 = (r2 / 2) / ((1 - r2) / 8)
        assert abs(f_from_r2 - REPORTED_HARMONIC["f_stat"]) > 1.0
