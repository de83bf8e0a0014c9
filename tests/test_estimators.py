from dataclasses import replace

import numpy as np
import pytest

import shrinkmean.model
from conftest import (
    backtest_loss,
    bare_population,
    estimate_of,
    generalized_inverse_s,
    limit_gram,
    rand_spd,
    sample_covariance,
    sample_with_moments,
    wang_pair_sums_naive,
)
from shrinkmean.asymptotics import bona_fide_covariance, standardize
from shrinkmean.errors import (
    DegenerateDenominatorError,
    DimensionMismatchError,
    InvalidDimensionsError,
    NonFiniteDataError,
    ScopeError,
    SingularSampleError,
)
from shrinkmean.estimators import (
    ESTIMATORS,
    NEEDS_POPULATION,
    READS_TARGET,
    bona_fide_intensities,
    evaluate,
    james_stein,
    js_high_dim,
    js_positive_part,
    limit_intensities,
    limit_weights,
    oracle_intensities,
    wang_estimator,
)
from shrinkmean.finance import BacktestConfig, ReturnsPanel, rolling_backtest
from shrinkmean.harness import (
    KS_COEFF_1PCT,
    McConfig,
    cell_population,
    cell_sample_size,
    ks_statistic,
    run_cell,
    run_study,
)
from shrinkmean.linalg import haar_orthogonal
from shrinkmean.model import sample_stats


def quad_form(sigma_inv, u, v):
    return float(u @ sigma_inv @ v)


class TestOracleIntensities:
    def test_equal_target_gives_zero_one(self, rng):
        sigma = rand_spd(rng, 4)
        mu = rng.standard_normal(4)
        y_bar = rng.standard_normal(4)
        alpha, beta = oracle_intensities(y_bar, bare_population(sigma, mu, mu))
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert beta == pytest.approx(1.0, abs=1e-12)

    def test_hand_case(self):
        alpha, beta = oracle_intensities(
            np.array([2.0, 0.0]),
            bare_population(np.eye(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        )
        assert alpha == pytest.approx(0.5)
        assert beta == pytest.approx(0.0, abs=1e-15)

    def test_matches_explicit_elimination(self, rng):
        # independent route: invert sigma directly, solve the 2x2
        # first-order system by explicit elimination
        sigma = rand_spd(rng, 5)
        mu_n = rng.standard_normal(5)
        mu_0 = rng.standard_normal(5)
        y_bar = rng.standard_normal(5)
        w = oracle_intensities(y_bar, bare_population(sigma, mu_n, mu_0))

        inv = np.linalg.inv(sigma)
        h11 = quad_form(inv, y_bar, y_bar)
        h12 = quad_form(inv, y_bar, mu_0)
        h22 = quad_form(inv, mu_0, mu_0)
        r1 = quad_form(inv, y_bar, mu_n)
        r2 = quad_form(inv, mu_n, mu_0)
        # eliminate beta from the first equation
        beta = (r2 - h12 * r1 / h11) / (h22 - h12**2 / h11)
        alpha = (r1 - h12 * beta) / h11
        assert w[0] == pytest.approx(alpha, rel=1e-10)
        assert w[1] == pytest.approx(beta, rel=1e-10)

    def test_first_order_conditions(self, rng):
        sigma = rand_spd(rng, 6)
        mu_n = rng.standard_normal(6)
        mu_0 = rng.standard_normal(6)
        y_bar = rng.standard_normal(6)
        alpha, beta = oracle_intensities(y_bar, bare_population(sigma, mu_n, mu_0))
        inv = np.linalg.inv(sigma)
        res1 = (
            alpha * quad_form(inv, y_bar, y_bar)
            + beta * quad_form(inv, y_bar, mu_0)
            - quad_form(inv, y_bar, mu_n)
        )
        res2 = (
            beta * quad_form(inv, mu_0, mu_0)
            + alpha * quad_form(inv, y_bar, mu_0)
            - quad_form(inv, mu_n, mu_0)
        )
        scale = quad_form(inv, y_bar, mu_n)
        assert abs(res1) < 1e-8 * max(1.0, abs(scale))
        assert abs(res2) < 1e-8 * max(1.0, abs(scale))

    def test_collinear_degenerate(self, rng):
        sigma = rand_spd(rng, 3)
        mu_0 = rng.standard_normal(3)
        with pytest.raises(DegenerateDenominatorError, match="collinear in the precision metric"):
            oracle_intensities(2.0 * mu_0, bare_population(sigma, rng.standard_normal(3), mu_0))

    def test_grid_optimality(self, rng):
        # oracle weights beat every (alpha, beta) on a 21x21 grid
        sigma = rand_spd(rng, 5)
        mu_n = rng.standard_normal(5)
        mu_0 = rng.standard_normal(5)
        y_bar = mu_n + 0.3 * rng.standard_normal(5)
        w = oracle_intensities(y_bar, bare_population(sigma, mu_n, mu_0))
        inv = np.linalg.inv(sigma)

        def loss(a, b):
            diff = a * y_bar + b * mu_0 - mu_n
            return quad_form(inv, diff, diff)

        best = loss(*w)
        grid = np.linspace(-1.0, 2.0, 21)
        for a in grid:
            for b in grid:
                assert best <= loss(a, b) + 1e-10

    def test_scaling_invariance(self, rng):
        sigma = rand_spd(rng, 4)
        mu_n = rng.standard_normal(4)
        mu_0 = rng.standard_normal(4)
        y_bar = rng.standard_normal(4)
        w1 = oracle_intensities(y_bar, bare_population(sigma, mu_n, mu_0))
        w2 = oracle_intensities(y_bar, bare_population(7.0 * sigma, mu_n, mu_0))
        assert w1[0] == pytest.approx(w2[0], abs=1e-10)
        assert w1[1] == pytest.approx(w2[1], abs=1e-10)


class TestLimitIntensities:
    def test_classical_limit_alpha_to_one(self, rng):
        sigma = rand_spd(rng, 5)
        mu_n = rng.standard_normal(5)
        mu_0 = rng.standard_normal(5)
        alpha, _ = limit_intensities(bare_population(sigma, mu_n, mu_0), 1e-9)
        assert alpha > 1.0 - 1e-6

    def test_orthogonal_target(self):
        alpha, beta = limit_intensities(
            bare_population(np.eye(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])), 1.0)
        assert alpha == pytest.approx(0.5)
        assert beta == pytest.approx(0.0, abs=1e-15)

    def test_equal_target(self, rng):
        sigma = rand_spd(rng, 4)
        mu = rng.standard_normal(4)
        alpha, beta = limit_intensities(bare_population(sigma, mu, mu), 0.7)
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert beta == pytest.approx(1.0, abs=1e-12)

    def test_alpha_in_unit_interval(self, rng):
        for _ in range(10):
            p = int(rng.integers(3, 10))
            sigma = rand_spd(rng, p)
            alpha, _ = limit_intensities(
                bare_population(sigma, rng.standard_normal(p), rng.standard_normal(p)),
                float(rng.uniform(0.1, 3.0)),
            )
            assert 0.0 < alpha < 1.0

    def test_beta_link_identity(self, rng):
        sigma = rand_spd(rng, 5)
        mu_n = rng.standard_normal(5)
        mu_0 = rng.standard_normal(5)
        alpha, beta = limit_intensities(bare_population(sigma, mu_n, mu_0), 0.8)
        inv = np.linalg.inv(sigma)
        link = (1.0 - alpha) * quad_form(inv, mu_n, mu_0) / quad_form(inv, mu_0, mu_0)
        assert beta == pytest.approx(link, rel=1e-10)

    def test_zero_target_degenerate(self, rng):
        with pytest.raises(DegenerateDenominatorError, match="zero precision-metric energy"):
            limit_intensities(
                bare_population(rand_spd(rng, 3), rng.standard_normal(3), np.zeros(3)), 0.5)

    def test_nonpositive_c_rejected(self, rng):
        with pytest.raises(ScopeError, match="positive and finite"):
            limit_intensities(bare_population(rand_spd(rng, 3), np.ones(3), np.ones(3)), 0.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_c_rejected(self, rng, c):
        # NaN would pass a bare "c <= 0" and give NaN weights, and inf would
        # be blamed on the target; both are the concentration's fault
        pop = bare_population(rand_spd(rng, 3), rng.standard_normal(3), rng.standard_normal(3))
        with pytest.raises(ScopeError, match="positive and finite"):
            limit_weights(pop.precision_gram(pop.mu_n, pop.mu_0), c)
        with pytest.raises(ScopeError, match="positive and finite"):
            limit_intensities(pop, c)


class TestBonaFideIntensities:
    def test_hand_case(self, rng):
        stats = sample_stats(sample_with_moments(np.array([2.0, 0.0]), np.eye(2), 4, rng))
        alpha, beta = bona_fide_intensities(stats, np.array([0.0, 1.0]))
        assert alpha == pytest.approx(0.75)
        assert beta == pytest.approx(0.0, abs=1e-15)

    def test_high_dim_matches_svd_oracle(self, rng):
        # p > n: brute-force route forms the pseudoinverse via numpy and
        # evaluates the displayed ratios directly; n >= 3 so that rank(S) =
        # n - 1 >= 2 and the 2x2 precision Gram is nonsingular
        p, n = 6, 3
        y = rng.standard_normal((p, n)) + 0.5
        stats = sample_stats(y)
        mu_0 = rng.standard_normal(p)
        w = bona_fide_intensities(stats, mu_0)

        s_pinv = np.linalg.pinv(sample_covariance(y))
        a_yy = quad_form(s_pinv, stats.y_bar, stats.y_bar)
        a_y0 = quad_form(s_pinv, stats.y_bar, mu_0)
        a_00 = quad_form(s_pinv, mu_0, mu_0)
        corr = 1.0 / (p / n - 1.0)
        alpha = ((a_yy - corr) * a_00 - a_y0**2) / (a_yy * a_00 - a_y0**2)
        beta = (1.0 - alpha) * a_y0 / a_00
        assert w[0] == pytest.approx(alpha, rel=1e-8)
        assert w[1] == pytest.approx(beta, rel=1e-8)

    def test_low_dim_matches_direct_inverse(self, rng):
        y = rng.standard_normal((3, 12)) + 1.0
        stats = sample_stats(y)
        mu_0 = np.ones(3)
        w = bona_fide_intensities(stats, mu_0)
        s_inv = np.linalg.inv(sample_covariance(y))
        a_yy = quad_form(s_inv, stats.y_bar, stats.y_bar)
        a_y0 = quad_form(s_inv, stats.y_bar, mu_0)
        a_00 = quad_form(s_inv, mu_0, mu_0)
        corr = 3 / (12 - 3)
        alpha = ((a_yy - corr) * a_00 - a_y0**2) / (a_yy * a_00 - a_y0**2)
        assert w[0] == pytest.approx(alpha, rel=1e-8)

    def test_equal_dimensions_rejected(self, rng):
        stats = sample_stats(rng.standard_normal((4, 4)))
        with pytest.raises(InvalidDimensionsError, match="undefined at p == n"):
            bona_fide_intensities(stats, np.ones(4))

    def test_singular_sample_rejected(self):
        # constant columns: zero sample covariance although p < n
        y = np.tile(np.array([1.0, 2.0])[:, None], (1, 5))
        with pytest.raises(SingularSampleError):
            bona_fide_intensities(sample_stats(y), np.ones(2))

    @pytest.mark.parametrize("p, n", [(4, 20), (20, 4)])
    def test_nan_sample_rejected(self, rng, p, n):
        # one NaN observation is rejected as such before any estimate is made
        y = rng.standard_normal((p, n))
        y[1, 2] = np.nan
        with pytest.raises(NonFiniteDataError):
            bona_fide_intensities(sample_stats(y), np.ones(p))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("p, n", [(5, 20), (12, 6)])
    def test_non_finite_target_rejected(self, rng, p, n, bad):
        # rejected before it is whitened: not NaN weights, nor above p = n a
        # RuntimeWarning from the product with the reflected sample
        mu_0 = rng.standard_normal(p)
        mu_0[1] = bad
        with pytest.raises(NonFiniteDataError):
            bona_fide_intensities(sample_stats(rng.standard_normal((p, n)) + 0.5), mu_0)

    @pytest.mark.parametrize("p, n", [(5, 20), (12, 6)])
    def test_target_length_must_equal_p(self, rng, p, n):
        with pytest.raises(DimensionMismatchError):
            bona_fide_intensities(sample_stats(rng.standard_normal((p, n))), np.ones(p + 1))

    @pytest.mark.parametrize("p, n", [(5, 20), (12, 6)])
    def test_target_outside_scatter_range_degenerate(self, rng, p, n):
        # mu_0'Q mu_0 = 0: a zero target, and above p = n a target orthogonal
        # to every centered observation, which S^+ maps to zero
        e = rng.standard_normal((p, n))
        e -= e.mean(axis=1, keepdims=True)
        targets = [np.zeros(p)]
        if p > n:
            m = rng.standard_normal(p)
            e -= np.outer(m, m @ e) / (m @ m)
            targets.append(m)
        stats = sample_stats(e + 0.5)
        for mu_0 in targets:
            with pytest.raises(DegenerateDenominatorError, match="outside the scatter range"):
                bona_fide_intensities(stats, mu_0)

    def test_high_dim_needs_rank_two(self, rng):
        # n = 2 < 3: rank(S) = n - 1 = 1 makes the 2x2 precision Gram singular
        stats = sample_stats(rng.standard_normal((4, 2)) + 0.5)
        assert stats.factorization.cholesky.dim == 1
        with pytest.raises(InvalidDimensionsError):
            bona_fide_intensities(stats, rng.standard_normal(4))

    def test_alpha_may_be_negative(self, rng):
        # the raw weights are returned unclipped
        stats = sample_stats(sample_with_moments(np.array([0.1, 0.0]), np.eye(2), 4, rng))
        assert bona_fide_intensities(stats, np.array([0.0, 1.0]))[0] < 0

    def test_consistency_large_sample(self):
        # sqrt(n) (alpha_hat - alpha_limit, beta_hat - beta_limit) is
        # asymptotically normal with the covariance of bona_fide_covariance
        # (c < 1), so each weight, standardized at that sqrt(n) scale, must
        # pass the 1% KS test against N(0, 1) that the qq command makes.  A
        # fixed bound on mean |alpha_hat - alpha_limit| does not fit n = 500:
        # the CLT itself puts it near sqrt(2/pi) * sd(alpha_hat) = 0.08.
        p, c = 250, 0.5
        cfg = McConfig(p_grid=(p,), c_grid=(c,), gamma=0.0, n_reps=200,
                       estimators=("olse",), seed=56)
        cell = run_study(cfg).cells[0]
        pop = cell_population(cfg, p, c)
        n = cell_sample_size(p, c)
        lw = limit_intensities(pop, p / n)
        cov = bona_fide_covariance(limit_gram(pop), p / n)
        weights = cell.weights["olse"]
        assert np.isfinite(weights).all()
        critical = KS_COEFF_1PCT / np.sqrt(len(weights))
        for column, center in enumerate(lw):
            z = standardize(weights[:, column], center, cov[column, column], np.sqrt(n))
            assert ks_statistic(z) < critical


@pytest.mark.parametrize("scale", [1e-100, 1e100])
class TestTargetScaleInvariance:
    """mu_0 -> s mu_0 leaves alpha and s * beta unchanged, so no degeneracy
    check may depend on the scale of the target."""

    @staticmethod
    def assert_invariant(weights, scale):
        (base_alpha, base_beta), (alpha, beta) = weights(1.0), weights(scale)
        assert abs(alpha - base_alpha) <= 1e-12 * abs(base_alpha)
        assert abs(scale * beta - base_beta) <= 1e-12 * abs(base_beta)

    def test_oracle(self, rng, scale):
        sigma = rand_spd(rng, 5)
        mu_n, mu_0, y_bar = rng.standard_normal((3, 5))
        self.assert_invariant(
            lambda s: oracle_intensities(y_bar, bare_population(sigma, mu_n, s * mu_0)), scale)

    def test_limit(self, rng, scale):
        sigma = rand_spd(rng, 5)
        mu_n, mu_0 = rng.standard_normal((2, 5))
        self.assert_invariant(
            lambda s: limit_intensities(bare_population(sigma, mu_n, s * mu_0), 0.7), scale)

    @pytest.mark.parametrize("p, n", [(5, 20), (20, 5)])
    def test_bona_fide(self, rng, scale, p, n):
        stats = sample_stats(rng.standard_normal((p, n)) + 0.5)
        mu_0 = rng.standard_normal(p)
        self.assert_invariant(lambda s: bona_fide_intensities(stats, s * mu_0), scale)


class TestOlse:
    def test_recomposition(self, rng):
        y = rng.standard_normal((3, 9)) + 0.4
        stats = sample_stats(y)
        mu_0 = rng.standard_normal(3)
        alpha, beta = bona_fide_intensities(stats, mu_0)
        est, coefficients = evaluate("olse", stats, mu_0)
        assert coefficients == (alpha, beta, 0.0, 0.0)
        assert np.allclose(est, alpha * stats.y_bar + beta * mu_0)

    def test_hand_composition(self, rng):
        stats = sample_stats(sample_with_moments(np.array([2.0, 0.0]), np.eye(2), 4, rng))
        est, _ = evaluate("olse", stats, np.array([0.0, 1.0]))
        assert np.allclose(est, [1.5, 0.0])

    def test_table_entry_serves_both_harnesses(self, monkeypatch, rng):
        # coefficients (1, 0, 0, 0) make an entry the sample mean: one table
        # entry is all a Monte Carlo study and a backtest need to score it
        monkeypatch.setitem(ESTIMATORS, "unit-weights",
                            lambda stats, mu_0, pop: (1.0, 0.0, 0.0, 0.0))
        names = ("sample-mean", "unit-weights")
        study = run_study(McConfig(p_grid=(12,), c_grid=(0.5, 2.0), n_reps=5,
                                   estimators=names, seed=3))
        for cell in study.cells:
            assert np.array_equal(cell.losses["unit-weights"], cell.losses["sample-mean"])
        panel = ReturnsPanel(values=0.01 * rng.standard_normal((30, 12)))
        report = rolling_backtest(panel, BacktestConfig(windows=(6, 20), estimators=names))
        for row in report.rows:
            assert row.failures == 0
            assert row.loss_x1e4 == backtest_loss(report, row.window_n, "sample-mean", row.target)

    def test_unit_weights_reduce_to_sample_mean(self):
        # a sample where the weights come out at (1, 0) reproduces y_bar:
        # compose explicitly with forced weights
        y_bar = np.array([1.0, 2.0])
        mu_0 = np.array([0.0, 1.0])
        assert np.allclose(1.0 * y_bar + 0.0 * mu_0, y_bar)


def _stats_with(y_bar, scatter, n, rng):
    """Statistics of a sample with mean y_bar and scatter matrix n * s."""
    return sample_stats(sample_with_moments(y_bar, np.asarray(scatter) / n, n, rng))


class TestJamesStein:
    def test_hand_factor(self, rng):
        # quadratic form 1 at p=3, n=10 gives factor 1 - (1/4)/1
        y_bar = np.array([1.0, 0.0, 0.0])
        est = estimate_of("js", _stats_with(y_bar, np.eye(3), 10, rng))
        assert np.allclose(est, 0.75 * y_bar)

    def test_no_shrinkage_limit(self, rng):
        p, n = 3, 10
        target_quad = 1e4 * (p - 2) / (n - p - 3)
        y_bar = np.array([np.sqrt(target_quad), 0.0, 0.0])
        est = estimate_of("js", _stats_with(y_bar, np.eye(p), n, rng))
        factor = est[0] / y_bar[0]
        assert factor > 0.999

    def test_parallel_to_sample_mean(self, rng):
        scatter = rand_spd(rng, 5) * 30
        y_bar = rng.standard_normal(5)
        est = estimate_of("js", _stats_with(y_bar, scatter, 30, rng))
        cross = np.outer(est, y_bar) - np.outer(y_bar, est)
        assert np.max(np.abs(cross)) < 1e-12

    def test_direct_formula(self, rng):
        scatter = rand_spd(rng, 5) * 30
        y_bar = rng.standard_normal(5)
        est = estimate_of("js", _stats_with(y_bar, scatter, 30, rng))
        quad = float(y_bar @ np.linalg.inv(scatter) @ y_bar)
        expected = (1.0 - (3.0 / 22.0) / quad) * y_bar
        assert np.allclose(est, expected, rtol=1e-9)

    def test_dimension_guards(self, rng):
        with pytest.raises(InvalidDimensionsError):
            james_stein(_stats_with(np.ones(3), np.eye(3), 6, rng))  # n < p + 4
        with pytest.raises(InvalidDimensionsError):
            james_stein(_stats_with(np.ones(2), np.eye(2), 10, rng))  # p < 3


def _high_dim_sample(rng, p, n):
    y = rng.standard_normal((p, n)) + 0.3
    stats = sample_stats(y)
    return y, stats, n * sample_covariance(y)


class TestJsHighDim:
    def test_orthogonal_component_unchanged(self, rng):
        _, stats, scatter = _high_dim_sample(rng, 8, 4)
        proj = scatter @ np.linalg.pinv(scatter)
        est = estimate_of("js-high-dim", stats)
        out_of_range = (np.eye(8) - proj) @ stats.y_bar
        assert np.allclose((np.eye(8) - proj) @ est, out_of_range, atol=1e-10)

    def test_range_component_shrunk_uniformly(self, rng):
        _, stats, scatter = _high_dim_sample(rng, 8, 4)
        proj = scatter @ np.linalg.pinv(scatter)
        est = estimate_of("js-high-dim", stats)
        quad = float(stats.y_bar @ np.linalg.pinv(scatter) @ stats.y_bar)
        a = 2 * (4 - 2) / (8 - 4 + 3)
        expected_range = (1 - a / quad) * (proj @ stats.y_bar)
        assert np.allclose(proj @ est, expected_range, atol=1e-10)

    def test_matches_brute_force(self, rng):
        _, stats, scatter = _high_dim_sample(rng, 8, 4)
        est = estimate_of("js-high-dim", stats)
        pinv = np.linalg.pinv(scatter)
        quad = float(stats.y_bar @ pinv @ stats.y_bar)
        a = 2 * (4 - 2) / (8 - 4 + 3)
        expected = (np.eye(8) - a * (scatter @ pinv) / quad) @ stats.y_bar
        assert np.allclose(est, expected, atol=1e-10)

    def test_requires_p_above_n(self, rng):
        with pytest.raises(InvalidDimensionsError):
            js_high_dim(_stats_with(np.ones(3), np.eye(3), 5, rng))

    def test_mean_outside_scatter_range_degenerate_at_benchmark_shape(self, rng):
        # rows centered and orthogonal to m: y_bar = m lies outside the range
        # of S, and its rounding energy stays below the trace(S)-relative floor
        m = rng.standard_normal(250)
        e = rng.standard_normal((250, 125))
        e -= e.mean(axis=1, keepdims=True)
        e -= np.outer(m, m @ e) / (m @ m)
        for k in (1e-6, 1.0, 1e6):
            stats = sample_stats(k * (m[:, None] + e))
            for estimator in (js_high_dim, js_positive_part):
                with pytest.raises(DegenerateDenominatorError):
                    estimator(stats)


class TestJsPositivePart:
    def test_clamp_active(self, rng):
        _, stats, scatter = _high_dim_sample(rng, 10, 5)
        pinv = np.linalg.pinv(scatter)
        # shrink y_bar so the quadratic form drops below the threshold
        thresh = (5 - 2) / (10 - 5 + 3)
        quad = float(stats.y_bar @ pinv @ stats.y_bar)
        y_small = stats.y_bar * np.sqrt(0.5 * thresh / quad)
        est = estimate_of("js-positive-part", _stats_with(y_small, scatter, 5, rng))
        proj = scatter @ pinv
        assert np.allclose(est, y_small + proj @ y_small, atol=1e-10)

    def test_conventional_form_tends_to_sample_mean(self, rng):
        _, stats, scatter = _high_dim_sample(rng, 10, 5)
        # very large quadratic form: clamped factor -> 1, conventional
        # decomposition recombines to the sample mean
        y_large = stats.y_bar * 1e4
        est = estimate_of("js-positive-part-conventional", _stats_with(y_large, scatter, 5, rng))
        assert np.linalg.norm(est - y_large) / np.linalg.norm(y_large) < 1e-6

    def test_both_flags_match_brute_force(self, rng):
        _, stats, scatter = _high_dim_sample(rng, 10, 5)
        pinv = np.linalg.pinv(scatter)
        proj = scatter @ pinv
        quad = float(stats.y_bar @ pinv @ stats.y_bar)
        clamped = max(0.0, 1.0 - ((5 - 2) / (10 - 5 + 3)) / quad)
        printed = (np.eye(10) + proj) @ stats.y_bar + clamped * (proj @ stats.y_bar)
        conventional = (np.eye(10) - proj) @ stats.y_bar + clamped * (proj @ stats.y_bar)
        assert np.allclose(
            estimate_of("js-positive-part", stats),
            printed, atol=1e-10,
        )
        assert np.allclose(
            estimate_of("js-positive-part-conventional", stats),
            conventional, atol=1e-10,
        )


def _wang_sums(y, stats):
    """z1..z4 from the literal double sums over the whitened observations
    g = whiten([y, 1]) / sqrt(n), for which g_i'g_j = y_i' S^+ y_j / n."""
    p, n = stats.p, stats.n
    white = stats.whiten(np.column_stack([y, np.ones(p)])) / np.sqrt(n)
    g, h = white[:, :-1], white[:, -1]
    ones_w_y = g.T @ h
    off_yy, diag_yy, off_11 = wang_pair_sums_naive(g, g, ones_w_y)
    return np.array([off_yy / (p * (n - 1.0)),
                     (diag_yy - off_yy / (n - 1.0)) / (n * p),
                     ones_w_y.sum() / (n * (h @ h)),
                     off_11 / (p * (n - 1.0) * (h @ h))])


class TestWangEstimator:
    @pytest.mark.parametrize("p, n", [(12, 6), (60, 10), (250, 125)])
    def test_closed_form_equals_double_sums(self, rng, p, n):
        # the closed form of wang_estimator's docstring, in the 2x2 precision
        # Gram of (y_bar, 1), against the literal pair sums; the estimate
        # built from the literal sums is the wang entry's to the same digits
        y = rng.standard_normal((p, n)) + 0.2
        stats = sample_stats(y)
        gram = stats.mean_gram(np.ones(p))
        a_yy, a_y1, a_11 = gram[0, 0], gram[0, 1], gram[1, 1]
        closed = np.array([(a_yy - 1.0) / p, 1.0 / p, a_y1 / a_11,
                           (a_y1**2 / a_11 - 1.0 / (n - 1.0)) / p])
        z1, z2, z3, z4 = literal = _wang_sums(y, stats)
        assert np.max(np.abs(closed - literal) / np.abs(literal)) <= 1e-10
        denom = z1 + z2 * z4
        expected = ((z1 - z4) / denom) * stats.y_bar + (z2 * z3 / denom) * np.ones(p)
        assert np.allclose(estimate_of("wang", stats), expected, rtol=1e-10, atol=0)

    def test_whitens_two_columns_whatever_n(self, monkeypatch, rng):
        # y_bar and 1, never the n observations: y_bar when the sample is
        # factored, then 1, each as one column of one solve against G
        widths = []
        solve = shrinkmean.model.spd_solve

        def recording(factor, b):
            widths.append(np.shape(b)[1] if np.ndim(b) == 2 else 1)
            return solve(factor, b)

        monkeypatch.setattr(shrinkmean.model, "spd_solve", recording)
        for n in (3, 10, 40, 125):
            widths.clear()
            wang_estimator(sample_stats(rng.standard_normal((2 * n, n)) + 0.2))
            assert widths == [1, 1]

    def test_matches_brute_force(self, rng):
        y = rng.standard_normal((9, 4)) + 0.5
        est = estimate_of("wang", sample_stats(y))

        p, n = y.shape
        y_bar = y.mean(axis=1)
        centered = y - y_bar[:, None]
        w = np.linalg.pinv(centered @ centered.T)
        ones = np.ones(p)
        z1 = sum(
            float(y[:, i] @ w @ y[:, j])
            for i in range(n) for j in range(n) if i != j
        ) / (p * (n - 1))
        diag = sum(float(y[:, k] @ w @ y[:, k]) for k in range(n))
        z2 = (diag - z1 * p * (n - 1) / (n - 1)) / (n * p)
        t1 = float(ones @ w @ ones)
        z3 = sum(float(ones @ w @ y[:, k]) for k in range(n)) / (n * t1)
        z4 = sum(
            float(ones @ w @ y[:, i]) * float(y[:, j] @ w @ ones)
            for i in range(n) for j in range(n) if i != j
        ) / (p * (n - 1) * t1)
        expected = ((z1 - z4) / (z1 + z2 * z4)) * y_bar + (z2 / (z1 + z2 * z4)) * z3 * ones
        assert np.allclose(est, expected, rtol=1e-9)

    def test_constant_columns_degenerate(self):
        # S = 0 has rank 0 < n - 1, so the sample's factorization refuses it
        y = np.tile(np.array([1.0, 2.0, 3.0])[:, None], (1, 2))
        with pytest.raises(SingularSampleError):
            wang_estimator(sample_stats(y))

    def test_ones_outside_scatter_range_degenerate(self, rng):
        # every centered observation sums to zero, so 1 is orthogonal to the
        # range of S, 1'S^+1 = 0 and the z3, z4 ratios are undefined.  The
        # floor divides by trace(S), up to n - 1 times lam_max(S); at 250 x 125
        # the rounding energy 1'S^+1 is still ~1e-28 |1|^2/trace(S), far
        # below the 1e-12 floor, at every data scale
        for p, n in ((8, 4), (250, 125)):
            e = rng.standard_normal((p, n))
            y = 0.5 + e - e.mean(axis=0)
            for k in (1e-6, 1.0, 1e6):
                with pytest.raises(DegenerateDenominatorError):
                    wang_estimator(sample_stats(k * y))

    def test_requires_p_above_n(self, rng):
        with pytest.raises(InvalidDimensionsError):
            wang_estimator(sample_stats(rng.standard_normal((3, 5))))

    @pytest.mark.parametrize("k", [1e-6, 1.0, 1e6])
    def test_vanishing_denominator_degenerate(self, rng, k):
        # the mean t v whose Gram (t^2 A, t B, C) solves z1 + z2 z4 = 0:
        # t^2 (A + B^2 / (C p)) = 1 + 1 / (p (n - 1)); a mean 1% longer
        # leaves the denominator well clear of the floor
        p, n = 12, 6
        e = rng.standard_normal((p, n))
        e -= e.mean(axis=1, keepdims=True)
        v = rng.standard_normal(p)
        (a, b), (_, c) = sample_stats(e + v[:, None]).mean_gram(np.ones(p))
        t = np.sqrt((1.0 + 1.0 / (p * (n - 1))) / (a + b**2 / (c * p)))
        with pytest.raises(DegenerateDenominatorError, match="denominator vanishes"):
            wang_estimator(sample_stats(k * (e + t * v[:, None])))
        clear = sample_stats(k * (e + 1.01 * t * v[:, None]))
        assert np.isfinite(estimate_of("wang", clear)).all()

    def test_direction_rotates_with_the_sample(self, rng):
        # S^+ forms are orthogonally equivariant, the all-ones direction is
        # not: for Q'y the estimate is Q' times that of y only when the
        # direction is Q'1 too.  None and np.ones are the same direction
        p, n = 12, 6
        y = rng.standard_normal((p, n)) + 0.5
        q = haar_orthogonal(p, rng)
        est = estimate_of("wang", sample_stats(y))
        np.testing.assert_array_equal(estimate_of("wang", sample_stats(y), np.ones(p)), est)
        rotated = sample_stats(q.T @ y)
        np.testing.assert_allclose(q @ estimate_of("wang", rotated, q.T @ np.ones(p)), est,
                                   rtol=1e-10, atol=0)
        assert not np.allclose(q @ estimate_of("wang", rotated), est, rtol=1e-3, atol=0)
        with pytest.raises(DimensionMismatchError):
            wang_estimator(rotated, np.ones(p + 1))


_BELOW_P_EQ_N = {"js"}
_ABOVE_P_EQ_N = {"js-high-dim", "js-positive-part", "js-positive-part-conventional", "wang"}
#: each OLSE entry's weight function, whose pair its first two coefficients are
_WEIGHTS = {"olse": lambda stats, pop: bona_fide_intensities(stats, pop.mu_0),
            "olse-asymptotic": lambda stats, pop: limit_intensities(pop, stats.p / stats.n),
            "olse-oracle": lambda stats, pop: oracle_intensities(stats.y_bar, pop)}


def _inline_estimate(name, stats, pop):
    """Each entry's estimate written out from its scalars, as the paper
    displays it: the reference ``evaluate`` must reproduce."""
    p, n, y_bar = stats.p, stats.n, stats.y_bar
    if name == "sample-mean":
        return y_bar
    if name in _WEIGHTS:
        alpha, beta = _WEIGHTS[name](stats, pop)
        return alpha * y_bar + beta * pop.mu_0
    if name == "wang":
        (a_yy, a_y1), (_, a_11) = stats.mean_gram(pop.ones).tolist()
        z1, z2 = (a_yy - 1.0) / p, 1.0 / p
        z3, z4 = a_y1 / a_11, (a_y1**2 / a_11 - 1.0 / (n - 1.0)) / p
        denom = z1 + z2 * z4
        return ((z1 - z4) / denom) * y_bar + (z2 * z3 / denom) * pop.ones
    white = stats.factorization.white_mean
    quad = float(white @ white) / n
    if name == "js":
        return (1.0 - ((p - 2.0) / (n - p - 3.0)) / quad) * y_bar
    proj = stats.projected_mean()
    if name == "js-high-dim":
        return y_bar - (2.0 * (n - 2.0) / (p - n + 3.0) / quad) * proj
    clamped = max(0.0, 1.0 - ((n - 2.0) / (p - n + 3.0)) / quad)
    if name == "js-positive-part":
        return (y_bar + proj) + clamped * proj  # the published (I + P) y_bar display
    return y_bar - (1.0 - clamped) * proj  # (I - P) y_bar + clamped P y_bar


class TestCoefficientProtocol:
    """Every entry of ESTIMATORS returns its four coefficients on (y_bar,
    mu_0, P y_bar, 1), and ``evaluate`` composes the estimate from them."""

    @pytest.mark.parametrize("frame", ["standard", "rotated"])
    @pytest.mark.parametrize("p, n", [(8, 20), (20, 8)])
    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_entry_returns_four_floats_that_evaluate_composes(self, rng, name, p, n, frame):
        # a rotated frame's ones is Q'1, not the all-ones vector, so Wang's
        # term must read the population's direction
        pop = bare_population(rand_spd(rng, p), rng.standard_normal(p), rng.standard_normal(p))
        if frame == "rotated":
            pop = pop.rotated()
            assert not np.allclose(pop.ones, 1.0)
        stats = sample_stats(rng.standard_normal((p, n)) + 0.3)
        if name in (_BELOW_P_EQ_N if p > n else _ABOVE_P_EQ_N):
            with pytest.raises(InvalidDimensionsError):
                evaluate(name, stats, pop.mu_0, pop)
            return
        coefficients = ESTIMATORS[name](stats, pop.mu_0, pop)
        assert len(coefficients) == 4
        assert all(isinstance(c, float) and np.isfinite(c) for c in coefficients)
        if name in _WEIGHTS:
            assert coefficients == (*_WEIGHTS[name](stats, pop), 0.0, 0.0)
        estimate, returned = evaluate(name, stats, pop.mu_0, pop)
        assert returned == coefficients
        expected = _inline_estimate(name, stats, pop)
        if name == "js-positive-part":
            # (I + P) y_bar + clamped P y_bar, summed as y_bar + (1 + clamped) P y_bar
            np.testing.assert_allclose(estimate, expected, rtol=1e-14, atol=0)
        else:
            np.testing.assert_array_equal(estimate, expected)

    @pytest.mark.parametrize("name", [e for e in ESTIMATORS if e not in NEEDS_POPULATION])
    def test_reads_target_names_the_entries_that_read_mu_0(self, rng, name):
        # rolling_backtest copies a target-free entry's forecast to every
        # target, so an entry that reads mu_0 but is missing from
        # READS_TARGET would be scored on the first target only
        evaluated = 0
        for p, n in [(8, 20), (20, 8)]:
            stats = sample_stats(rng.standard_normal((p, n)) + 0.3)
            try:
                first = evaluate(name, stats, rng.standard_normal(p))[1]
            except InvalidDimensionsError:
                continue
            second = evaluate(name, stats, rng.standard_normal(p))[1]
            assert (first != second) == (name in READS_TARGET), (p, n)
            evaluated += 1
        assert evaluated

    def test_sample_mean_never_factorizes(self):
        # constant columns: the factorization refuses the sample, but the
        # sample mean reads only y_bar
        stats = sample_stats(np.tile(np.array([1.0, 2.0, 3.0])[:, None], (1, 8)))
        estimate, coefficients = evaluate("sample-mean", stats, np.ones(3))
        assert coefficients == (1.0, 0.0, 0.0, 0.0)
        np.testing.assert_array_equal(estimate, [1.0, 2.0, 3.0])
        with pytest.raises(SingularSampleError):
            stats.factorization


class TestGeneralizedInverse:
    def test_identity_sigma_equals_pinv(self, rng):
        x = rng.standard_normal((6, 3))
        s = sample_covariance(x)
        s_minus = generalized_inverse_s(np.eye(6), x)
        assert np.max(np.abs(s_minus - np.linalg.pinv(s))) < 1e-8

    def test_invertible_case_equals_inverse(self, rng):
        sigma = rand_spd(rng, 4)
        x = rng.standard_normal((4, 20))
        y = bare_population(sigma).sigma_sqrt() @ x
        s = sample_covariance(y)
        s_minus = generalized_inverse_s(sigma, x)
        assert np.max(np.abs(s_minus - np.linalg.inv(s))) < 1e-8

    def test_reflexive_conditions_nonsymmetric(self, rng):
        sigma = rand_spd(rng, 6, jitter=2.0)
        x = rng.standard_normal((6, 3))
        y = bare_population(sigma).sigma_sqrt() @ x
        s = sample_covariance(y)
        s_minus = generalized_inverse_s(sigma, x)
        assert np.linalg.norm(s @ s_minus @ s - s) < 1e-8
        assert np.linalg.norm(s_minus @ s @ s_minus - s_minus) < 1e-8
        # the symmetry conditions genuinely fail for non-scalar sigma
        assert np.max(np.abs(s_minus @ s - (s_minus @ s).T)) > 1e-6


class TestTrends:
    def test_mismatched_norm_rates_kill_beta(self):
        # bounded true-mean norm against the all-ones target, whose norm grows
        # with p: the oracle beta weight drains to zero at the rate 1/p.  Its
        # limit (1 - alpha) mu_n' Sigma^-1 mu_0 / mu_0' Sigma^-1 mu_0 has a
        # denominator of order p over a cross form that is a random O(1) sum
        # of p terms of size p^{-1/2} with random signs, so one population per
        # p cannot show a trend: pool 20 populations (root seeds 56..75) x 3
        # replications per p and fit log median |beta| against log p.  A
        # bounded-norm target gives an O(p^{-1/2}) cross form over an O(1)
        # denominator, slope -1/2; the upper bound -3/4 lies halfway between
        # the two rates and the lower bound -3/2 as far on the other side of -1.
        p_grid = (50, 100, 200, 400)
        medians = []
        for p in p_grid:
            betas = []
            for seed in range(56, 76):
                config = McConfig(p_grid=(p,), c_grid=(0.5,), gamma=0.0, n_reps=3,
                                  estimators=("olse-oracle",), seed=seed)
                pop = replace(cell_population(config, p, 0.5), mu_0=np.ones(p))
                betas.append(run_cell(config, pop, 0.5).weights["olse-oracle"][:, 1])
            medians.append(float(np.median(np.abs(np.concatenate(betas)))))
        slope = np.polyfit(np.log(p_grid), np.log(medians), 1)[0]
        assert -1.5 <= slope <= -0.75
        assert medians[-1] < medians[0] / 2
