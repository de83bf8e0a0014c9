import numpy as np
import pytest

from conftest import rand_spd
from shrinkmean.asymptotics import (
    oracle_weight_variances,
    projection_stat,
    residual_stat,
    residual_stat_moments,
    standardize,
)
from shrinkmean.errors import InvalidDimensionsError, MomentsDoNotExistError
from shrinkmean.estimators import limit_intensities
from shrinkmean.harness import McConfig, cell_population, cell_sample_size, run_cell
from shrinkmean.linalg import spd_eigen
from shrinkmean.model import sample_stats


class TestOracleWeightVariances:
    @pytest.mark.parametrize("gamma, c", [(0, 0.5), (0, 2.0), (1, 0.5), (1, 2.0)])
    def test_pooled_sd_of_standardized_weights(self, gamma, c):
        # sqrt(p^gamma n) (w - w_limit) / sqrt(var) is asymptotically N(0, 1)
        # for both oracle weights, with var from oracle_weight_variances.  The
        # variance depends on how the drawn means sit in the covariance's
        # eigenbasis, so one population per cell says little: pool 20
        # populations (root seeds 56..75) x 50 replications at p=100, each
        # standardized with its own variance.  Only the spread is checked:
        # each weight is centred at its own pooled mean, since at gamma=0
        # the alpha weights sit about +0.1 above the limit, a centre shift
        # that is not what this test is about.  The sd of N=1000 normal
        # draws has a standard error of 1/sqrt(2N) = 0.022; the bound allows
        # three of those plus n^{-1/2} (0.071 at c=0.5, 0.14 at c=2), the
        # rate at which a sqrt(n)-normalized statistic approaches its
        # normal limit.  Measured excesses of the beta sd at c=2, gamma=0
        # fall with n: 0.14, 0.07, 0.06, 0.01 at n=25, 50, 100, 200.
        p, n_pops, n_reps = 100, 20, 50
        n = cell_sample_size(p, c)
        z = [[], []]
        for seed in range(56, 56 + n_pops):
            config = McConfig(p_grid=(p,), c_grid=(c,), gamma=gamma, n_reps=n_reps,
                              estimators=("olse-oracle",), seed=seed)
            pop = cell_population(config, p, c)
            weights = run_cell(config, pop, c).oracle_weights
            limit = limit_intensities(pop, p / n)
            variances = oracle_weight_variances(pop, p / n)
            rate = np.sqrt(p**gamma * n)
            for column, center in enumerate((limit.alpha, limit.beta)):
                z[column].append(standardize(weights[:, column], center,
                                             variances[column], rate))
        bound = 3.0 / np.sqrt(2 * n_pops * n_reps) + 1.0 / np.sqrt(n)
        for column in (0, 1):
            pooled = np.concatenate(z[column])
            assert pooled.size == n_pops * n_reps
            assert abs(pooled.std(ddof=1) - 1.0) <= bound


class TestResidualStat:
    def test_matches_noncentral_f_moments(self):
        # normal samples at p=5, n=40: the Monte Carlo mean and variance of
        # the statistic agree with the exact noncentral-F moments.  A large
        # noncentrality keeps the spread small enough that a 2.5% bias (the
        # (n-1)/n divisor left out) lands beyond 6 standard errors.
        p, n, reps = 5, 40, 10000
        rng = np.random.default_rng(2024)
        sigma = rand_spd(rng, p)
        mu_n = 3.0 * rng.standard_normal(p)
        mu_0 = rng.standard_normal(p)
        inv = np.linalg.inv(sigma)
        resid = mu_n @ inv @ mu_n - (mu_n @ inv @ mu_0) ** 2 / (mu_0 @ inv @ mu_0)
        mean, var = residual_stat_moments(p, n, float(resid))

        root = spd_eigen(sigma).sqrt()
        draws = np.array([
            residual_stat(sample_stats(root @ rng.standard_normal((p, n)) + mu_n[:, None]),
                          mu_0)
            for _ in range(reps)
        ])
        centered = draws - draws.mean()
        var_se = np.sqrt(((centered**4).mean() - var**2) / reps)
        assert abs(draws.mean() - mean) < 4.0 * np.sqrt(var / reps)
        assert abs(draws.var() - var) < 4.0 * var_se

    @pytest.mark.parametrize("p, n, resid, error", [(5, 5, 0.1, ValueError),
                                                    (1, 40, 0.1, ValueError),
                                                    (5, 40, -0.1, ValueError),
                                                    (5, 8, 0.1, MomentsDoNotExistError)])
    def test_moments_reject_bad_inputs(self, p, n, resid, error):
        with pytest.raises(error):
            residual_stat_moments(p, n, resid)

    def test_reads_the_shared_factorization(self, rng):
        y = rng.standard_normal((4, 12)) + 0.5
        stats = sample_stats(y)
        mu_0 = rng.standard_normal(4)
        s_inv = np.linalg.inv(stats.s * 12 / 11)  # divisor n - 1
        y_bar = stats.y_bar
        expected = y_bar @ s_inv @ y_bar - (y_bar @ s_inv @ mu_0) ** 2 / (mu_0 @ s_inv @ mu_0)
        assert residual_stat(stats, mu_0) == pytest.approx(expected, rel=1e-10)
        proj = (y_bar @ s_inv @ mu_0) / (mu_0 @ s_inv @ mu_0)
        assert projection_stat(stats, mu_0) == pytest.approx(proj, rel=1e-10)

    def test_requires_p_below_n(self, rng):
        stats = sample_stats(rng.standard_normal((6, 4)))
        with pytest.raises(InvalidDimensionsError):
            residual_stat(stats, np.ones(6))
        with pytest.raises(InvalidDimensionsError):
            projection_stat(stats, np.ones(6))
