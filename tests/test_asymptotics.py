import numpy as np
import pytest

from conftest import rand_spd
from shrinkmean.asymptotics import (
    ResidualStatParams,
    projection_stat,
    residual_stat,
    residual_stat_moments,
)
from shrinkmean.errors import InvalidDimensionsError
from shrinkmean.linalg import spd_eigen
from shrinkmean.model import sample_stats


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
        mean, var = residual_stat_moments(ResidualStatParams(p, n, float(resid)))

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
