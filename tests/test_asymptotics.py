from dataclasses import replace

import numpy as np
import pytest
from scipy.special import wofz
from scipy.stats import chi2, ncf, ncx2

from conftest import bare_population, limit_gram, rand_spd, sample_covariance
from noncentral_f import (
    MomentsDoNotExistError,
    bona_fide_alpha_mean,
    bona_fide_negative_probability,
    inverse_chi2_mean,
    james_stein_risk,
    oracle_negative_probability,
    oracle_risk,
    population_residual_form,
    projection_stat,
    residual_stat,
    residual_stat_moments,
)
from shrinkmean.asymptotics import bona_fide_covariance, oracle_weight_covariance, standardize
from shrinkmean.errors import (
    DegenerateDenominatorError,
    InvalidDimensionsError,
    ScopeError,
)
from shrinkmean.estimators import limit_intensities, limit_weights
from shrinkmean.harness import McConfig, cell_population, cell_sample_size, run_cell, run_study
from shrinkmean.model import PopulationSpec, sample_stats


def oracle_variances_closed_form(pop, c, gamma):
    """Hand-expanded limiting variances of the two oracle weights in the
    paper's form, with the Gram and c scaled by p^{-gamma} and the weights
    standardized at rate sqrt(p^gamma n): the reference for the delta-method
    identity of ``oracle_weight_covariance``, which is on the sqrt(n) scale,
    so equals this times p^{-gamma}.  Each weight fluctuation is a Gaussian
    linear part plus an independent normalized chi-square part of variance
    2, hence the factor 2 on the det^2 terms."""
    scale = float(pop.p) ** (-gamma)
    gram = scale * pop.precision_gram(pop.mu_n, pop.mu_0)
    qnn, q0n, q00 = float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])
    det = q00 * qnn - q0n**2
    ct = scale * c
    denom = (ct * q00 + det) ** 4
    var_alpha = ((ct * q00 - det) ** 2 * q00 * det + 2.0 * ct * det**2 * q00**2) / denom
    a_coef = (det - ct * q00) * q0n
    b_coef = ct * q0n**2 - ct * det - det * qnn
    var_beta = (a_coef**2 * qnn + b_coef**2 * q00 + 2.0 * a_coef * b_coef * q0n
                + 2.0 * ct * det**2 * q0n**2) / denom
    return var_alpha, var_beta


def bona_fide_covariance_closed_form(pop, c):
    """Hand-expanded limiting covariance of the bona fide weight pair, c < 1:
    the reference for the identity of ``bona_fide_covariance``.  With resid
    the residual form of mu_n orthogonal to mu_0 and proj its projection
    coefficient on mu_0, alpha_hat = 1 - kappa / r_hat and beta_hat =
    (1 - alpha_hat) proj_hat, so Cov(alpha_hat, beta_hat) = -proj Var(alpha_hat)."""
    gram = pop.precision_gram(pop.mu_n, pop.mu_0)
    mean_raw, cross_raw, target_raw = float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])
    resid = mean_raw - cross_raw**2 / target_raw
    proj = cross_raw / target_raw
    sigma2_resid = 2.0 * (c + 2.0 * resid) + 2.0 / (1.0 - c) * (c + resid) ** 2
    top = c**2 * sigma2_resid / (c + resid) ** 4
    extra = (c**2 / (c + resid) ** 2) * (1.0 + (resid + c) / (1.0 - c)) / target_raw
    return np.array([[top, -top * proj], [-top * proj, top * proj**2 + extra]])


class TestDeltaMethodIdentity:
    def test_matches_the_closed_forms(self):
        # 240 random cells, p in 10..150, gamma in {0, 1}, the oracle at c in
        # (0.05, 3) (both sides of 1) and the bona fide pair at c in
        # (0.05, 0.95).  The closed forms lose a few digits to cancellation
        # (up to 1.5e-13 relative over 300 random cells), so the check is to
        # 1e-12 relative; the off-diagonal, which may be near zero, relative
        # to sqrt(var_alpha var_beta), its Cauchy-Schwarz bound.
        rng = np.random.default_rng(19)
        for cell in range(240):
            p = int(rng.integers(10, 151))
            c_oracle, c_bona_fide = rng.uniform(0.05, 3.0), rng.uniform(0.05, 0.95)
            gamma = cell % 2
            config = McConfig(p_grid=(p,), c_grid=(c_oracle,), gamma=gamma, seed=cell)
            pop = cell_population(config, p, c_oracle)
            got = oracle_weight_covariance(limit_gram(pop), c_oracle)
            want = oracle_variances_closed_form(pop, c_oracle, gamma)
            assert np.diag(got) == pytest.approx(float(p) ** -gamma * np.array(want),
                                                 rel=1e-12, abs=0.0)
            assert got[0, 1] == got[1, 0]

            got = bona_fide_covariance(limit_gram(pop), c_bona_fide)
            want = bona_fide_covariance_closed_form(pop, c_bona_fide)
            assert np.diag(got) == pytest.approx(np.diag(want), rel=1e-12, abs=0.0)
            assert abs(got[0, 1] - want[0, 1]) <= 1e-12 * np.sqrt(want[0, 0] * want[1, 1])
            assert got[0, 1] == got[1, 0]

    def test_populations_with_one_gram_share_the_covariances(self):
        # a spherical population and one with another sigma (permuted
        # eigenvectors, unequal eigenvalues) and other means, whose whitened
        # means are the spherical one's: every entry is a small integer times
        # a power of two, so both Grams are exact and equal, and so must be
        # the covariances, to the bit
        white_n, white_0 = np.array([1.0, 2.0, 0.0, 3.0]), np.array([0.0, 1.0, 1.0, 1.0])
        spherical = PopulationSpec(p=4, mu_n=white_n, mu_0=white_0, values=np.ones(4),
                                   vectors=None)
        perm, root = np.eye(4)[[2, 0, 3, 1]], np.array([2.0, 1.0, 4.0, 8.0])
        skewed = PopulationSpec(p=4, mu_n=perm @ (root * white_n), mu_0=perm @ (root * white_0),
                                values=root**2, vectors=perm)
        assert not np.array_equal(skewed.mu_n, spherical.mu_n)
        assert np.array_equal(limit_gram(skewed), limit_gram(spherical))
        for c in (0.5, 2.0):
            assert np.array_equal(oracle_weight_covariance(limit_gram(skewed), c),
                                  oracle_weight_covariance(limit_gram(spherical), c))
        assert np.array_equal(bona_fide_covariance(limit_gram(skewed), 0.5),
                              bona_fide_covariance(limit_gram(spherical), 0.5))

    def test_degenerate_inputs_rejected(self, rng):
        pop = bare_population(rand_spd(rng, 4), rng.standard_normal(4), np.zeros(4))
        # a zero target makes det A = c G_11 + det G vanish, for both
        # covariances alike: the limit system is solved and checked once
        with pytest.raises(DegenerateDenominatorError, match="zero precision-metric energy"):
            oracle_weight_covariance(limit_gram(pop), 0.5)
        with pytest.raises(DegenerateDenominatorError, match="zero precision-metric energy"):
            bona_fide_covariance(limit_gram(pop), 0.5)
        pop = replace(pop, mu_0=rng.standard_normal(4))
        for c in (-0.5, 0.0, np.nan, np.inf):  # the limit system needs 0 < c < inf
            with pytest.raises(ScopeError, match="positive and finite"):
                oracle_weight_covariance(limit_gram(pop), c)
        for c in (-0.5, 0.0, 1.0, 2.0):  # the 1/(1-c) pole and beyond
            with pytest.raises(ScopeError, match=r"requires c in \(0, 1\)"):
                bona_fide_covariance(limit_gram(pop), c)


class TestOracleWeightVariances:
    @pytest.mark.parametrize("gamma, c", [(0, 0.5), (0, 2.0), (1, 0.5), (1, 2.0)])
    def test_pooled_sd_of_standardized_weights(self, gamma, c):
        # sqrt(n) (w - w_limit) / sqrt(var) is asymptotically N(0, 1) for
        # both oracle weights at either gamma, with var the diagonal of
        # oracle_weight_covariance.  The variance depends on how the drawn
        # means sit in the covariance's eigenbasis, so one population per
        # cell says little: pool 20 populations (root seeds 56..75) x 50
        # replications at p=100, each
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
            weights = run_cell(config, pop, c).weights["olse-oracle"]
            limit = limit_intensities(pop, p / n)
            variances = np.diag(oracle_weight_covariance(limit_gram(pop), p / n))
            for column, center in enumerate(limit):
                z[column].append(standardize(weights[:, column], center,
                                             variances[column], np.sqrt(n)))
        bound = 3.0 / np.sqrt(2 * n_pops * n_reps) + 1.0 / np.sqrt(n)
        for column in (0, 1):
            pooled = np.concatenate(z[column])
            assert pooled.size == n_pops * n_reps
            assert abs(pooled.std(ddof=1) - 1.0) <= bound

    @pytest.mark.parametrize("gamma", [0, 1])
    def test_pooled_cross_covariance(self, gamma):
        # the off-diagonal against the sample covariance of sqrt(n) (w -
        # w_limit) over 4 populations (root seeds 0..3) x 250 replications at
        # p=100, c=0.5.  A drawn target sits nearly orthogonal to mu_n, which
        # leaves the limit's correlation rho within about 0.2 of zero, so the
        # target here adds mu_n to it: rho is then -0.6 to -0.8.  Each gap
        # is read in units of sqrt(var_alpha var_beta); a sample covariance
        # of N normal pairs has variance (1 + rho^2) / N in those units, so
        # the mean gap over the 1000 pairs has a standard error of at most
        # sqrt(2/1000) = 0.045.  The bound allows three of those plus
        # n^{-1/2} = 0.071, the rate at which a sqrt(n)-normalized
        # statistic approaches its limit; root seeds 0..39 read gaps within
        # 0.11 at either gamma.  A zero off-diagonal misses by about 0.7.
        p, c, n_seeds, n_reps = 100, 0.5, 4, 250
        n = cell_sample_size(p, c)
        gaps, rhos = [], []
        for seed in range(n_seeds):
            config = McConfig(p_grid=(p,), c_grid=(c,), gamma=gamma, n_reps=n_reps,
                              estimators=("olse-oracle",), seed=seed)
            pop = cell_population(config, p, c)
            pop = replace(pop, mu_0=pop.mu_0 + pop.mu_n)
            gram = limit_gram(pop)
            weights = run_cell(config, pop, c).weights["olse-oracle"]
            sample = np.cov(np.sqrt(n) * (weights - limit_weights(gram, p / n)), rowvar=False)
            cov = oracle_weight_covariance(gram, p / n)
            scale = np.sqrt(cov[0, 0] * cov[1, 1])
            gaps.append((sample[0, 1] - cov[0, 1]) / scale)
            rhos.append(cov[0, 1] / scale)
        assert max(rhos) < -0.5
        se = np.sqrt((1.0 + np.mean(np.square(rhos))) / (n_seeds * n_reps))
        assert abs(np.mean(gaps)) <= 3.0 * se + 1.0 / np.sqrt(n)


class TestStandardize:
    @pytest.mark.parametrize("variance", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_a_variance_not_positive_and_finite(self, variance):
        # NaN would pass a bare "variance <= 0" and return NaN, and inf
        # would return zeros
        with pytest.raises(ScopeError, match="variance must be positive and finite"):
            standardize(np.ones(3), 0.0, variance, 1.0)


class TestBonaFideCovariance:
    @pytest.mark.parametrize("p, c", [(3, 0.2), (8, 0.5), (40, 0.9)])
    def test_cross_covariance_follows_the_projection(self, rng, p, c):
        # beta_hat = (1 - alpha_hat) proj_hat, with proj = x/t the projection
        # coefficient of mu_n on mu_0, so Cov(alpha_hat, beta_hat) tends to
        # -proj Var(alpha_hat): the limit moves beta against alpha
        pop = bare_population(rand_spd(rng, p), rng.standard_normal(p), rng.standard_normal(p))
        (_, x), (_, t) = pop.precision_gram(pop.mu_n, pop.mu_0)
        cov = bona_fide_covariance(limit_gram(pop), c)
        assert cov[0, 1] == pytest.approx(-(x / t) * cov[0, 0], rel=1e-12, abs=0.0)

    def test_correlation_matches_monte_carlo(self):
        # 800 bona fide weight pairs at p=100, c=0.5 with mu_0 = mu_n (so
        # proj = 1, alpha_limit = 0, beta_limit = 1); the sample correlation
        # measured -0.57 at seed 0 (and -0.63, -0.67 at seeds 1, 2) against
        # the limit's -0.55 (-0.60, -0.61).  A sample correlation has standard
        # error (1 - rho^2)/sqrt(N) = 0.025 here; the bound allows four of
        # those plus n^{-1/2} = 0.071, the rate at which a sqrt(n)-normalized
        # statistic approaches its limit.  A limit of the wrong sign misses by
        # about 1.1.
        p, c, n_reps = 100, 0.5, 800
        config = McConfig(p_grid=(p,), c_grid=(c,), n_reps=n_reps, estimators=("olse",),
                          target_mode="equal-to-mu_n", seed=0)
        pop = cell_population(config, p, c)
        weights = run_cell(config, pop, c).weights["olse"]
        assert np.isfinite(weights).all()
        n = cell_sample_size(p, c)
        cov = bona_fide_covariance(limit_gram(pop), p / n)
        limit = cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1])
        bound = 4.0 * (1.0 - limit**2) / np.sqrt(n_reps) + 1.0 / np.sqrt(n)
        assert abs(np.corrcoef(weights.T)[0, 1] - limit) <= bound


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

        root = bare_population(sigma).sigma_sqrt()
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
        s_inv = np.linalg.inv(sample_covariance(y) * 12 / 11)  # divisor n - 1
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


@pytest.mark.parametrize("p, n, resid", [(20, 40, 0.1), (20, 22, 0.3), (250, 500, 0.12),
                                           (10, 30, 0.0)])
def test_bona_fide_alpha_mean_matches_the_noncentral_f_integral(p, n, resid):
    # the Poisson series against scipy's quadrature of 1 / r_hat, r_hat =
    # F (p-1) / (n-p+1) with F ~ F'(p-1, n-p+1, n R), over the same law
    d1, d2 = p - 1.0, n - p + 1.0
    inverse_mean = ncf.expect(lambda f: d2 / (d1 * f), args=(d1, d2, n * resid))
    assert bona_fide_alpha_mean(p, n, resid) == pytest.approx(1.0 - p / (n - p) * inverse_mean,
                                                              rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("p, n, resid", [(3, 40, 0.1), (20, 20, 0.1), (20, 40, -0.1)])
def test_bona_fide_alpha_mean_rejects_bad_inputs(p, n, resid):
    with pytest.raises(ValueError):
        bona_fide_alpha_mean(p, n, resid)


@pytest.mark.parametrize("c", [0.5, 0.9])
def test_bona_fide_alpha_mean_is_exact(c):
    # under the normal law E[alpha_hat] = 1 - kappa (n-p+1) sum_j Pois(j;
    # n R / 2) / (p-3+2j), below the limit alpha by a Jensen bias: 1 / r_hat
    # is convex.  Each root seed draws its own population and has its own
    # exact mean, so the pooled sum of alpha less the sum of those means,
    # over the root of the summed per-seed sample variances, is close to
    # standard normal over the 4000 replications; |z| <= 4 fails a correct
    # mean less than once in 10^4.  Centred at the limit alpha instead, z
    # reads about -23 at c = 0.5 and -29 at c = 0.9
    p, n_seeds, n_reps = 20, 4, 1000
    n = cell_sample_size(p, c)
    gap, var = 0.0, 0.0
    for seed in range(n_seeds):
        config = McConfig(p_grid=(p,), c_grid=(c,), n_reps=n_reps, estimators=("olse",),
                          seed=seed)
        pop = cell_population(config, p, c)
        mean = bona_fide_alpha_mean(p, n, population_residual_form(limit_gram(pop)))
        alpha = run_cell(config, pop, c).weights["olse"][:, 0]
        assert np.isfinite(alpha).all()
        gap += float((alpha - mean).sum())
        var += n_reps * float(alpha.var(ddof=1))
    assert abs(gap) <= 4.0 * np.sqrt(var)


def test_bona_fide_alpha_gap_falls_like_root_n():
    # E[alpha_hat] - alpha_limit = b / n + O(n^-2): kappa (n-p+1) E[1 / X],
    # X ~ chi2'(p-1, n R), expands in 1/n about its limit, and the Jensen
    # term Var X / (E X)^3 is of the same order.  So the standardized gap
    # sqrt(n) (E[alpha_hat] - alpha_limit) / sd is b / (sd sqrt(n)) times
    # 1 + O(1/n), and its log-log slope over p = 50..1000 (n = 100..2000)
    # is -1/2 up to that O(1/n) tilt and the drift of each p's drawn R;
    # seeds 0-3 read -0.514 to -0.520.  |slope + 1/2| <= 0.1 rejects a gap
    # that falls like 1/n or not at all.  Every gap is negative: 1 / r_hat
    # is convex.  Exact laws only, no Monte Carlo
    c, ps = 0.5, (50, 100, 250, 1000)
    for seed in range(4):
        config = McConfig(p_grid=ps, c_grid=(c,), n_reps=1, estimators=("olse",), seed=seed)
        gaps = []
        for p in ps:
            n = cell_sample_size(p, c)
            gram = limit_gram(cell_population(config, p, c))
            mean = bona_fide_alpha_mean(p, n, population_residual_form(gram))
            sd = np.sqrt(bona_fide_covariance(gram, c)[0, 0])
            gaps.append(np.sqrt(n) * (mean - limit_weights(gram, c)[0]) / sd)
        assert max(gaps) < 0
        slope = np.polyfit(np.log(ps), np.log(-np.array(gaps)), 1)[0]
        assert abs(slope + 0.5) <= 0.1


@pytest.mark.parametrize("d, delta", [(8, 0.5), (8, 30.0), (20, 4.0)])
def test_inverse_chi2_mean_matches_the_noncentral_chi2_integral(d, delta):
    # the Poisson series against scipy's quadrature of 1 / x over chi2'(d, delta)
    expected = ncx2.expect(lambda x: 1.0 / x, args=(d, delta))
    assert inverse_chi2_mean(d, delta) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("p, n, delta", [(10, 40, 0.0), (10, 40, 12.0), (30, 40, 300.0)])
def test_james_stein_risk_is_quadratic_in_a(p, n, delta):
    # no shrinkage keeps X's risk p; the risk is least at a* = (p-2)/(m-p+3),
    # m = n - 1, and back to p at 2 a*, the end of the dominance interval
    a_star = (p - 2.0) / (n - p + 2.0)
    least = james_stein_risk(a_star, p, n, delta)
    assert james_stein_risk(0.0, p, n, delta) == p
    assert james_stein_risk(2.0 * a_star, p, n, delta) == pytest.approx(p, rel=1e-12)
    for h in (1e-3, 0.1, 0.5):
        below = james_stein_risk((1.0 - h) * a_star, p, n, delta)
        above = james_stein_risk((1.0 + h) * a_star, p, n, delta)
        assert below > least and above > least
        assert below == pytest.approx(above, rel=1e-12)
    assert inverse_chi2_mean(p, 0.0) == 1.0 / (p - 2.0)


@pytest.mark.parametrize("p, n, delta", [(2, 40, 1.0), (10, 10, 1.0), (10, 40, -1.0)])
def test_james_stein_risk_rejects_bad_inputs(p, n, delta):
    with pytest.raises(ValueError):
        james_stein_risk(0.1, p, n, delta)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the James-Stein statistic reads y_bar'(nS)^-1 y_bar,"
                          " n times too small")
def test_james_stein_loss_is_its_exact_risk():
    # under the normal law the loss of js, with the code's constant
    # a = (p-2)/(n-p-3), has mean R(a) / n (noncentral_f.james_stein_risk),
    # delta = n mu_n' sigma^{-1} mu_n.  Each root seed draws its own
    # population and has its own exact risk, so the pooled sum of losses less
    # the sum of those means, over the root of the summed per-seed sample
    # variances, is close to standard normal over the 4000 replications;
    # |z| <= 4 fails a correct risk less than once in 10^4.  The statistic
    # n times too small makes the shrinkage n times too strong: z reads
    # +68, the seeds' mean losses 230-300 against exact ones of 0.12-0.15
    p, c, n_seeds, n_reps = 10, 0.25, 4, 1000
    n = cell_sample_size(p, c)
    a = (p - 2.0) / (n - p - 3.0)
    gap, var = 0.0, 0.0
    for seed in range(n_seeds):
        config = McConfig(p_grid=(p,), c_grid=(c,), n_reps=n_reps, estimators=("js",), seed=seed)
        delta = n * float(limit_gram(cell_population(config, p, c))[0, 0])
        loss = run_study(config).cells[0].losses["js"]
        assert np.isfinite(loss).all()
        gap += float((loss - james_stein_risk(a, p, n, delta) / n).sum())
        var += n_reps * float(loss.var(ddof=1))
    assert abs(gap) <= 4.0 * np.sqrt(var)


@pytest.mark.parametrize("estimator, c", [("olse-oracle", 2.0), ("olse-oracle", 0.5),
                                          ("olse", 0.5), ("olse", 0.9)])
def test_alpha_sign_follows_its_exact_law(estimator, c):
    # under the normal law the oracle alpha is negative with probability
    # Phi(-sqrt(n R)), at any c, and for p < n the bona fide alpha with the
    # noncentral-F CDF of noncentral_f.bona_fide_negative_probability; these
    # are table1's two columns.  Each root seed draws its own population, so
    # the pooled negative count is a sum of independent Bernoulli draws with
    # known means: its z-score over the 4000 replications is close to
    # standard normal (every cell expects 90 or more negatives), and
    # |z| <= 4 fails a correct law less than once in 10^4.  A law off by
    # 4 standard errors, about 0.03 in frequency at c = 0.9, fails it.
    p, n_seeds, n_reps = 20, 4, 1000
    n = cell_sample_size(p, c)
    count, mean, var = 0, 0.0, 0.0
    for seed in range(n_seeds):
        config = McConfig(p_grid=(p,), c_grid=(c,), n_reps=n_reps, estimators=(estimator,),
                          seed=seed)
        pop = cell_population(config, p, c)
        resid = population_residual_form(limit_gram(pop))
        if estimator == "olse-oracle":
            prob = oracle_negative_probability(n, resid)
        else:
            prob = bona_fide_negative_probability(p, n, resid)
        alpha = run_cell(config, pop, c).weights[estimator][:, 0]
        assert np.isfinite(alpha).all()
        count += int((alpha < 0).sum())
        mean += n_reps * prob
        var += n_reps * prob * (1.0 - prob)
    assert abs(count - mean) <= 4.0 * np.sqrt(var)


@pytest.mark.parametrize("p, n, resid", [(20, 40, 0.1), (100, 50, 0.05), (250, 125, 0.3),
                                           (60, 30, 2.0)])
def test_oracle_risk_matches_the_voigt_integral(p, n, resid):
    # with x = n r^2, b = sqrt(x) and m = sqrt(n R) the loss is R b^2 /
    # ((g + m)^2 + b^2), whose mean over g ~ N(0, 1) is closed: R b sqrt(pi / 2)
    # Re w((-m + i b) / sqrt 2), w the Faddeeva function.  scipy's quadrature
    # of that over x ~ chi2(p-2) checks the two-dimensional Gauss rule
    m = np.sqrt(n * resid)

    def given(x):
        b = np.sqrt(x)
        return resid * b * np.sqrt(np.pi / 2.0) * wofz((1j * b - m) / np.sqrt(2.0)).real

    expected = chi2.expect(given, args=(p - 2,))
    assert oracle_risk(p, n, resid) == pytest.approx(expected, rel=1e-9)


def test_oracle_loss_is_its_exact_risk():
    # under the normal law the oracle's loss has the mean of
    # noncentral_f.oracle_risk at any c.  At c = 2 a cell is scored in its
    # eigenbasis frame (rotated means, coloured draws and quadratic_loss's
    # row scaling), which no other exact test reaches.  Each root seed draws
    # its own population and has its own exact risk, so the pooled sum of
    # losses less the sum of those risks, over the root of the summed
    # per-seed sample variances, is close to standard normal over the 4000
    # replications: every loss lies in [0, R], so the CLT holds long before
    # that count, and |z| <= 4 fails a correct risk less than once in 10^4.
    # Colouring the draws by lam in place of lam^{1/2} reads z = +203, and
    # rotating the means by Q in place of Q' reads z = +18
    p, c, n_seeds, n_reps = 100, 2.0, 4, 1000
    n = cell_sample_size(p, c)
    gap, var = 0.0, 0.0
    for seed in range(n_seeds):
        config = McConfig(p_grid=(p,), c_grid=(c,), n_reps=n_reps,
                          estimators=("olse-oracle",), seed=seed)
        pop = cell_population(config, p, c)
        risk = oracle_risk(p, n, population_residual_form(limit_gram(pop)))
        loss = run_cell(config, pop, c).losses["olse-oracle"]
        assert np.isfinite(loss).all()
        gap += float((loss - risk).sum())
        var += n_reps * float(loss.var(ddof=1))
    assert abs(gap) <= 4.0 * np.sqrt(var)
