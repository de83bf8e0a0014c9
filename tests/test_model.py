import copy
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

import shrinkmean.model
from conftest import covariance, eigen_population, eigenpairs, sample_covariance
from sampling import generate_sample
from shrinkmean.errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteDataError,
    SingularSampleError,
)
from shrinkmean.finance import ReturnsPanel
from shrinkmean.harness import McConfig, cell_population, run_study
from shrinkmean.linalg import spd_factor
from shrinkmean.model import (
    DEFAULT_RECIPE,
    EigenRecipe,
    InnovationLaw,
    PopulationSpec,
    SampleStats,
    build_covariance,
    draw_mean_vectors,
    sample_stats,
)

EPS = np.finfo(float).eps


class TestEigenRecipe:
    def test_default_multiset_p10(self, rng):
        cov = covariance(*build_covariance(DEFAULT_RECIPE, 10, rng))
        eigs = np.sort(np.linalg.eigvalsh(cov))
        expected = np.array([1, 1, 3, 3, 3, 3, 10, 10, 10, 10], dtype=float)
        assert np.max(np.abs(eigs - expected)) < 1e-8

    def test_isotropic_recipe(self, rng):
        cov = covariance(*build_covariance(EigenRecipe(((1.0, 1.0),)), 6, rng))
        assert np.max(np.abs(cov - np.eye(6))) < 1e-10

    def test_override_lambda_max(self, rng):
        recipe = EigenRecipe(DEFAULT_RECIPE.proportions, override_lambda_max=50.0)
        cov = covariance(*build_covariance(recipe, 50, rng))
        eigs = np.sort(np.linalg.eigvalsh(cov))
        assert eigs[-1] == pytest.approx(50.0, abs=1e-8)
        # only the single largest eigenvalue is replaced
        assert eigs[-2] == pytest.approx(10.0, abs=1e-8)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="expected 1"):
            EigenRecipe(((0.5, 1.0), (0.4, 2.0)))

    def test_positive_eigenvalues_required(self):
        with pytest.raises(ConfigError, match="eigenvalues must be positive and finite"):
            EigenRecipe(((0.5, 1.0), (0.5, 0.0)))

    @pytest.mark.parametrize("proportions, match", [
        ((), "at least one group"),
        (((1.25, 1.0), (-0.25, 2.0)), "nonnegative"),  # they sum to 1
    ], ids=["no-group", "negative-fraction"])
    def test_malformed_groups_rejected(self, proportions, match):
        with pytest.raises(ConfigError, match=match):
            EigenRecipe(proportions)

    def test_floor_remainder_to_last_group(self):
        values = EigenRecipe(((0.5, 1.0), (0.5, 2.0))).eigenvalues(7)
        assert sorted(values.tolist()) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]

    def test_group_count_of_an_inexact_product(self):
        # 0.29 * 100 is 28.999999999999996 in floating point, yet 29 values
        values = EigenRecipe(((0.29, 1.0), (0.71, 10.0))).eigenvalues(100)
        assert np.count_nonzero(values == 1.0) == 29
        assert np.count_nonzero(values == 10.0) == 71

    def test_exactly_symmetric_output(self, rng):
        root = eigen_population(*build_covariance(DEFAULT_RECIPE, 15, rng)).sigma_sqrt()
        assert np.array_equal(root, root.T)

    def test_minimum_dimension(self, rng):
        with pytest.raises(DimensionMismatchError):
            build_covariance(DEFAULT_RECIPE, 1, rng)

    @pytest.mark.parametrize("override", [None, 5.0])
    @pytest.mark.parametrize("p", [0, -1])
    def test_no_eigenvalue_rejected(self, p, override):
        # p = 0 gave an empty spectrum, or an IndexError with the override,
        # and p < 0 numpy's ValueError
        with pytest.raises(DimensionMismatchError):
            EigenRecipe(DEFAULT_RECIPE.proportions, override).eigenvalues(p)


class TestDrawMeanVectors:
    def test_gamma0_bounds(self, rng):
        mu_n, mu_0 = draw_mean_vectors(0, 100, rng)
        bound = 100 ** (-0.5)
        assert np.all(np.abs(mu_n) <= bound)
        assert np.all(np.abs(mu_0) <= bound)
        assert not np.array_equal(mu_n, mu_0)

    def test_gamma0_norm_bound(self, rng):
        # p entries each at most p^{-1} in square
        for _ in range(5):
            mu_n, _ = draw_mean_vectors(0, 64, rng)
            assert mu_n @ mu_n <= 1.0

    def test_gamma1_values(self, rng):
        mu_n, mu_0 = draw_mean_vectors(1, 8, rng)
        assert np.array_equal(mu_0, np.ones(8))
        assert set(np.unique(mu_n)).issubset({-1.0, 1.0})

    def test_unsupported_gamma(self, rng):
        with pytest.raises(ConfigError, match="gamma must be 0 or 1"):
            draw_mean_vectors(0.5, 10, rng)

    @pytest.mark.parametrize("gamma", [0, 1])
    @pytest.mark.parametrize("p", [0, -2])
    def test_no_coordinate_rejected(self, rng, gamma, p):
        # the gamma = 0 bound p^{-1/2} divided by zero or went complex, and
        # the draw of p < 0 values raised numpy's ValueError
        with pytest.raises(DimensionMismatchError):
            draw_mean_vectors(gamma, p, rng)


class TestInnovationLaw:
    def test_normal_default(self):
        assert InnovationLaw().name == "normal"

    def test_t_standardized(self):
        law = InnovationLaw("t", df=6.0)
        draws = law.draw(np.random.default_rng(0), (200_000,))
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.02

    def test_t_needs_df_above_4(self):
        with pytest.raises(ConfigError, match="finite df > 4"):
            InnovationLaw("t", df=4.0)
        with pytest.raises(ConfigError, match="finite df > 4"):
            InnovationLaw("t")

    def test_exponential_standardized(self):
        law = InnovationLaw("exponential")
        draws = law.draw(np.random.default_rng(0), (200_000,))
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.02

    def test_parse_round_trip(self):
        for text in ("normal", "t:6", "exponential"):
            law = InnovationLaw.parse(text)
            assert InnovationLaw.parse(law.spec_string()) == law

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown innovation law 'cauchy'"):
            InnovationLaw("cauchy")

    @pytest.mark.parametrize("name", ["normal", "exponential"])
    def test_df_only_for_t(self, name):
        with pytest.raises(ConfigError, match="takes no df"):
            InnovationLaw(name, df=6.0)


def _population(p=5, sigma=None, mu=None):
    sigma = np.eye(p) if sigma is None else sigma
    mu = np.zeros(p) if mu is None else mu
    return PopulationSpec(p=p, mu_n=mu, mu_0=mu.copy(), **eigenpairs(sigma))


class TestGenerateSample:
    def test_identity_reduction_pooled_ks(self):
        pop = _population()
        y = generate_sample(pop, 2000, InnovationLaw(), np.random.default_rng(3))
        assert kstest(y.ravel(), "norm").pvalue > 0.01

    def test_column_mean_matches_population_mean(self, rng):
        values, vectors = build_covariance(DEFAULT_RECIPE, 5, rng)
        mu = rng.uniform(-1, 1, 5)
        pop = PopulationSpec(p=5, mu_n=mu, mu_0=mu, values=values, vectors=vectors)
        n = 100_000
        y = generate_sample(pop, n, InnovationLaw(), rng)
        lam_max = 10.0
        assert np.all(np.abs(y.mean(axis=1) - mu) <= 4 * np.sqrt(lam_max / n))

    def test_sample_covariance_converges(self, rng):
        values, vectors = build_covariance(DEFAULT_RECIPE, 5, rng)
        pop = PopulationSpec(p=5, mu_n=np.zeros(5), mu_0=np.zeros(5), values=values,
                             vectors=vectors)
        y = generate_sample(pop, 100_000, InnovationLaw(), rng)
        s = sample_covariance(y)
        cov = covariance(pop.values, pop.vectors)
        assert np.linalg.norm(s - cov) / np.linalg.norm(cov) < 0.05

    def test_bit_reproducible(self):
        pop = _population()
        y1 = generate_sample(pop, 50, InnovationLaw(), np.random.default_rng(17))
        y2 = generate_sample(pop, 50, InnovationLaw(), np.random.default_rng(17))
        assert np.array_equal(y1, y2)

    def test_minimum_n(self):
        with pytest.raises(DimensionMismatchError):
            generate_sample(_population(), 1, InnovationLaw(), np.random.default_rng(0))


class TestSampleStats:
    def test_constant_columns(self):
        mu = np.array([1.0, -2.0, 3.0])
        y = np.tile(mu[:, None], (1, 7))
        stats = sample_stats(y)
        assert np.allclose(stats.y_bar, mu)
        b = stats.reflected
        assert np.max(np.abs(b @ b.T)) < 1e-14

    def test_hand_arithmetic_p1(self):
        stats = sample_stats(np.array([[1.0, -1.0]]))
        assert stats.y_bar[0] == 0.0
        b = stats.reflected
        assert (b @ b.T)[0, 0] == pytest.approx(1.0)
        assert (stats.p, stats.n) == (1, 2)

    def test_matches_two_pass_formula(self, rng):
        y = rng.standard_normal((4, 50))
        stats = sample_stats(y)
        y_bar = y.mean(axis=1)
        two_pass = sum(
            np.outer(y[:, k] - y_bar, y[:, k] - y_bar) for k in range(50)
        ) / 50
        b = stats.reflected
        assert np.max(np.abs(b @ b.T - two_pass)) < 1e-10

    def test_psd_always(self, rng):
        for _ in range(20):
            y = rng.standard_normal((6, 4))  # n < p gives singular but PSD s
            b = sample_stats(y).reflected
            assert np.linalg.eigvalsh(b @ b.T).min() >= -1e-10

    def test_no_rows_rejected(self):
        # the factorization's pivot check would otherwise reduce an empty
        # diagonal and raise numpy's ValueError past every ShrinkmeanError
        with pytest.raises(DimensionMismatchError):
            sample_stats(np.zeros((0, 5))).factorization

    def test_pd_when_n_exceeds_p(self):
        # continuous law, n > p: strictly positive definite in 100 seeded runs
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = rng.standard_normal((20, 40))
            b = sample_stats(y).reflected
            assert np.linalg.eigvalsh(b @ b.T).min() > 0


class TestNonFiniteData:
    # a non-finite row mean is rejected by sample_stats, and a finite entry
    # too large to square by the factorization, before any arithmetic on the
    # sample warns, on both sides of p = n; so is an overflow of the mixing
    # R z that a cell at or above p = n forms
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rows, cols, values", [
        ([2], [1], [np.nan]),
        ([2], [1], [np.inf]),
        ([2], [1], [-np.inf]),
        ([1, 1], [0, 2], [np.inf, -np.inf]),  # inf - inf within one row
        ([0, 0], [0, 1], [1e308, 1e308]),  # the row sum overflows
        ([1], [1], [1e300]),  # finite row sums; the syrk overflows
        ([1], [1], [1.7e308]),  # finite row sums; at n = 3 the mixing by R = 4 I overflows
    ])
    def test_rejected(self, rng, rows, cols, values):
        root = _population(p=4, sigma=16 * np.eye(4)).sigma_sqrt()
        for n in (3, 20):
            z = rng.standard_normal((4, n))
            z[rows, cols] = values
            with np.errstate(over="ignore", invalid="ignore"):
                finite_means = np.isfinite(z.mean(axis=1)).all()
                mixed = root @ z
            match = "too large" if finite_means else "NaN or infinite"
            with pytest.raises(NonFiniteDataError, match=match):
                sample_stats(z).factorization
            with pytest.raises(NonFiniteDataError):
                sample_stats(mixed).factorization


class TestInnovationStats:
    """A cell reads each replication's statistics from its innovations z:
    below p = n those of z in the whitened frame, at or above p = n those of
    R z, in either case with only y_bar shifted."""

    def test_whitening_reads_the_mixed_sample(self, rng):
        # p < n: S^{-1} forms of y = R z + mu 1' are S_z^{-1} forms of the
        # frame's images R^{-1} v, with no y, B or S formed; the sample
        # itself is the reference
        values, vectors = build_covariance(DEFAULT_RECIPE, 6, rng)
        mu, target = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)
        pop = PopulationSpec(p=6, mu_n=mu, mu_0=target, values=values, vectors=vectors)
        frame = pop.whitened()
        root = pop.sigma_sqrt()
        assert np.allclose(root @ frame.mu_n, mu, rtol=1e-13, atol=1e-13)
        assert np.allclose(root @ frame.mu_0, target, rtol=1e-13, atol=1e-13)
        assert frame.vectors is None  # the standard basis, held as no array
        np.testing.assert_array_equal(frame.whiten(np.eye(6)), np.eye(6))
        z = rng.standard_normal((6, 15))
        y = root @ z + mu[:, None]
        z_stats = sample_stats(z)
        stats = replace(z_stats, y_bar=z_stats.y_bar + frame.mu_n)
        assert np.allclose(root @ stats.y_bar, y.mean(axis=1), rtol=1e-13, atol=1e-13)
        s = sample_covariance(y)
        white = stats.whiten(np.linalg.inv(root))
        precision = np.linalg.inv(s)
        assert np.max(np.abs(white.T @ white - precision)) < 1e-10 * np.max(np.abs(precision))
        # the scale is the frame's trace(S_z), which bounds lam_max(S_z)
        assert stats.factorization.scale == pytest.approx(np.trace(sample_covariance(z)), rel=1e-12)
        # and the Gram the oracle reads is the population's
        assert np.allclose(frame.precision_gram(stats.y_bar, frame.mu_0, frame.mu_n),
                           pop.precision_gram(root @ stats.y_bar, target, mu), rtol=1e-12)

    def test_high_dim_forms_the_reflected_sample(self, rng):
        # p >= n: the cell forms R z, whose reflected sample is that of
        # R z + mu 1', since a common shift leaves the reflection unchanged
        pop = _population(p=6, sigma=np.diag(np.arange(1.0, 7.0)), mu=rng.uniform(-1, 1, 6))
        z = rng.standard_normal((6, 4))
        mixed = sample_stats(pop.sigma_sqrt() @ z)
        expected = sample_stats(pop.sigma_sqrt() @ z + pop.mu_n[:, None])
        assert np.allclose(mixed.reflected, expected.reflected, rtol=1e-13, atol=1e-13)
        assert np.allclose(mixed.y_bar + pop.mu_n, expected.y_bar, rtol=1e-13, atol=1e-13)

    def test_dimension_checks(self, rng):
        with pytest.raises(DimensionMismatchError):
            sample_stats(rng.standard_normal(10))
        with pytest.raises(DimensionMismatchError):
            sample_stats(rng.standard_normal((5, 1)))


class TestSampleFactorization:
    def test_gram_route_is_moore_penrose(self, rng):
        # p >= n: S = B B' with B the reflected sample, and S^+ = B G^{-2} B'
        # read through the Cholesky-checked (n-1) x (n-1) Gram G = B'B; the
        # tolerances are relative, so they hold at every data scale
        for p, n in ((12, 5), (250, 125), (200, 25), (5, 3)):
            base = rng.standard_normal((p, n)) + 0.3
            v = rng.standard_normal(p)
            for k in (1e-6, 1.0, 1e6):
                stats = sample_stats(k * base)
                s = sample_covariance(k * base)
                f = stats.factorization
                assert f.cholesky.dim == n - 1 and stats.reflected.shape == (p, n - 1)
                b = stats.reflected
                assert np.max(np.abs(b @ b.T - s)) <= 1e-12 * np.max(np.abs(s))
                gram_diag = np.einsum("ij,ij->j", b, b)
                assert f.cholesky.pivot_floor == pytest.approx(100 * (n - 1) * EPS * gram_diag.max())
                s_pinv = np.linalg.pinv(s, 1e-10, hermitian=True)
                white = stats.whiten(np.eye(p))
                assert np.max(np.abs(white.T @ white - s_pinv)) < 1e-8 * np.max(np.abs(s_pinv))
                y_bar = stats.y_bar
                assert np.allclose(stats.projected_mean(), s @ s_pinv @ y_bar)
                vecs = np.column_stack([y_bar, k * v])
                expected = vecs.T @ s_pinv @ vecs
                assert np.allclose(stats.mean_gram(k * v), expected,
                                   rtol=1e-9, atol=1e-9 * np.max(np.abs(expected)))

    def test_repeated_observation_rejected(self, rng):
        # rank(S) = n - 2: the pivot floor must clear the rounding pivots the
        # singular Gram leaves, whichever observation is repeated and at
        # any offset and scale of the data
        for p, n in ((6, 3), (12, 5), (40, 7), (30, 20)):
            for _ in range(100):
                y = rng.standard_normal((p, n)) + rng.standard_normal((p, 1))
                j = rng.integers(1, n)
                y[:, j] = y[:, rng.choice([0, rng.integers(0, j)])]
                with pytest.raises(SingularSampleError):
                    sample_stats(10.0 ** rng.uniform(-6, 6) * y).factorization

    def test_cholesky_route_floor(self, rng):
        # p < n: the pivot floor 100 p eps max diag(S) passes full-rank
        # samples near c = 1 with cond(sigma) = 1e4 (in trials up to p = 250
        # their smallest pivots sat 200 and more times above it) and rejects
        # a variable that is the sum of two others (pivots below p eps max diag(S))
        for p, n in ((6, 8), (40, 42), (200, 201)):
            lam = np.logspace(0, -4, p)
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            root = (q * np.sqrt(lam)) @ q.T
            for _ in range(10):
                f = sample_stats(root @ rng.standard_normal((p, n))).factorization
                assert np.diag(f.cholesky.lower).min() ** 2 > 100 * f.cholesky.pivot_floor
        for p, n in ((6, 8), (40, 45)):
            for _ in range(50):
                y = rng.standard_normal((p, n)) * rng.uniform(0.1, 10, (p, 1))
                y[-1] = y[0] + y[1]
                with pytest.raises(SingularSampleError):
                    sample_stats(y).factorization

    def test_large_means_keep_rank_deficiency(self, rng):
        # p < n: S is formed as B B' from the reflected sample, so means of
        # 1e2 to 1e4 times the spread cannot cancel a variable that is the
        # sum of two others into a passing pivot, as the one-pass formula
        # y y'/n - y_bar y_bar' would
        p, n = 5, 50
        for _ in range(200):
            spread = rng.uniform(0.1, 10, (p, 1))
            y = rng.standard_normal((p, n)) * spread
            y[-1] = y[0] + y[1]
            y += spread * 10.0 ** rng.uniform(2, 4, (p, 1))
            with pytest.raises(SingularSampleError):
                sample_stats(y).factorization

    def test_large_means_keep_full_rank(self, rng):
        # and means of 1e8 times the spread leave every full-rank sample passing
        p, n = 5, 50
        for _ in range(200):
            spread = rng.uniform(0.1, 10, (p, 1))
            y = (rng.standard_normal((p, n)) + 1e8) * spread
            assert sample_stats(y).factorization.cholesky.dim == p

    def test_cholesky_route(self, rng):
        y = rng.standard_normal((4, 20))
        stats = sample_stats(y)
        v = rng.standard_normal(4)
        assert stats.factorization.cholesky.dim == 4
        assert stats.mean_gram(v)[1, 1] == pytest.approx(
            v @ np.linalg.inv(sample_covariance(y)) @ v, rel=1e-10
        )
        assert np.array_equal(stats.projected_mean(), stats.y_bar)

    def test_failure_built_once_and_raised_each_time(self, monkeypatch):
        calls = []
        original = shrinkmean.model.spd_factor

        def counting(a):
            calls.append(1)
            return original(a)

        monkeypatch.setattr(shrinkmean.model, "spd_factor", counting)
        stats = sample_stats(np.tile(np.array([1.0, 2.0])[:, None], (1, 5)))
        for _ in range(3):
            with pytest.raises(SingularSampleError):
                stats.whiten(np.ones(2))
        assert len(calls) == 1
        assert stats.y_bar.tolist() == [1.0, 2.0]  # statistics stay readable


class TestPopulationValidation:
    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatchError):
            PopulationSpec(p=3, mu_n=np.zeros(2), mu_0=np.zeros(3), **eigenpairs(np.eye(3)))


def _cell_stats():
    return sample_stats(np.random.default_rng(0).standard_normal((4, 8)))


@pytest.mark.parametrize("build", [
    lambda: cell_population(McConfig(p_grid=(4,), c_grid=(0.5,)), 4, 0.5),
    lambda: spd_factor(np.eye(3)),
    _cell_stats,
    lambda: _cell_stats().factorization,
    lambda: ReturnsPanel(values=np.zeros((3, 2))),
    lambda: run_study(McConfig(p_grid=(4,), c_grid=(0.5,), n_reps=2)).cells[0],
], ids=["PopulationSpec", "SpdFactor", "SampleStats", "_Factorization",
        "ReturnsPanel", "CellResult"])
def test_array_holders_compare_by_identity(build):
    # field-wise == over ndarrays raises or compares shared arrays, and
    # hashing them raises: a value holding arrays is equal only to itself
    value = build()
    assert value == value
    assert value != copy.copy(value)
    assert hash(value) == hash(value)
