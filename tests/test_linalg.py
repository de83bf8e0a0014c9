import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import eigenpairs, rand_spd
from shrinkmean.errors import DimensionMismatchError, NotPositiveDefiniteError
from shrinkmean.linalg import (
    SpdEigen,
    haar_orthogonal,
    spd_factor,
    spd_solve,
    spd_whiten,
)


class TestSpdFactor:
    def test_identity(self):
        f = spd_factor(np.eye(3))
        assert np.allclose(f.lower, np.eye(3), atol=1e-14)
        assert f.dim == 3

    def test_diagonal(self):
        f = spd_factor(np.diag([4.0, 9.0]))
        assert np.allclose(f.lower, np.diag([2.0, 3.0]), atol=1e-14)

    def test_reconstruction(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        f = spd_factor(a)
        assert np.max(np.abs(f.lower @ f.lower.T - a)) < 1e-12

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_factor(np.diag([1.0, 0.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            spd_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1.0, 1e-13, 1e13])
    def test_symmetry_check_is_scale_free(self, scale):
        # the tolerance is relative to the largest entry at every scale, or
        # a tiny asymmetric matrix would pass and its lower triangle, another
        # matrix, be factored
        a = scale * np.array([[2.0, 1.0], [0.5, 2.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            spd_factor(a)
        f = spd_factor((a + a.T) / 2.0)
        assert np.allclose(f.lower @ f.lower.T, (a + a.T) / 2.0, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_rejected(self, bad, where):
        # a NaN pivot compares False with the floor either way round
        a = 2.0 * np.eye(3)
        a[where] = a[where[::-1]] = bad
        with pytest.raises(NotPositiveDefiniteError):
            spd_factor(a)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatchError):
            spd_factor(np.ones((2, 3)))


class TestSpdWhiten:
    def test_gram_is_inverse_form(self, rng):
        a = rand_spd(rng, 6)
        b = rng.standard_normal((6, 3))
        white = spd_whiten(spd_factor(a), b)
        assert np.allclose(white.T @ white, b.T @ np.linalg.inv(a) @ b, atol=1e-10)

    def test_vector_is_triangular_solve(self, rng):
        a = rand_spd(rng, 5)
        f = spd_factor(a)
        v = rng.standard_normal(5)
        white = spd_whiten(f, v)
        assert white.shape == (5,)
        assert np.allclose(f.lower @ white, v, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            spd_whiten(spd_factor(np.eye(3)), np.ones(4))


class TestSpdSolve:
    @pytest.mark.parametrize("dim", [2, 24, 124])
    @pytest.mark.parametrize("columns", [None, 1, 2, 5])
    def test_equals_linalg_solve(self, rng, dim, columns):
        a = rand_spd(rng, dim)
        b = rng.standard_normal(dim if columns is None else (dim, columns))
        x = spd_solve(spd_factor(a), b)
        assert x.shape == b.shape
        expected = np.linalg.solve(a, b)
        assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_unchanged(self, rng, order):
        f = spd_factor(rand_spd(rng, 6))
        lower = f.lower.copy()
        for b in (rng.standard_normal(6), np.asarray(rng.standard_normal((6, 2)), order=order)):
            kept = b.copy()
            spd_solve(f, b)
            np.testing.assert_array_equal(b, kept)
        np.testing.assert_array_equal(f.lower, lower)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            spd_solve(spd_factor(np.eye(3)), np.ones((4, 2)))


class TestSymSqrt:
    # the symmetric root that checked eigenpairs give

    def test_identity(self):
        assert np.allclose(eigenpairs(np.eye(4)).root, np.eye(4), atol=1e-12)

    def test_diagonal(self):
        assert np.allclose(eigenpairs(np.diag([4.0, 16.0])).root, np.diag([2.0, 4.0]))

    def test_square_back(self, rng):
        a = rand_spd(rng, 5)
        b = eigenpairs(a).root
        assert np.linalg.norm(b @ b - a) / np.linalg.norm(a) < 1e-10

    def test_symmetric_psd(self, rng):
        a = rand_spd(rng, 6)
        b = eigenpairs(a).root
        assert np.array_equal(b, b.T)
        assert np.linalg.eigvalsh(b).min() >= -1e-10

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            SpdEigen(values=np.array([-1.0, 1.0]), vectors=np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_rejected(self, bad, where):
        # the eigenpairs of 2 I with a bad entry: a bad eigenvalue on the
        # diagonal, a bad eigenvector entry off it
        values, vectors = np.full(3, 2.0), np.eye(3)
        if where == (0, 0):
            values[0] = bad
        else:
            vectors[where] = vectors[where[::-1]] = bad
        with pytest.raises(NotPositiveDefiniteError):
            SpdEigen(values=values, vectors=vectors)


class TestHaarOrthogonal:
    def test_p1_sign(self):
        # the positive-diagonal convention leaves a unit entry of either sign
        seen = set()
        for seed in range(20):
            q = haar_orthogonal(1, np.random.default_rng(seed))
            assert abs(abs(q[0, 0]) - 1.0) < 1e-14
            seen.add(np.sign(q[0, 0]))
        assert seen == {1.0, -1.0}

    def test_orthogonality(self):
        q = haar_orthogonal(4, np.random.default_rng(7))
        assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-10

    def test_determinant(self, rng):
        for _ in range(25):
            q = haar_orthogonal(5, rng)
            assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-8

    def test_first_coordinate_mean(self):
        # Monte Carlo moment: entries have mean 0
        rng = np.random.default_rng(99)
        n_draws = 10_000
        vals = np.array([haar_orthogonal(4, rng)[0, 0] for _ in range(n_draws)])
        assert abs(vals.mean()) < 3.0 / np.sqrt(n_draws)

    def test_rotation_invariance(self):
        # distribution of an entry is unchanged under a fixed rotation
        rng = np.random.default_rng(5)
        rot = haar_orthogonal(3, np.random.default_rng(123))
        a = np.array([haar_orthogonal(3, rng)[0, 0] for _ in range(3000)])
        b = np.array([(rot @ haar_orthogonal(3, rng))[0, 0] for _ in range(3000)])
        assert ks_2samp(a, b).pvalue > 0.01

    def test_invalid_p(self):
        with pytest.raises(DimensionMismatchError):
            haar_orthogonal(0, np.random.default_rng(0))

    def test_deterministic_per_seed(self):
        q1 = haar_orthogonal(6, np.random.default_rng(11))
        q2 = haar_orthogonal(6, np.random.default_rng(11))
        assert np.array_equal(q1, q2)
