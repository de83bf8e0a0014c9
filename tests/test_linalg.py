import ctypes
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import bare_population, eigen_population, rand_spd
from shrinkmean import linalg
from shrinkmean.errors import DimensionMismatchError, NotPositiveDefiniteError
from shrinkmean.linalg import (
    SpdFactor,
    blas_threads,
    fewer_blas_threads,
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

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_symmetry_tolerance_at_every_scale(self, scale):
        # an exactly symmetric matrix skips the a - a.T test; any other meets
        # the same bound, 1e-12 of the largest entry magnitude (here scale)
        a = scale * np.array([[1.0, 0.25], [0.25, 1.0]])
        spd_factor(a)
        near, far = a.copy(), a.copy()
        near[0, 1] += 0.5e-12 * scale
        far[0, 1] += 2e-12 * scale
        assert not np.array_equal(near, near.T)
        np.testing.assert_array_equal(spd_factor(near).lower, np.linalg.cholesky(near))
        with pytest.raises(ValueError, match="not symmetric"):
            spd_factor(far)

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

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatchError):
            spd_factor(np.zeros((0, 0)))


DIMS, COLUMNS = (2, 24, 124), (None, 1, 2, 5)


def both_routes(monkeypatch, solve, factor, b):
    """``solve(factor, b)`` in C and in F order, through the resolved CBLAS
    ``dtrsv`` and through the ``np.linalg.solve`` fallback that a resolver
    finding none of its names leaves: four results, each of b's shape."""
    results = [solve(factor, np.asarray(b, order=order)) for order in "CF"]
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_dtrsv", linalg._resolve_dtrsv(SimpleNamespace()))
        results += [solve(factor, np.asarray(b, order=order)) for order in "CF"]
    assert all(x.shape == np.shape(b) for x in results)
    scale = np.max(np.abs(results[0]))
    assert all(np.max(np.abs(x - results[0])) <= 1e-12 * scale for x in results)
    return results


class TestSpdWhiten:
    def test_gram_is_inverse_form(self, rng, monkeypatch):
        a = rand_spd(rng, 6)
        b = rng.standard_normal((6, 3))
        white = spd_whiten(spd_factor(a), b)
        assert np.allclose(white.T @ white, b.T @ np.linalg.inv(a) @ b, atol=1e-10)
        # every route and input order, at the dimensions spd_solve is tested at
        for dim in DIMS:
            factor = spd_factor(rand_spd(rng, dim))
            for columns in COLUMNS:
                b = rng.standard_normal(dim if columns is None else (dim, columns))
                for white in both_routes(monkeypatch, spd_whiten, factor, b):
                    assert np.max(np.abs(factor.lower @ white - b)) <= 1e-12 * np.max(np.abs(b))

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
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("columns", COLUMNS)
    def test_equals_linalg_solve(self, rng, monkeypatch, dim, columns):
        a = rand_spd(rng, dim)
        b = rng.standard_normal(dim if columns is None else (dim, columns))
        expected = np.linalg.solve(a, b)
        for x in both_routes(monkeypatch, spd_solve, spd_factor(a), b):
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
    # the symmetric root that a population's checked eigenpairs give

    def test_identity(self):
        assert np.allclose(bare_population(np.eye(4)).sigma_sqrt(), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        assert np.allclose(bare_population(np.diag([4.0, 16.0])).sigma_sqrt(), np.diag([2.0, 4.0]))

    def test_square_back(self, rng):
        a = rand_spd(rng, 5)
        b = bare_population(a).sigma_sqrt()
        assert np.linalg.norm(b @ b - a) / np.linalg.norm(a) < 1e-10

    def test_symmetric_psd(self, rng):
        a = rand_spd(rng, 6)
        b = bare_population(a).sigma_sqrt()
        assert np.array_equal(b, b.T)
        assert np.linalg.eigvalsh(b).min() >= -1e-10

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            eigen_population(np.array([-1.0, 1.0]), np.eye(2))

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
            eigen_population(values, vectors)


class TestEigenWhiten:
    @pytest.mark.parametrize("basis", ["standard", "dense"])
    def test_vector_is_its_one_column(self, rng, basis):
        # a k-vector whitens to a k-vector on either basis, not to a k x k
        # broadcast of it
        vectors = None if basis == "standard" else haar_orthogonal(4, rng)
        eigen = eigen_population(rng.uniform(1.0, 10.0, 4), vectors)
        v = rng.standard_normal(4)
        white = eigen.whiten(v)
        assert white.shape == (4,)
        if vectors is None:  # a row scaling, with no BLAS call
            np.testing.assert_array_equal(white, eigen.whiten(v[:, None])[:, 0])
        else:  # a GEMV and a GEMM column may round differently
            np.testing.assert_allclose(white, eigen.whiten(v[:, None])[:, 0],
                                       rtol=1e-14, atol=1e-14)


class TestEigenColor:
    def test_root_product_read_in_the_eigenbasis(self, rng):
        # Q' (B z) for the root B, without B
        eigen = eigen_population(rng.uniform(1.0, 10.0, 6), haar_orthogonal(6, rng))
        z = rng.standard_normal((6, 4))
        np.testing.assert_allclose(eigen.color(z), eigen.vectors.T @ (eigen.sigma_sqrt() @ z),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("basis", ["standard", "dense"])
    def test_vector_is_its_one_column_and_input_kept(self, rng, basis):
        vectors = None if basis == "standard" else haar_orthogonal(4, rng)
        eigen = eigen_population(rng.uniform(1.0, 10.0, 4), vectors)
        z = rng.standard_normal((4, 3))
        kept = z.copy()
        colored = eigen.color(z)
        np.testing.assert_array_equal(z, kept)
        # a GEMV and a GEMM column may round differently
        assert eigen.color(z[:, 0]).shape == (4,)
        np.testing.assert_allclose(eigen.color(z[:, 0]), colored[:, 0], rtol=1e-14, atol=1e-14)
        if vectors is None:
            np.testing.assert_array_equal(colored, np.sqrt(eigen.values)[:, None] * z)

    def test_whiten_undoes_it_on_the_standard_basis(self, rng):
        values = rng.uniform(1.0, 10.0, 5)
        z = rng.standard_normal((5, 2))
        plain = eigen_population(values, None)
        np.testing.assert_allclose(plain.whiten(plain.color(z)), z, rtol=1e-15, atol=0)


@pytest.mark.parametrize("build", [
    lambda: SpdFactor(dim=3, lower=np.eye(2), pivot_floor=0.0),
    lambda: eigen_population(np.ones((2, 2)), None),
    lambda: eigen_population(np.ones((2, 2)), np.eye(2)),
], ids=["factor-not-dim-square", "values-not-a-vector", "values-not-a-vector-with-vectors"])
def test_malformed_shape_rejected(build):
    with pytest.raises(DimensionMismatchError):
        build()


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


class TestFewerBlasThreads:
    @pytest.fixture
    def fake(self, monkeypatch):
        """A stand-in library at 4 threads in place of numpy's OpenBLAS."""
        count = [4]
        monkeypatch.setattr(linalg, "_get_threads", lambda: count[0])
        monkeypatch.setattr(linalg, "_set_threads", lambda value: count.__setitem__(0, value))
        return count

    def test_one_fewer_never_below_one(self, fake):
        for start, lowered in ((4, 3), (1, 1)):
            fake[0] = start
            with fewer_blas_threads():
                assert blas_threads() == lowered
            assert fake == [start]

    def test_restored_after_an_error(self, fake):
        with pytest.raises(KeyError), fewer_blas_threads():
            raise KeyError("inside")
        assert fake == [4]

    def test_nested_entries_lower_once(self, fake):
        with fewer_blas_threads():
            with fewer_blas_threads():
                assert fake == [3]
            assert fake == [3]
        assert fake == [4]

    def test_overlapping_threads_restore_on_the_last_exit(self, fake):
        # entered on this thread, then on another that exits first, and the
        # other way round: the count stays lowered until both have left
        entered, release = threading.Event(), threading.Event()

        def other():
            with fewer_blas_threads():
                entered.set()
                release.wait(10)

        with fewer_blas_threads():
            worker = threading.Thread(target=other)
            worker.start()
            assert entered.wait(10)
        assert fake == [3]
        release.set()
        worker.join(10)
        assert not worker.is_alive()
        assert fake == [4]

    def test_many_threads_entering_at_once(self, fake):
        # more threads than cores, switching every microsecond: a lost update
        # of the entry count would lower twice or restore while one is inside
        seen, errors = set(), []

        def enter_repeatedly():
            try:
                for _ in range(200):
                    with fewer_blas_threads():
                        seen.add(fake[0])
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_repeatedly) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers) and not errors
        assert seen == {3}
        assert fake == [4]

    def test_without_a_library_it_does_nothing(self, monkeypatch):
        monkeypatch.setattr(linalg, "_get_threads", None)
        monkeypatch.setattr(linalg, "_set_threads", None)
        with fewer_blas_threads():
            assert blas_threads() is None

    def test_real_counts_lowered_and_restored(self):
        before = blas_threads()
        with fewer_blas_threads():
            assert blas_threads() == (None if before is None else max(1, before - 1))
        assert blas_threads() == before

    def test_probe_finds_the_wheel_openblas(self):
        # a change of wheel layout or symbol names would otherwise turn the
        # limit into a silent no-op
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # numpy < 1.26 prints its config only
            pytest.skip("numpy does not report its BLAS as a dict")
        if blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy is built against {blas.get('name')}, not scipy-openblas")
        assert blas_threads() is not None
        assert linalg._dtrsv is not None  # or every solve takes the fallback


def fake_library(*names):
    """A stand-in for a ctypes library that exports exactly ``names``, each a
    routine whose ``__name__`` is its name and whose signature can be set."""
    return SimpleNamespace(**{name: SimpleNamespace(__name__=name) for name in names})


class TestProbeNames:
    # one name family each: the scipy-openblas ILP64 build of numpy's 2.x
    # wheels, a plain ILP64 OpenBLAS, and an LP64 OpenBLAS such as numpy 1.x
    # wheels link
    @pytest.mark.parametrize("dtrsv, integer, stem, suffix", [
        ("scipy_cblas_dtrsv64_", ctypes.c_int64, "scipy_openblas", "64_"),
        ("cblas_dtrsv64_", ctypes.c_int64, "openblas", "64_"),
        ("cblas_dtrsv", ctypes.c_int, "openblas", ""),
    ], ids=["scipy-openblas-ilp64", "openblas-ilp64", "openblas-lp64"])
    def test_each_family_resolves_with_its_integer_width(self, dtrsv, integer, stem, suffix):
        get_name, set_name = f"{stem}_get_num_threads{suffix}", f"{stem}_set_num_threads{suffix}"
        lib = fake_library(dtrsv, get_name, set_name)
        routine = linalg._resolve_dtrsv(lib)
        assert routine.__name__ == dtrsv
        assert routine.argtypes == (ctypes.c_int,) * 4 + (integer, ctypes.c_void_p, integer,
                                                          ctypes.c_void_p, integer)
        assert routine.restype is None
        get, put = linalg._resolve_thread_controls(lib)
        assert (get.__name__, put.__name__) == (get_name, set_name)
        assert (get.argtypes, get.restype) == ((), ctypes.c_int)
        assert (put.argtypes, put.restype) == ((ctypes.c_int,), None)

    def test_ilp64_names_come_first(self):
        lib = fake_library("cblas_dtrsv", "cblas_dtrsv64_", "scipy_cblas_dtrsv64_")
        assert linalg._resolve_dtrsv(lib).__name__ == "scipy_cblas_dtrsv64_"

    def test_a_getter_without_its_setter_gives_no_control(self):
        # each family lacks its setter, and the one setter present belongs to
        # another family than the getters: no pair, so no thread control
        lib = fake_library("scipy_openblas_get_num_threads64_", "openblas_get_num_threads",
                           "openblas_set_num_threads64_")
        assert linalg._resolve_thread_controls(lib) == (None, None)
