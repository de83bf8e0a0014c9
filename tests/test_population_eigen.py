"""The eigenpairs that are a population's covariance, and the one
eigendecomposition per population that samples and scores a cell.

A population's covariance is given only as its eigenpairs, checked when the
population is built; a simulated population carries those its covariance
was drawn from.  Its symmetric root generates the samples and its precision
whitening scores every estimate of a replication in one product and gives
the oracle and limit weights their Gram.  Covers the construction checks;
those quantities against direct ``eigh`` / ``solve`` / ``inv`` oracles, for
simulated populations and for populations whose eigenpairs the test takes
from one ``eigh`` of a bare sigma; and guards that a study cell and the
``qq`` command never factorize sigma, that a sample or backtest
window-period makes one Cholesky and no ``eigh``, and that the only BLAS or
LAPACK routine of ``scipy.linalg`` that runs, on either side of p = n, is a
triangular solve of at most two columns.
"""

import importlib
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.linalg

import shrinkmean.harness
from conftest import bare_population, covariance, rand_spd
from shrinkmean.cli import main
from shrinkmean.errors import (
    DimensionMismatchError,
    NonFiniteDataError,
    NotPositiveDefiniteError,
)
from shrinkmean.estimators import (
    ESTIMATORS,
    NEEDS_POPULATION,
    limit_intensities,
    oracle_intensities,
)
from shrinkmean.finance import BacktestConfig, ReturnsPanel, rolling_backtest
from shrinkmean.harness import (
    McConfig,
    cell_population,
    cell_sample_size,
    quadratic_loss,
    replication_rng,
    run_cell,
    run_study,
)
from shrinkmean.linalg import SpdEigen
from shrinkmean.model import PopulationSpec, generate_sample, sample_stats

ALL_MC = ("sample-mean", "olse", "olse-asymptotic", "olse-oracle", "js",
          "js-high-dim", "js-positive-part", "wang")


def _eigh_root(sigma):
    vals, vecs = np.linalg.eigh(sigma)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _bare(sigma, rng):
    p = sigma.shape[0]
    return bare_population(sigma, rng.standard_normal(p), rng.standard_normal(p))


def _recording(calls, name, original):
    """``original`` wrapped to append the shape of its first argument to
    ``calls[name]`` on every call."""
    def wrapper(a, *args, **kwargs):
        calls[name].append(np.shape(a))
        return original(a, *args, **kwargs)
    return wrapper


class TestPopulationEigenpairs:
    @pytest.mark.parametrize("source", ["cell", "bare"])
    def test_batched_losses_match_solve(self, rng, source):
        if source == "cell":
            pop = cell_population(McConfig(p_grid=(60,), c_grid=(0.5,), seed=3), 60, 0.5)
        else:
            pop = _bare(rand_spd(rng, 60), rng)
        stack = pop.mu_n[:, None] + rng.standard_normal((60, 7)) * np.logspace(-3, 2, 7)
        losses = quadratic_loss(stack, pop)
        assert losses.shape == (7,)
        for k in range(7):
            d = stack[:, k] - pop.mu_n
            expected = d @ np.linalg.solve(covariance(pop.eigen), d)
            assert abs(losses[k] - expected) <= 1e-10 * expected

    def test_carried_root_matches_eigh_root(self):
        pop = cell_population(McConfig(p_grid=(80,), c_grid=(2.0,), seed=5), 80, 2.0)
        expected = _eigh_root(covariance(pop.eigen))
        root = pop.sigma_sqrt()
        assert np.array_equal(root, root.T)
        assert np.linalg.norm(root - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_bare_sigma_root(self, rng):
        sigma = rand_spd(rng, 12)
        root = _bare(sigma, rng).sigma_sqrt()
        assert np.linalg.norm(root - _eigh_root(sigma)) <= 1e-12 * np.linalg.norm(sigma)

    @pytest.mark.parametrize("source", ["cell", "bare"])
    def test_precision_gram_matches_inverse_form(self, rng, source):
        if source == "cell":
            pop = cell_population(McConfig(p_grid=(40,), c_grid=(2.0,), seed=7), 40, 2.0)
        else:
            pop = _bare(rand_spd(rng, 5), rng)
        vectors = [rng.standard_normal(pop.p) for _ in range(3)]
        v = np.column_stack(vectors)
        expected = v.T @ np.linalg.inv(covariance(pop.eigen)) @ v
        assert np.allclose(pop.precision_gram(*vectors), expected, rtol=1e-10, atol=0)

    def test_whitening_inverts_sigma(self, rng):
        pop = _bare(rand_spd(rng, 10), rng)
        w = pop.whitening()
        assert np.allclose(w.T @ w, np.linalg.inv(covariance(pop.eigen)), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("use", ["sigma_sqrt", "whitening"])
    def test_bare_indefinite_sigma_rejected(self, use):
        # rejected when the population is built, before either use
        with pytest.raises(NotPositiveDefiniteError):
            getattr(bare_population(np.diag([1.0, -1.0]), np.zeros(2), np.ones(2)), use)()


def _built(values, vectors):
    """A 3-dimensional population of the given eigenpairs."""
    return PopulationSpec(p=3, gamma=0, mu_n=np.zeros(3), mu_0=np.ones(3),
                          eigen=SpdEigen(values=values, vectors=vectors))


class TestPopulationChecks:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_eigenvalue_rejected(self, bad):
        with pytest.raises(NotPositiveDefiniteError):
            _built(np.array([1.0, bad, 2.0]), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_eigenvector_rejected(self, bad):
        vectors = np.eye(3)
        vectors[2, 1] = bad
        with pytest.raises(NotPositiveDefiniteError):
            _built(np.ones(3), vectors)

    @pytest.mark.parametrize("values, vectors", [
        (np.ones(3), np.eye(4)[:3]),  # 3 x 4 vectors
        (np.ones(2), np.eye(2)),  # 2 eigenpairs of a 3-dimensional population
        (np.ones(4), np.eye(4)),
    ])
    def test_wrong_shapes_rejected(self, values, vectors):
        with pytest.raises(DimensionMismatchError):
            _built(values, vectors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["mu_n", "mu_0"])
    def test_non_finite_mean_rejected(self, bad, field):
        # rejected when built, not left to make NaN oracle and limit weights
        means = {"mu_n": np.zeros(3), "mu_0": np.ones(3)}
        means[field][1] = bad
        with pytest.raises(NonFiniteDataError):
            PopulationSpec(p=3, gamma=0, eigen=SpdEigen(values=np.ones(3), vectors=np.eye(3)),
                           **means)

    def test_root_is_exactly_symmetric(self):
        pop = cell_population(McConfig(p_grid=(50,), c_grid=(0.5,), seed=2), 50, 0.5)
        root = pop.sigma_sqrt()
        assert np.array_equal(root, root.T)
        assert pop.sigma_sqrt() is root  # read once

    def test_replaced_target_keeps_root_and_whitening(self, rng):
        # run_cell's route to another target on the same population reuses
        # the views already read, not copies of them
        pop = cell_population(McConfig(p_grid=(30,), c_grid=(2.0,), seed=4), 30, 2.0)
        root, whitening = pop.sigma_sqrt(), pop.whitening()
        other = replace(pop, mu_0=rng.standard_normal(30))
        assert other.eigen is pop.eigen
        assert other.sigma_sqrt() is root
        assert other.whitening() is whitening

    def test_fields_cannot_be_assigned(self):
        pop = cell_population(McConfig(p_grid=(5,), c_grid=(0.5,)), 5, 0.5)
        for name, value in (("mu_0", np.zeros(5)), ("eigen", None), ("p", 6)):
            with pytest.raises(FrozenInstanceError):
                setattr(pop, name, value)


class TestCellWeights:
    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_match_bare_sigma_entry_points(self, c):
        p, n_reps = 30, 5
        config = McConfig(p_grid=(p,), c_grid=(c,), n_reps=n_reps, seed=11,
                          estimators=("olse-oracle", "olse-asymptotic"))
        cell = run_study(config).cells[0]
        pop = cell_population(config, p, c)
        n = cell_sample_size(p, c)

        bare = bare_population(covariance(pop.eigen), pop.mu_n, pop.mu_0)  # eigenpairs from eigh
        limit = limit_intensities(bare, p / n)
        for r in range(n_reps):
            y = generate_sample(pop, n, config.law, replication_rng(config.seed, p, c, r))
            y_bar = sample_stats(y).y_bar
            w = oracle_intensities(y_bar, bare)
            assert cell.weights["olse-oracle"][r] == pytest.approx([w.alpha, w.beta], rel=1e-10)
            limit_mean = limit.alpha * y_bar + limit.beta * pop.mu_0
            assert cell.losses["olse-asymptotic"][r] == pytest.approx(
                quadratic_loss(limit_mean[:, None], bare)[0], rel=1e-10)

    def test_zero_target_fails_like_bare_sigma(self):
        # both degeneracy checks fire on the cell path as on a bare sigma
        p = 20
        config = McConfig(p_grid=(p,), c_grid=(0.5,), n_reps=3,
                          estimators=("sample-mean", "olse-oracle", "olse-asymptotic"))
        pop = replace(cell_population(config, p, 0.5), mu_0=np.zeros(p))
        cell = run_cell(config, pop, 0.5)
        assert cell.failures == {"sample-mean": 0, "olse-oracle": 3, "olse-asymptotic": 3}


class TestOneEigendecompositionPerPopulation:
    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_study_cell(self, monkeypatch, c):
        p, n_reps = 40, 6
        n = cell_sample_size(p, c)
        calls = {"eigh": [], "cholesky": [], "cho_solve": 0, "quadratic_loss": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", _recording(calls, "eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "cholesky",
                            _recording(calls, "cholesky", np.linalg.cholesky))
        monkeypatch.setattr(scipy.linalg, "cho_solve",
                            counting("cho_solve", scipy.linalg.cho_solve))
        monkeypatch.setattr(shrinkmean.harness, "quadratic_loss",
                            counting("quadratic_loss", quadratic_loss))

        config = McConfig(p_grid=(p,), c_grid=(c,), n_reps=n_reps, estimators=ALL_MC)
        cell = run_study(config).cells[0]
        assert cell.failures["olse"] == 0 and cell.failures["olse-oracle"] == 0

        # no eigh, and one Cholesky per sample: of S for p < n, of the
        # reflected (n-1) x (n-1) Gram for p > n
        assert calls["eigh"] == []
        assert calls["cholesky"] == [(p, p) if p < n else (n - 1, n - 1)] * n_reps
        assert calls["cho_solve"] == 0
        assert calls["quadratic_loss"] == n_reps

    def test_backtest_window_periods(self, monkeypatch, rng):
        # p > n: every estimator of a window-period reads one Cholesky of
        # the reflected (n-1) x (n-1) Gram, and no eigh runs
        calls = {"eigh": [], "cholesky": []}
        monkeypatch.setattr(np.linalg, "eigh", _recording(calls, "eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "cholesky",
                            _recording(calls, "cholesky", np.linalg.cholesky))
        panel = ReturnsPanel(values=rng.standard_normal((20, 30)) * 0.02)
        names = tuple(e for e in ESTIMATORS if e not in NEEDS_POPULATION)
        config = BacktestConfig(windows=(5, 10), estimators=names)
        report = rolling_backtest(panel, config)
        # js needs p < n and fails every window-period; nothing else fails
        assert all(row.failures == (20 - row.window_n if row.estimator == "js" else 0)
                   for row in report.rows)
        assert calls["eigh"] == []
        assert calls["cholesky"] == [(4, 4)] * (20 - 5) + [(9, 9)] * (20 - 10)

    @pytest.mark.parametrize("quantity", ["alpha-bf", "alpha-oracle"])
    def test_qq_command(self, monkeypatch, tmp_path, capsys, quantity):
        # one Haar draw for the cell's population, which then feeds the study
        # and the limit, precision-form and covariance calls alike: no second
        # population and no Cholesky of sigma, only that of each sample's S
        # when the bona fide weights run
        p, n_reps = 60, 20
        calls = {"qr": [], "cholesky": []}
        monkeypatch.setattr(np.linalg, "qr", _recording(calls, "qr", np.linalg.qr))
        monkeypatch.setattr(np.linalg, "cholesky",
                            _recording(calls, "cholesky", np.linalg.cholesky))
        code = main(["qq", quantity, "--p", str(p), "--c", "0.5", "--n-reps", str(n_reps),
                     "--out", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        assert len((tmp_path / "qq.csv").read_text().splitlines()) == 1 + n_reps
        assert calls["qr"] == [(p, p)]
        assert calls["cholesky"] == ([(p, p)] * n_reps if quantity.endswith("-bf") else [])


@pytest.fixture
def scipy_blas_calls(monkeypatch):
    """(name, columns) of the BLAS and LAPACK routines of ``scipy.linalg``
    called while the test runs: its f2py wrappers, whether called directly or
    fetched through the memoized ``get_blas_funcs`` / ``get_lapack_funcs``,
    and, where the installed scipy has them, the batched C kernels behind
    ``scipy.linalg.inv`` and ``solve``.
    ``columns`` is that of the last positional array argument, the right-hand
    side of a solve (1 for a vector, None when no array is passed)."""
    calls = []

    def counting(name, routine):
        def wrapper(*args, **kwargs):
            arrays = [a for a in args if isinstance(a, np.ndarray)]
            columns = None if not arrays else (
                arrays[-1].shape[1] if arrays[-1].ndim == 2 else 1)
            calls.append((name, columns))
            return routine(*args, **kwargs)
        return wrapper

    for module_name in ("blas", "lapack", "_fblas", "_flapack", "_batched_linalg"):
        try:
            module = importlib.import_module(f"scipy.linalg.{module_name}")
        except ImportError:
            continue  # older scipy (1.10) has no _batched_linalg
        for name, routine in list(vars(module).items()):
            if type(routine).__name__ in ("fortran", "builtin_function_or_method"):
                monkeypatch.setattr(module, name, counting(name, routine))
    memos = (scipy.linalg.blas.get_blas_funcs.memo, scipy.linalg.lapack.get_lapack_funcs.memo)
    saved = [dict(memo) for memo in memos]
    for memo in memos:
        memo.clear()
    yield calls
    for memo, entries in zip(memos, saved):
        memo.clear()
        memo.update(entries)


class TestOneBlas:
    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_no_scipy_blas_above_p_equals_n(self, scipy_blas_calls, c):
        """scipy.linalg links its own OpenBLAS, with its own thread pool.

        Where numpy's pool has just run, a wide scipy call spins against it:
        on a 2-core x86-64 host with two-thread OpenBLAS 0.3.31, building
        G^{-1} of a 250 x 125 sample with scipy's ``dpotri`` made its
        factorization and one whitening of 127 columns 5x slower than
        ``np.linalg.inv`` (8.0 ms against 1.6 ms, median of 35 samples).  A
        triangular solve of at most two columns does not: timed in place,
        right after a numpy GEMM, ``linalg.spd_solve`` (two ``dtrsm``) of
        two columns against that G took 0.03-0.07 ms, against 0.2-0.27 ms
        for numpy's own ``np.linalg.solve(G, .)``, while 125 columns took
        1.0-1.5 ms against numpy's 0.82 ms (medians of 35 samples).  So on
        both routes the only scipy routine is ``dtrsm`` (or ``dpotrs``), and
        it never solves for more than the two columns of a precision Gram.
        """
        # the counter sees every route, and the width of a solve; inv runs
        # a batched kernel or getrf / getri, as the scipy version has it
        scipy.linalg.cho_factor(np.eye(2))
        assert scipy_blas_calls == [("dpotrf", 2)]
        scipy_blas_calls.clear()
        scipy.linalg.inv(np.eye(2))
        assert scipy_blas_calls
        scipy_blas_calls.clear()
        scipy.linalg.blas.dtrsm(1.0, np.eye(2), np.ones(2))
        assert scipy_blas_calls == [("dtrsm", 1)]
        scipy_blas_calls.clear()

        config = McConfig(p_grid=(40,), c_grid=(c,), n_reps=3, estimators=ALL_MC)
        cell = run_study(config).cells[0]
        assert cell.failures["olse"] == 0 and cell.failures["wang" if c > 1 else "js"] == 0
        assert {name for name, _ in scipy_blas_calls} == {"dtrsm"}
        assert {columns for _, columns in scipy_blas_calls} <= {1, 2}
