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
window-period makes one Cholesky and no ``eigh``, and that neither side of
p = n nor the backtest loads scipy, or with it a second BLAS.
"""

import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import shrinkmean
import shrinkmean.harness
from conftest import bare_population, covariance, rand_spd
from sampling import generate_sample
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
from shrinkmean.model import PopulationSpec, sample_stats

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
            expected = d @ np.linalg.solve(covariance(pop.values, pop.vectors), d)
            assert abs(losses[k] - expected) <= 1e-10 * expected

    def test_carried_root_matches_eigh_root(self):
        pop = cell_population(McConfig(p_grid=(80,), c_grid=(2.0,), seed=5), 80, 2.0)
        expected = _eigh_root(covariance(pop.values, pop.vectors))
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
        expected = v.T @ np.linalg.inv(covariance(pop.values, pop.vectors)) @ v
        assert np.allclose(pop.precision_gram(*vectors), expected, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("source", ["cell", "bare"])
    def test_rotated_frame_keeps_precision_forms(self, rng, source):
        # the eigenbasis frame holds Q' mu_n, Q' mu_0 and Q' 1 on the
        # standard basis, and every sigma^{-1} form of rotated vectors,
        # the loss included, is the population's
        if source == "cell":
            pop = cell_population(McConfig(p_grid=(40,), c_grid=(2.0,), seed=7), 40, 2.0)
        else:
            pop = _bare(rand_spd(rng, 8), rng)
        frame, q = pop.rotated(), pop.vectors
        assert frame.vectors is None
        np.testing.assert_array_equal(frame.values, pop.values)
        for image, vector in ((frame.mu_n, pop.mu_n), (frame.mu_0, pop.mu_0),
                              (frame.ones, np.ones(pop.p))):
            np.testing.assert_allclose(q @ image, vector, rtol=1e-12, atol=1e-14)
        stack = pop.mu_n[:, None] + rng.standard_normal((pop.p, 3))
        np.testing.assert_allclose(quadratic_loss(q.T @ stack, frame), quadratic_loss(stack, pop),
                                   rtol=1e-12, atol=0)
        vectors = [rng.standard_normal(pop.p) for _ in range(3)]
        gram = pop.precision_gram(*vectors)
        np.testing.assert_allclose(frame.precision_gram(*(q.T @ v for v in vectors)), gram,
                                   rtol=0, atol=1e-12 * np.abs(gram).max())

    def test_frames_carry_the_direction(self, rng):
        # the whitened frame holds R^{-1} 1; on the standard basis the
        # eigenbasis frame is the population itself
        pop = _bare(rand_spd(rng, 8), rng)
        np.testing.assert_allclose(pop.sigma_sqrt() @ pop.whitened().ones, np.ones(8),
                                   rtol=1e-12, atol=0)
        plain = PopulationSpec(p=8, mu_n=pop.mu_n, mu_0=pop.mu_0, values=pop.values, vectors=None)
        assert plain.rotated() is plain

    def test_whitening_inverts_sigma(self, rng):
        pop = _bare(rand_spd(rng, 10), rng)
        w = pop.whiten(np.eye(10))  # W itself, as the images of e_1..e_p
        assert np.allclose(w.T @ w, np.linalg.inv(covariance(pop.values, pop.vectors)),
                           rtol=1e-10, atol=1e-12)

    def test_standard_basis_whitens_by_scaling(self, rng):
        # eigenvectors None stand for the identity, a diagonal covariance:
        # no p x p array is held, and scaling rows gives the numbers of the
        # dense identity eigenpairs bit for bit
        p = 30
        mu, target, values = rng.standard_normal(p), rng.standard_normal(p), rng.uniform(1, 10, p)
        diagonal, dense = (PopulationSpec(p=p, mu_n=mu, mu_0=target, values=values, vectors=vectors)
                           for vectors in (None, np.eye(p)))
        stack = rng.standard_normal((p, 4))
        np.testing.assert_array_equal(quadratic_loss(stack, diagonal), quadratic_loss(stack, dense))
        np.testing.assert_array_equal(diagonal.precision_gram(mu, target, stack[:, 0]),
                                      dense.precision_gram(mu, target, stack[:, 0]))
        frame, dense_frame = diagonal.whitened(), dense.whitened()
        np.testing.assert_array_equal(frame.mu_n, dense_frame.mu_n)
        np.testing.assert_array_equal(frame.mu_0, dense_frame.mu_0)
        assert frame.vectors is None and dense_frame.vectors is None
        np.testing.assert_array_equal(diagonal.sigma_sqrt(), dense.sigma_sqrt())
        np.testing.assert_array_equal(diagonal.whiten(np.eye(p)), dense.whiten(np.eye(p)))

    @pytest.mark.parametrize("use", ["sigma_sqrt", "whitening"])
    def test_bare_indefinite_sigma_rejected(self, use):
        # rejected when the population is built, before either use
        uses = {"sigma_sqrt": lambda pop: pop.sigma_sqrt(),
                "whitening": lambda pop: pop.whiten(np.eye(2))}
        with pytest.raises(NotPositiveDefiniteError):
            uses[use](bare_population(np.diag([1.0, -1.0]), np.zeros(2), np.ones(2)))


class TestFrame:
    @pytest.mark.parametrize("n", [9, 6, 4], ids=["below", "at", "above"])
    def test_frame_and_map_by_side_of_p_equals_n(self, rng, n):
        # below p = n the whitened frame, which takes z itself; at p = n,
        # where S is singular, and above, the eigenbasis frame, which colors
        # z.  Either way the map of z plus the frame's mu_n is the sample
        # R z + mu_n 1' in the frame's coordinates
        pop = _bare(rand_spd(rng, 6), rng)
        frame, mix = pop.frame(n)
        expected, back = ((pop.whitened(), pop.sigma_sqrt()) if n > 6
                          else (pop.rotated(), pop.vectors))
        assert frame.vectors is None
        np.testing.assert_array_equal(frame.values, expected.values)
        for name in ("mu_n", "mu_0", "ones"):
            np.testing.assert_array_equal(getattr(frame, name), getattr(expected, name))
        z = rng.standard_normal((6, n))
        mixed = mix(z)
        if n > 6:
            assert mixed is z
        else:
            np.testing.assert_array_equal(mixed, pop.color(z))
        np.testing.assert_allclose(back @ (mixed + frame.mu_n[:, None]),
                                   pop.sigma_sqrt() @ z + pop.mu_n[:, None],
                                   rtol=1e-12, atol=1e-12)


def _built(values, vectors):
    """A 3-dimensional population of the given eigenpairs."""
    return PopulationSpec(p=3, mu_n=np.zeros(3), mu_0=np.ones(3), values=values, vectors=vectors)


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
            PopulationSpec(p=3, values=np.ones(3), vectors=np.eye(3), **means)

    def test_direction_defaults_to_ones_and_is_checked(self):
        np.testing.assert_array_equal(_built(np.ones(3), np.eye(3)).ones, np.ones(3))
        eigen = {"values": np.ones(3), "vectors": np.eye(3)}
        with pytest.raises(DimensionMismatchError):
            PopulationSpec(p=3, mu_n=np.zeros(3), mu_0=np.ones(3), ones=np.ones(4), **eigen)
        with pytest.raises(NonFiniteDataError):
            PopulationSpec(p=3, mu_n=np.zeros(3), mu_0=np.ones(3),
                           ones=np.array([1.0, np.nan, 1.0]), **eigen)

    def test_root_is_exactly_symmetric(self):
        pop = cell_population(McConfig(p_grid=(50,), c_grid=(0.5,), seed=2), 50, 0.5)
        root = pop.sigma_sqrt()
        assert np.array_equal(root, root.T)
        # formed on each read, from the same eigenpairs to the same bits
        np.testing.assert_array_equal(pop.sigma_sqrt(), root)

    def test_replaced_target_keeps_root_and_whitening(self, rng):
        # run_cell's route to another target on the same population shares
        # its eigenpairs, so the root and the whitening are the same
        pop = cell_population(McConfig(p_grid=(30,), c_grid=(2.0,), seed=4), 30, 2.0)
        other = replace(pop, mu_0=rng.standard_normal(30))
        assert other.vectors is pop.vectors
        np.testing.assert_array_equal(other.sigma_sqrt(), pop.sigma_sqrt())
        np.testing.assert_array_equal(other.whiten(np.eye(30)), pop.whiten(np.eye(30)))

    def test_fields_cannot_be_assigned(self):
        pop = cell_population(McConfig(p_grid=(5,), c_grid=(0.5,)), 5, 0.5)
        for name, value in (("mu_0", np.zeros(5)), ("vectors", None), ("p", 6)):
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

        # eigenpairs from eigh
        bare = bare_population(covariance(pop.values, pop.vectors), pop.mu_n, pop.mu_0)
        limit_alpha, limit_beta = limit_intensities(bare, p / n)
        for r in range(n_reps):
            y = generate_sample(pop, n, config.law, replication_rng(config.seed, p, c, r))
            y_bar = sample_stats(y).y_bar
            w = oracle_intensities(y_bar, bare)
            assert cell.weights["olse-oracle"][r] == pytest.approx(w, rel=1e-10)
            limit_mean = limit_alpha * y_bar + limit_beta * pop.mu_0
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
        calls = {"eigh": [], "cholesky": [], "quadratic_loss": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", _recording(calls, "eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "cholesky",
                            _recording(calls, "cholesky", np.linalg.cholesky))
        monkeypatch.setattr(shrinkmean.harness, "quadratic_loss",
                            counting("quadratic_loss", quadratic_loss))

        config = McConfig(p_grid=(p,), c_grid=(c,), n_reps=n_reps, estimators=ALL_MC)
        cell = run_study(config).cells[0]
        assert cell.failures["olse"] == 0 and cell.failures["olse-oracle"] == 0

        # no eigh, and one Cholesky per sample: of S for p < n, of the
        # reflected (n-1) x (n-1) Gram for p > n
        assert calls["eigh"] == []
        assert calls["cholesky"] == [(p, p) if p < n else (n - 1, n - 1)] * n_reps
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


class TestNoRoot:
    @pytest.mark.parametrize("basis", ["dense", "standard"])
    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_study_cell(self, monkeypatch, c, basis):
        # below p = n a cell runs in its whitened frame and at or above in
        # its eigenbasis frame, whose helper mixes each draw without R: no
        # cell forms R = sigma^{1/2}, on either basis, whichever estimators run
        p = 30
        config = McConfig(p_grid=(p,), c_grid=(c,), n_reps=3, estimators=tuple(ESTIMATORS))
        pop = cell_population(config, p, c)
        if basis == "standard":
            pop = PopulationSpec(p=p, mu_n=pop.mu_n, mu_0=pop.mu_0, values=pop.values,
                                 vectors=None)

        def forbidden(pop):
            raise AssertionError("a Monte Carlo cell formed the root")

        monkeypatch.setattr(PopulationSpec, "sigma_sqrt", forbidden)
        cell = run_cell(config, pop, c)
        assert cell.failures["olse"] == 0 and cell.failures["olse-oracle"] == 0
        assert cell.failures["wang" if c > 1 else "js"] == 0


class TestOneBlas:
    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_no_scipy_blas_above_p_equals_n(self, c):
        """scipy's wheels bundle their own OpenBLAS, with its own thread pool,
        which :func:`shrinkmean.linalg.fewer_blas_threads` would have to
        reach too.  In a fresh interpreter, a p = 40 cell at ratio c with
        every estimator, then a backtest with every backtest estimator,
        leave no scipy module loaded, and one BLAS is controlled.
        """
        src = os.path.dirname(os.path.dirname(os.path.abspath(shrinkmean.__file__)))
        code = f"""if True:
            import sys
            from shrinkmean.estimators import ESTIMATORS, NEEDS_POPULATION
            from shrinkmean.finance import BacktestConfig, rolling_backtest, synthetic_panel
            from shrinkmean.harness import McConfig, run_study
            from shrinkmean.linalg import blas_threads
            c = {c!r}
            config = McConfig(p_grid=(40,), c_grid=(c,), n_reps=3, estimators=tuple(ESTIMATORS))
            cell = run_study(config).cells[0]
            assert cell.failures["olse"] == 0 and cell.failures["wang" if c > 1 else "js"] == 0
            names = tuple(e for e in ESTIMATORS if e not in NEEDS_POPULATION)
            report = rolling_backtest(synthetic_panel(30, 40), BacktestConfig(windows=(10, 35), estimators=names))
            assert not any(row.failures for row in report.rows if row.estimator == "olse")
            print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"), blas_threads())
        """
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        loaded, controlled = out.rsplit(None, 1)
        assert loaded == "[]"
        assert controlled == "None" or int(controlled) >= 1
