"""The one covariance factorization per sample that every estimator shares.

Covers failure accounting of the harness and the backtester, scale-relative
degeneracy floors, metamorphic invariances of the bona fide weights,
brute-force pseudoinverse/inverse oracles for every sample-based estimator,
and a guard that a study or backtest builds one factorization per sample.
"""

from dataclasses import replace

import numpy as np
import pytest

import shrinkmean.finance
import shrinkmean.harness
import shrinkmean.model
from conftest import estimate_of
from shrinkmean.errors import InvalidDimensionsError, SingularSampleError
from shrinkmean.estimators import (
    ESTIMATORS,
    NEEDS_POPULATION,
    bona_fide_intensities,
    evaluate,
)
from shrinkmean.finance import BacktestConfig, ReturnsPanel, rolling_backtest
from shrinkmean.harness import (
    McConfig,
    cell_population,
    cell_sample_size,
    replication_rng,
    run_cell,
    run_study,
)
from shrinkmean.linalg import haar_orthogonal, spd_factor
from shrinkmean.model import InnovationLaw, sample_stats

ALL_BACKTEST = ("sample-mean", "olse", "js", "js-high-dim", "js-positive-part", "wang")
ALL_MC = ALL_BACKTEST[:2] + ("olse-asymptotic", "olse-oracle") + ALL_BACKTEST[2:]


def _weights(y, mu_0):
    return np.array(bona_fide_intensities(sample_stats(y), mu_0))


def _rel_err(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


class TestFailureAccounting:
    # expected counts follow from each sample's dimensions and the rank of
    # its S: an estimator fails where its dimension condition fails or where
    # rank(S) < min(p, n - 1)

    def test_backtest_constant_and_square_windows(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((30, 6)) * 0.02 + 0.01
        values[10:22] = values[10]  # twelve identical periods: S = 0 inside
        report = rolling_backtest(
            ReturnsPanel(values=values),
            BacktestConfig(windows=(6, 12), estimators=ALL_BACKTEST),
        )
        # n = 12: the eleven windows t = 17..27 hold seven or more of the
        # identical periods, so rank(S) < p = 6 and neither olse nor js runs
        expected = {
            6: dict.fromkeys(ALL_BACKTEST[1:], 24),  # p == n
            12: {"olse": 11, "js": 11, "js-high-dim": 18,
                 "js-positive-part": 18, "wang": 18},
        }
        for row in report.rows:
            assert row.failures == expected[row.window_n].get(row.estimator, 0), row

    def test_study_constant_and_square_cells(self, monkeypatch):
        # the study reads z below p = n and R z at p = n, and identical
        # columns of either are identical columns of the sample
        # sqrt(sigma) z + mu_n 1' the study scores
        original = shrinkmean.harness.sample_stats
        calls = []

        def every_other_constant(x):
            calls.append(x.shape[1])
            if len(calls) % 2:
                x[:] = x[:, :1]  # identical columns: S = 0
            return original(x)

        monkeypatch.setattr(shrinkmean.harness, "sample_stats", every_other_constant)
        report = run_study(McConfig(p_grid=(6,), c_grid=(0.25, 1.0), n_reps=10,
                                    estimators=ALL_MC, seed=3))
        low, square = report.cells
        assert low.failures == {
            "sample-mean": 0, "olse": 5, "olse-asymptotic": 0, "olse-oracle": 0,
            "js": 5, "js-high-dim": 10, "js-positive-part": 10, "wang": 10,
        }
        assert square.failures == {
            "sample-mean": 0, "olse": 10, "olse-asymptotic": 0, "olse-oracle": 0,
            "js": 10, "js-high-dim": 10, "js-positive-part": 10, "wang": 10,
        }

    def test_two_columns_above_p(self, rng):
        # n = 2 < 3: only Wang's estimator is defined, the rest fail once each
        y = rng.standard_normal((6, 2))
        report = rolling_backtest(
            ReturnsPanel(values=np.vstack([y.T, y.T, y.T])),
            BacktestConfig(windows=(2,), estimators=ALL_BACKTEST, targets=("ones",)),
        )
        failures = {row.estimator: row.failures for row in report.rows}
        assert failures == {"sample-mean": 0, "olse": 4, "js": 4, "js-high-dim": 4,
                            "js-positive-part": 4, "wang": 0}

    def test_duplicate_observation_above_p(self, rng, monkeypatch):
        # two identical observations give rank(S) = n - 2 < n - 1, which the
        # 1/(p/n - 1) correction and the James-Stein constants do not allow:
        # the sample's one Cholesky refuses it for every estimator that reads it
        high_dim = ("olse", "js-high-dim", "js-positive-part", "wang")
        y = rng.standard_normal((12, 6)) + 0.3
        y[:, 4] = y[:, 1]
        stats = sample_stats(y)
        for name in high_dim:
            with pytest.raises(SingularSampleError):
                evaluate(name, stats, np.ones(12))

        original = shrinkmean.harness.sample_stats
        calls = []

        def every_other_duplicated(x):
            calls.append(x.shape[1])
            if len(calls) % 2:
                x[:, -1] = x[:, 0]  # and so the sample's last observation is its first
            return original(x)

        monkeypatch.setattr(shrinkmean.harness, "sample_stats", every_other_duplicated)
        cell = run_study(McConfig(p_grid=(20,), c_grid=(2.0,), n_reps=10,
                                  estimators=("sample-mean",) + high_dim)).cells[0]
        assert cell.failures == {"sample-mean": 0, "olse": 5, "js-high-dim": 5,
                                 "js-positive-part": 5, "wang": 5}

        values = rng.standard_normal((20, 30)) * 0.02
        values[7] = values[3]  # both inside window [t-n, t) for t = 8 (n = 5), 10..13 (n = 10)
        report = rolling_backtest(
            ReturnsPanel(values=values),
            BacktestConfig(windows=(5, 10), estimators=("sample-mean",) + high_dim),
        )
        for row in report.rows:
            expected = 0 if row.estimator == "sample-mean" else {5: 1, 10: 4}[row.window_n]
            assert row.failures == expected, row


class TestScaleRelativeFloors:
    @pytest.mark.parametrize("k", [1e-6, 1.0, 1e6])
    def test_bona_fide_weights_invariant(self, rng, k):
        for p, n in ((10, 40), (40, 10)):
            y = rng.standard_normal((p, n)) + 0.3
            mu_0 = rng.standard_normal(p)
            assert _rel_err(_weights(k * y, k * mu_0), _weights(y, mu_0)) < 1e-10

    @pytest.mark.parametrize("k", [1e-6, 1.0, 1e6])
    def test_high_dim_estimates_scale_by_k(self, rng, k):
        y = rng.standard_normal((40, 10)) + 0.3
        base, scaled = sample_stats(y), sample_stats(k * y)
        for name in ("wang", "js-high-dim", "js-positive-part"):
            assert _rel_err(estimate_of(name, scaled), k * estimate_of(name, base)) < 1e-10


class TestMetamorphic:
    def test_invertible_transform_low_dim(self, rng):
        p, n = 8, 30
        y = rng.standard_normal((p, n)) + 0.4
        mu_0 = rng.standard_normal(p)
        # well-conditioned, so rounding in A y stays far below the tolerance
        a = np.eye(p) + 0.3 * rng.standard_normal((p, p)) / np.sqrt(p)
        assert _rel_err(_weights(a @ y, a @ mu_0), _weights(y, mu_0)) < 1e-10
        # James-Stein shrinks by an invariant factor, so it is equivariant
        est = estimate_of("js", sample_stats(a @ y))
        assert _rel_err(est, a @ estimate_of("js", sample_stats(y))) < 1e-10

    def test_orthogonal_transform_high_dim(self, rng):
        p, n = 30, 8
        y = rng.standard_normal((p, n)) + 0.4
        mu_0 = rng.standard_normal(p)
        q = haar_orthogonal(p, rng)
        assert _rel_err(_weights(q @ y, q @ mu_0), _weights(y, mu_0)) < 1e-10
        for name in ("js-high-dim", "js-positive-part"):
            est = estimate_of(name, sample_stats(q @ y))
            assert _rel_err(est, q @ estimate_of(name, sample_stats(y))) < 1e-10

    @pytest.mark.parametrize("shape", [(8, 30), (30, 8)])
    def test_column_permutation(self, rng, shape):
        y = rng.standard_normal(shape) + 0.4
        mu_0 = rng.standard_normal(shape[0])
        perm = rng.permutation(shape[1])
        assert _rel_err(_weights(y[:, perm], mu_0), _weights(y, mu_0)) < 1e-10


def _oracle_precision(y):
    """Inverse (p < n) or pseudoinverse (p > n) of the two-pass covariance."""
    p, n = y.shape
    centered = y - y.mean(axis=1, keepdims=True)
    s = centered @ centered.T / n
    return np.linalg.inv(s) if p < n else np.linalg.pinv(s, 1e-10, hermitian=True)


def _oracle_weights(y, mu_0):
    p, n = y.shape
    q = _oracle_precision(y)
    y_bar = y.mean(axis=1)
    a_yy, a_y0, a_00 = y_bar @ q @ y_bar, y_bar @ q @ mu_0, mu_0 @ q @ mu_0
    corr = p / (n - p) if p < n else 1.0 / (p / n - 1.0)
    alpha = ((a_yy - corr) * a_00 - a_y0**2) / (a_yy * a_00 - a_y0**2)
    return np.array([alpha, (1.0 - alpha) * a_y0 / a_00])


def _oracle_wang(y):
    p, n = y.shape
    w = _oracle_precision(y) / n
    k = y.T @ w @ y
    u = y.T @ w @ np.ones(p)
    t1 = float(np.ones(p) @ w @ np.ones(p))
    off = k.sum() - np.trace(k)
    z1 = off / (p * (n - 1))
    z2 = (np.trace(k) - off / (n - 1)) / (n * p)
    z3 = u.sum() / (n * t1)
    z4 = (u.sum() ** 2 - u @ u) / (p * (n - 1) * t1)
    denom = z1 + z2 * z4
    return ((z1 - z4) / denom) * y.mean(axis=1) + (z2 * z3 / denom) * np.ones(p)


@pytest.mark.parametrize("p,n", [(8, 4), (200, 25), (250, 125), (250, 500)])
def test_estimators_match_inverse_oracles(p, n):
    rng = np.random.default_rng(p * 1000 + n)
    y = rng.standard_normal((p, n)) + 0.3
    mu_0 = rng.standard_normal(p) + 0.5
    stats = sample_stats(y)
    assert _rel_err(_weights(y, mu_0), _oracle_weights(y, mu_0)) < 1e-10

    y_bar = stats.y_bar
    quad = y_bar @ _oracle_precision(y) @ y_bar / n
    if p < n:
        expected = (1.0 - ((p - 2) / (n - p - 3)) / quad) * y_bar
        assert _rel_err(estimate_of("js", stats), expected) < 1e-10
        return
    proj = (y - y_bar[:, None]) @ np.linalg.pinv(y - y_bar[:, None])
    in_range = proj @ y_bar
    a = 2.0 * (n - 2) / (p - n + 3)
    assert _rel_err(estimate_of("js-high-dim", stats), y_bar - (a / quad) * in_range) < 1e-10
    clamped = max(0.0, 1.0 - ((n - 2) / (p - n + 3)) / quad)
    for name, sign in (("js-positive-part", 1.0), ("js-positive-part-conventional", -1.0)):
        expected = y_bar + sign * in_range + clamped * in_range
        assert _rel_err(estimate_of(name, stats), expected) < 1e-10
    assert _rel_err(estimate_of("wang", stats), _oracle_wang(y)) < 1e-10


def _wang_condition(stats):
    """How much Wang's estimator magnifies relative rounding errors of its
    Gram (a_yy, a_y1, a_11) (see ``wang_estimator``): z1 = (a_yy - 1)/p
    cancels by a_yy/|a_yy - 1|, and its denominator z1 + z2 z4 by
    (|z1| + |z2 z4|)/|z1 + z2 z4|."""
    p, n = stats.p, stats.n
    gram = stats.mean_gram(np.ones(p))
    z1 = (gram[0, 0] - 1.0) / p
    z2_z4 = (gram[0, 1] ** 2 / gram[1, 1] - 1.0 / (n - 1.0)) / p**2
    return (gram[0, 0] / abs(p * z1)) * (abs(z1) + abs(z2_z4)) / abs(z1 + z2_z4)


@pytest.mark.parametrize("law", ["normal", "t:6", "exponential"])
@pytest.mark.parametrize("p, c", [(30, 0.5), (30, 2.0)])
def test_innovations_give_the_sample_estimates(law, p, c):
    # a study reads each replication from its innovations z: below p = n in
    # the whitened frame, whose estimates R maps back, and at or above p = n
    # in the eigenbasis frame, whose estimates Q maps back; the statistics of
    # the sample sqrt(sigma) z + mu_n 1' itself are the reference.  Both
    # routes round differently, so Wang's estimator, whose coefficients can
    # nearly cancel, agrees only to 1e-12 times its magnification
    config = McConfig(p_grid=(p,), c_grid=(c,), law=InnovationLaw.parse(law), seed=5)
    pop = cell_population(config, p, c)
    n = cell_sample_size(p, c)
    z = config.law.draw(replication_rng(config.seed, p, c, 0), (p, n))
    root = pop.sigma_sqrt()
    frame, back = (pop.whitened(), root) if p < n else (pop.rotated(), pop.vectors)
    fast = sample_stats(z if p < n else pop.color(z))
    fast = replace(fast, y_bar=fast.y_bar + frame.mu_n)
    slow = sample_stats(root @ z + pop.mu_n[:, None])
    assert fast.factorization.cholesky.dim == slow.factorization.cholesky.dim == min(p, n - 1)
    for name in (e for e in ESTIMATORS if e not in NEEDS_POPULATION):
        try:
            expected, _ = evaluate(name, slow, pop.mu_0)
        except InvalidDimensionsError:
            with pytest.raises(InvalidDimensionsError):
                evaluate(name, fast, frame.mu_0, frame)
            continue
        tol = 1e-12 * (_wang_condition(slow) if name == "wang" else 1.0)
        assert _rel_err(back @ evaluate(name, fast, frame.mu_0, frame)[0], expected) < tol, name
    w_fast = bona_fide_intensities(fast, frame.mu_0)
    w_slow = bona_fide_intensities(slow, pop.mu_0)
    assert _rel_err(w_fast, w_slow) < 1e-12


class TestOneFactorizationPerSample:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Statistics the harness (from innovations) and the backtester
        (from windows) built."""
        made = []

        def counting(build):
            def counted_build(*args):
                made.append(build(*args))
                return made[-1]
            return counted_build

        for module in (shrinkmean.harness, shrinkmean.finance):
            monkeypatch.setattr(module, "sample_stats", counting(shrinkmean.model.sample_stats))
        return made

    def test_study(self, counted):
        config = McConfig(p_grid=(40,), c_grid=(2.0,), n_reps=5, estimators=ALL_MC)
        cell = run_study(config).cells[0]
        assert len(counted) == 5
        assert all(s.factorization.cholesky.dim == cell.n - 1 for s in counted)
        assert cell.failures["olse"] == 0 and cell.failures["wang"] == 0

    def test_cell_forms_no_sample(self, counted, monkeypatch):
        # a replication reads its statistics from its innovations, on both
        # sides of p = n: one constructor call on z below p = n and on
        # diag(lam)^{1/2} Q' z above, and no shifted sample y is generated
        # or formed
        def forbidden(*args):
            raise AssertionError("a Monte Carlo cell formed a sample")

        for module in (shrinkmean.model, shrinkmean.harness):
            monkeypatch.setattr(module, "generate_sample", forbidden, raising=False)
        config = McConfig(p_grid=(20,), c_grid=(0.5, 2.0), n_reps=3, estimators=ALL_MC)
        for c in config.c_grid:
            pop = cell_population(config, 20, c)
            counted.clear()
            cell = run_cell(config, pop, c)
            assert len(counted) == config.n_reps
            for r, stats in enumerate(counted):
                z = config.law.draw(replication_rng(config.seed, 20, c, r), (20, cell.n))
                read = sample_stats(z if c < 1 else pop.color(z))
                np.testing.assert_array_equal(stats.y_bar, read.y_bar)
                np.testing.assert_array_equal(stats.reflected, read.reflected)
            assert all(s.factorization.cholesky.dim == min(20, cell.n - 1) for s in counted)
            assert cell.failures["olse"] == 0

    def test_backtest(self, counted, rng):
        panel = ReturnsPanel(values=rng.standard_normal((20, 30)) * 0.02)
        high_dim = tuple(e for e in ALL_BACKTEST if e != "js")
        report = rolling_backtest(panel, BacktestConfig(windows=(5, 10), estimators=high_dim))
        assert len(counted) == (20 - 5) + (20 - 10)
        assert all(row.failures == 0 for row in report.rows)

    def test_one_cholesky_for_two_estimators(self, monkeypatch):
        # p < n: olse and js share the Cholesky factor of each sample
        factored = []

        def counting(a):
            factored.append(a.shape)
            return spd_factor(a)

        monkeypatch.setattr(shrinkmean.model, "spd_factor", counting)
        config = McConfig(p_grid=(10,), c_grid=(0.5,), n_reps=4, estimators=("olse", "js"))
        assert run_study(config).cells[0].failures == {"olse": 0, "js": 0}
        assert factored == [(10, 10)] * 4
