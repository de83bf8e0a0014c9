"""``run_cell``'s replication loop: a helper thread draws replications r + 1
and r + 2 while the main thread evaluates replication r, under one BLAS
thread fewer, and starts no draw more than two replications ahead of the
newest statistics built.  The results must be those of the plain serial
loop, and the helper thread and the BLAS thread counts must not outlive the
cell.  Below p = n the loop scores the cell in its whitened frame, which
must reproduce every estimator's losses and weights on the mixed sample
itself, and at or above p = n so does the eigenbasis frame."""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import one_fewer
from shrinkmean import harness
from shrinkmean.errors import ShrinkmeanError
from shrinkmean.estimators import ESTIMATORS, evaluate, wang_estimator
from shrinkmean.harness import (
    McConfig,
    cell_population,
    cell_sample_size,
    quadratic_loss,
    replication_rng,
    run_cell,
)
from shrinkmean.linalg import blas_threads
from shrinkmean.model import InnovationLaw, sample_stats

#: the BLAS thread count before any test ran (read at collection): a count
#: a cell failed to restore would otherwise become the next test's "before"
START_THREADS = blas_threads()


def serial_cell(config, pop, c, mixed=False):
    """(losses, weights) of every replication of a cell, one after another on
    this thread: draw, statistics, every estimator, one stacked loss.  The
    statistics are built as ``run_cell`` builds them: below p = n those of z
    shifted into the whitened frame, and at or above p = n those of
    diag(lam)^{1/2} Q' z shifted into the eigenbasis frame, each frame
    scored in place of ``pop``.  With ``mixed`` they are those of the sample
    R z + mu_n 1' itself, scored against ``pop``, whose Wang direction is
    the all-ones vector."""
    p, n = pop.p, cell_sample_size(pop.p, c)
    frame = pop if mixed else pop.whitened() if p < n else pop.rotated()
    losses = {e: np.full(config.n_reps, np.nan) for e in config.estimators}
    weights = {e: np.full((config.n_reps, 2), np.nan)
               for e in ("olse-oracle", "olse") if e in config.estimators}
    for r in range(config.n_reps):
        z = config.law.draw(replication_rng(config.seed, p, c, r), (p, n))
        if mixed:
            stats = sample_stats(pop.sigma_sqrt() @ z + pop.mu_n[:, None])
        else:
            stats = sample_stats(z if p < n else pop.color(z))
            stats = replace(stats, y_bar=stats.y_bar + frame.mu_n)
        estimates = {}
        for est in config.estimators:
            try:
                estimates[est], coefficients = evaluate(est, stats, frame.mu_0, frame)
            except ShrinkmeanError:
                continue
            if est in weights:
                weights[est][r] = coefficients[:2]
        if estimates:
            scored = quadratic_loss(np.column_stack(list(estimates.values())), frame)
            for est, loss in zip(estimates, scored):
                losses[est][r] = loss
    return losses, weights


def assert_close(cell, losses, weights):
    """The cell's losses and weights have the NaN pattern of ``losses`` and
    ``weights`` and match them within 1e-10 relative."""
    assert cell.losses.keys() == losses.keys() and cell.weights.keys() == weights.keys()
    for got, want in [(cell.losses[e], losses[e]) for e in losses] + \
                     [(cell.weights[e], weights[e]) for e in weights]:
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def cell_config(p, c, law, n_reps):
    return McConfig(p_grid=(p,), c_grid=(c,), n_reps=n_reps, estimators=tuple(ESTIMATORS),
                    seed=3, law=InnovationLaw.parse(law))


@pytest.mark.parametrize("law", ["normal", "t:6", "exponential"])
@pytest.mark.parametrize("c", [0.5, 2.0])
def test_matches_the_serial_loop_bit_for_bit(c, law):
    # at p = 12 OpenBLAS runs every call on one thread whatever its count, so
    # the pipelined loop must reproduce the serial one exactly
    config = cell_config(12, c, law, n_reps=8)
    cell = run_cell(config, cell_population(config, 12, c), c)
    losses, weights = serial_cell(config, cell_population(config, 12, c), c)
    assert cell.losses.keys() == losses.keys() and cell.weights.keys() == weights.keys()
    for est in losses:
        np.testing.assert_array_equal(cell.losses[est], losses[est])
        assert cell.failures[est] == np.isnan(losses[est]).sum()
    for est in weights:
        np.testing.assert_array_equal(cell.weights[est], weights[est])


def test_matches_the_serial_loop_at_p250():
    # at p = 250 the serial loop's BLAS calls may run on one thread more,
    # which changes their partitioning and so the last bits of a result
    config = cell_config(250, 2.0, "normal", n_reps=2)
    cell = run_cell(config, cell_population(config, 250, 2.0), 2.0)
    assert_close(cell, *serial_cell(config, cell_population(config, 250, 2.0), 2.0))


@pytest.mark.parametrize("law", ["normal", "t:6", "exponential"])
@pytest.mark.parametrize("c", [0.5, 0.9])
@pytest.mark.parametrize("p", [12, 40])
def test_whitened_frame_matches_the_mixed_sample(p, c, law):
    # below p = n every estimator that runs is equivariant under y -> R^{-1} y
    # with mu_0 -> R^{-1} mu_0, and the sigma^{-1} loss is the frame's
    # Euclidean one, so the frame reproduces the mixed sample up to rounding
    config = cell_config(p, c, law, n_reps=6)
    pop = cell_population(config, p, c)
    assert_close(run_cell(config, pop, c), *serial_cell(config, pop, c, mixed=True))


@pytest.mark.parametrize("law", ["normal", "t:6", "exponential"])
@pytest.mark.parametrize("p", [12, 250])
def test_eigenbasis_frame_matches_the_mixed_sample(p, law):
    # at or above p = n every estimator is equivariant under y -> Q'y, with
    # mu_0 and Wang's direction rotated alike, and the sigma^{-1} loss is
    # orthogonally invariant, so the frame reproduces the mixed sample, run
    # with Wang on the all-ones vector, up to rounding, whatever the law
    config = cell_config(p, 2.0, law, n_reps=2)
    pop = cell_population(config, p, 2.0)
    np.testing.assert_array_equal(pop.ones, np.ones(p))
    assert_close(run_cell(config, pop, 2.0), *serial_cell(config, pop, 2.0, mixed=True))


def test_eigenbasis_frame_guard_fires(monkeypatch):
    # Wang's all-ones direction, left unrotated in the frame, is another
    # direction, so its losses move
    monkeypatch.setitem(ESTIMATORS, "wang", lambda stats, mu_0, pop: wang_estimator(stats))
    config = cell_config(12, 2.0, "normal", n_reps=2)
    pop = cell_population(config, 12, 2.0)
    with pytest.raises(AssertionError):
        assert_close(run_cell(config, pop, 2.0), *serial_cell(config, pop, 2.0, mixed=True))


def test_two_threads_in_blas_repeat_bit_for_bit():
    # at p = 250 and p > n the helper's GEMM runs beside the main thread's
    # syrk and Cholesky; each BLAS call partitions its work alike whatever
    # runs beside it, so a rerun gives the same bits
    config = cell_config(250, 2.0, "normal", n_reps=4)
    pop = cell_population(config, 250, 2.0)
    first, second = run_cell(config, pop, 2.0), run_cell(config, pop, 2.0)
    for est in first.losses:
        np.testing.assert_array_equal(first.losses[est], second.losses[est])
    for est in first.weights:
        np.testing.assert_array_equal(first.weights[est], second.weights[est])


def test_whitened_frame_guard_fires(monkeypatch):
    # an estimator that is not equivariant (its coefficient |y_bar|^2 on
    # y_bar changes when y_bar maps to R^{-1} y_bar) scores differently in
    # the frame
    monkeypatch.setitem(ESTIMATORS, "mean-times-norm",
                        lambda stats, mu_0, pop: (float(stats.y_bar @ stats.y_bar), 0.0, 0.0, 0.0))
    config = cell_config(12, 0.5, "normal", n_reps=3)
    pop = cell_population(config, 12, 0.5)
    with pytest.raises(AssertionError):
        assert_close(run_cell(config, pop, 0.5), *serial_cell(config, pop, 0.5, mixed=True))


def failing_on_call(monkeypatch, owner, name, call):
    """Make ``owner.name`` raise a fresh error on its ``call``-th call (1-based)
    and return (the error, the list of calls made)."""
    real = getattr(owner, name)
    error = RuntimeError(f"{name} fails on call {call}")
    calls = []

    def failing(*args, **kwargs):
        calls.append(threading.current_thread())
        if len(calls) == call:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    return error, calls


@pytest.fixture(autouse=True)
def clean():
    """No test of this module leaves a thread running or a BLAS thread count
    lowered."""
    threads = threading.active_count()
    assert blas_threads() == START_THREADS
    yield
    assert threading.active_count() == threads
    assert blas_threads() == START_THREADS


class TestCleanUp:
    """Neither the helper thread nor the lowered BLAS thread counts outlive
    ``run_cell`` or ``cell_population``, however the cell ends."""

    config = McConfig(p_grid=(40,), c_grid=(0.5,), n_reps=6, estimators=("olse",), seed=1)

    def run(self):
        return run_cell(self.config, cell_population(self.config, 40, 0.5), 0.5)

    def test_after_a_normal_return(self, monkeypatch):
        seen = []
        real = harness.sample_stats

        def recording(z):
            seen.append(blas_threads())
            return real(z)

        monkeypatch.setattr(harness, "sample_stats", recording)
        self.run()
        assert seen == [one_fewer(START_THREADS)] * self.config.n_reps

    def test_population_builds_on_one_thread_fewer(self, monkeypatch):
        seen = []
        real = harness.build_covariance

        def recording(*args):
            seen.append(blas_threads())
            return real(*args)

        monkeypatch.setattr(harness, "build_covariance", recording)
        cell_population(self.config, 40, 0.5)
        assert seen == [one_fewer(START_THREADS)]

    def test_draw_error_on_replication_3(self, monkeypatch):
        # the helper draws replications in order, so the fourth draw is
        # replication 3.  Replication 4's draw was queued once replication
        # 2's statistics were built, before replication 3's error reached the
        # main thread, so it runs too; no later draw is started
        error, calls = failing_on_call(monkeypatch, InnovationLaw, "draw", 4)
        with pytest.raises(RuntimeError) as raised:
            self.run()
        assert raised.value is error
        assert len(calls) == 5 and threading.main_thread() not in calls

    def test_main_thread_error_with_a_draw_pending(self, monkeypatch):
        error, _ = failing_on_call(monkeypatch, harness, "sample_stats", 3)
        with pytest.raises(RuntimeError) as raised:
            self.run()
        assert raised.value is error

    def test_main_thread_error_on_replication_0(self, monkeypatch):
        # replications 0 and 1 are queued before the loop starts, so the
        # helper still owes replication 1 when replication 0's statistics
        # fail: it draws it, is joined, and no further draw is queued
        error, _ = failing_on_call(monkeypatch, harness, "sample_stats", 1)
        draws = []
        real = InnovationLaw.draw

        def recording(law, rng, shape):
            draws.append(threading.current_thread())
            return real(law, rng, shape)

        monkeypatch.setattr(InnovationLaw, "draw", recording)
        with pytest.raises(RuntimeError) as raised:
            self.run()
        assert raised.value is error
        assert len(draws) == 2 and threading.main_thread() not in draws


def test_draws_stay_two_replications_ahead(monkeypatch):
    # replication r's draw starts only once replication r - 2's statistics
    # are built, so r - built <= 1 for the count of statistics built.  The
    # main thread is slowed so that the helper runs as far ahead as it may
    built, ahead = [], []
    real_stats, real_draw = harness.sample_stats, InnovationLaw.draw

    def slow_stats(z):
        time.sleep(0.02)
        stats = real_stats(z)
        built.append(None)
        return stats

    def recording(law, rng, shape):
        ahead.append(len(ahead) - len(built))
        return real_draw(law, rng, shape)

    monkeypatch.setattr(harness, "sample_stats", slow_stats)
    monkeypatch.setattr(InnovationLaw, "draw", recording)
    config = McConfig(p_grid=(40,), c_grid=(0.5,), n_reps=8, estimators=("olse",), seed=1)
    run_cell(config, cell_population(config, 40, 0.5), 0.5)
    assert len(ahead) == config.n_reps and len(built) == config.n_reps
    assert max(ahead) <= 1
