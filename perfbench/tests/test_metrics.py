"""Failure accounting and per-item counts behind the reported metrics."""

from types import SimpleNamespace

import pytest

import run
from worker import per_item_counts
from workloads import backtest_outcome, mc_outcome


def test_failed_frac_arithmetic():
    assert run.failed_frac(1500, 0) == 0.0
    assert run.failed_frac(200, 3) == pytest.approx(0.015)
    with pytest.raises(run.BenchError):
        run.failed_frac(0, 0)


def test_mc_outcome_counts_replications_times_estimators():
    report = SimpleNamespace(
        config=SimpleNamespace(n_reps=10, estimators=("sample-mean", "olse", "js")),
        cells=[SimpleNamespace(failures={"sample-mean": 0, "olse": 2, "js": 1})],
    )
    outcome = mc_outcome(report)
    assert (outcome.attempted, outcome.failed, outcome.items) == (30, 3, 10)
    assert run.failed_frac(outcome.attempted, outcome.failed) == pytest.approx(0.1)


def test_backtest_outcome_counts_periods_times_pairs():
    rows = [
        SimpleNamespace(window_n=n, estimator=e, failures=f)
        for n in (25, 100)
        for e, f in (("olse", 1 if n == 25 else 0), ("wang", 2))
    ]
    outcome = backtest_outcome(SimpleNamespace(rows=rows), periods=12)
    assert (outcome.attempted, outcome.failed, outcome.items) == (48, 5, 24)
    assert outcome.failures_by_estimator == {"olse": 1, "wang": 4}


def test_per_item_counts_cancel_fixed_calls():
    def snap(factor, pinv, stats):
        return {
            "linalg.spd_factor": {"calls": factor},
            "linalg.pseudo_inverse": {"calls": pinv},
            "model.sample_stats": {"calls": stats},
        }

    # one population factorization per run, two per replication
    rates = per_item_counts(snap(201, 0, 100), 100, snap(3, 0, 1), 1)
    assert rates == {"factorizations": 2.0, "sample_stats": 1.0}
