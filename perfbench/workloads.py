"""The benchmark's workloads, driven only through shrinkmean's public API.

Each workload has three steps. ``prepare`` writes any input files for a
seed (untimed). ``setup`` builds the inputs a user would build before the
measured call (timed as ``setup_s``). ``run`` is the measured call: the
study or backtest plus writing its CSV outputs. ``sanity`` checks those
outputs when no reference is stored for the seed.

Configs pass only the fields a workload needs; every other field keeps
its ``McConfig`` / ``BacktestConfig`` default. ``threads`` in particular is
never passed, so the BLAS thread count stays as the user gets it.

Nothing here imports numpy or shrinkmean at module level: the worker
imports shrinkmean inside the timed set-up interval.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import gate

#: Seed whose outputs are stored under ``reference/``. Every run also
#: evaluates this seed once, so the output gate sees every seed's run.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Outcome:
    """What one measured call did: the evaluations tried and failed, and the
    number of items (replications or window-periods) it covered."""

    attempted: int
    failed: int
    items: int
    failures_by_estimator: dict


@dataclass(frozen=True)
class McWorkload:
    """One Monte Carlo cell (p, c) evaluated over ``n_reps`` replications."""

    name: str
    why: str
    p: int
    c: float
    n_reps: int
    estimators: tuple[str, ...]

    outputs = ("losses.csv", "intensities.csv")

    def params(self) -> dict:
        return {
            "kind": "monte-carlo",
            "p": self.p,
            "c": self.c,
            "n_reps": self.n_reps,
            "estimators": list(self.estimators),
            "gamma": 0.0,
            "law": "normal",
        }

    def small(self) -> "McWorkload":
        """The same cell with one replication, for per-item call counts."""
        return replace(self, n_reps=1)

    def prepare(self, out_dir: str, seed: int) -> None:
        """The Monte Carlo inputs are drawn inside the study; no files."""

    def setup(self, out_dir: str, seed: int):
        from shrinkmean.harness import McConfig, cell_population

        config = McConfig(
            p_grid=(self.p,),
            c_grid=(self.c,),
            n_reps=self.n_reps,
            estimators=self.estimators,
            seed=seed,
        )
        cell_population(config, self.p, self.c).sigma_sqrt()
        return config

    def run(self, config, out_dir: str) -> Outcome:
        from shrinkmean.harness import run_study, write_intensities_csv, write_losses_csv

        report = run_study(config)
        write_losses_csv(report, os.path.join(out_dir, "losses.csv"))
        write_intensities_csv(report, os.path.join(out_dir, "intensities.csv"))
        return mc_outcome(report)

    def sanity(self, out_dir: str, outcome: Outcome) -> list[str]:
        return gate.mc_sanity(out_dir, outcome.failures_by_estimator, self.n_reps)


def mc_outcome(report) -> Outcome:
    """Evaluations attempted (n_reps x estimators per cell) and failed."""
    n_reps = report.config.n_reps
    failures: dict[str, int] = {}
    attempted = 0
    for cell in report.cells:
        attempted += n_reps * len(report.config.estimators)
        for est, count in cell.failures.items():
            failures[est] = failures.get(est, 0) + int(count)
    return Outcome(
        attempted=attempted,
        failed=sum(failures.values()),
        items=n_reps * len(report.cells),
        failures_by_estimator=failures,
    )


@dataclass(frozen=True)
class BacktestWorkload:
    """Rolling-window backtest on a synthetic panel written to CSV.

    ``align_start`` makes every window size see the same ``periods``
    evaluation periods after the largest window, so the amount of work is
    set by ``periods`` alone.
    """

    name: str
    why: str
    p: int
    periods: int
    windows: tuple[int, ...]
    estimators: tuple[str, ...]

    outputs = ("backtest.csv",)

    def params(self) -> dict:
        return {
            "kind": "backtest",
            "p": self.p,
            "panel_periods": self.panel_periods,
            "evaluated_periods": self.periods,
            "windows": list(self.windows),
            "estimators": list(self.estimators),
            "targets": "all (BacktestConfig default)",
            "align_start": True,
        }

    @property
    def panel_periods(self) -> int:
        return max(self.windows) + self.periods

    def small(self) -> "BacktestWorkload":
        """The same backtest over one evaluation period, for per-item counts."""
        return replace(self, periods=1)

    def panel_path(self, out_dir: str, seed: int) -> str:
        return os.path.join(out_dir, f"panel-p{self.p}-t{self.panel_periods}-s{seed}.csv")

    def prepare(self, out_dir: str, seed: int) -> None:
        from shrinkmean.finance import synthetic_panel, write_returns_csv

        panel = synthetic_panel(self.p, self.panel_periods, seed=seed)
        write_returns_csv(panel, self.panel_path(out_dir, seed))

    def setup(self, out_dir: str, seed: int):
        from shrinkmean.finance import BacktestConfig, load_returns_csv

        panel = load_returns_csv(self.panel_path(out_dir, seed))
        config = BacktestConfig(
            windows=self.windows,
            estimators=self.estimators,
            seed=seed,
            align_start=True,
        )
        return panel, config

    def run(self, inputs, out_dir: str) -> Outcome:
        from shrinkmean.finance import rolling_backtest, write_backtest_csv

        panel, config = inputs
        report = rolling_backtest(panel, config)
        write_backtest_csv(report, os.path.join(out_dir, "backtest.csv"))
        return backtest_outcome(report, self.periods)

    def sanity(self, out_dir: str, outcome: Outcome) -> list[str]:
        return gate.backtest_sanity(out_dir, self.periods)


def backtest_outcome(report, periods: int) -> Outcome:
    """Evaluations attempted (periods per (window, estimator, target) row)."""
    failures: dict[str, int] = {}
    for row in report.rows:
        failures[row.estimator] = failures.get(row.estimator, 0) + row.failures
    windows = {row.window_n for row in report.rows}
    return Outcome(
        attempted=periods * len(report.rows),
        failed=sum(failures.values()),
        items=periods * len(windows),
        failures_by_estimator=failures,
    )


# Why each workload exists; BENCHMARK.json and README.md repeat these lines.
WORKLOADS = {
    w.name: w
    for w in (
        McWorkload(
            name="mc-low",
            why="Monte Carlo p=250, p/n=0.5: generation and Cholesky dominate and "
            "no pseudoinverse runs, so p>n changes should leave it unchanged",
            p=250,
            c=0.5,
            n_reps=50,
            estimators=("sample-mean", "olse", "olse-asymptotic", "olse-oracle", "js"),
        ),
        McWorkload(
            name="mc-high",
            why="Monte Carlo p=250, p/n=2: the p x p eigh inside pseudo_inverse "
            "dominates, four per replication, and generation is small",
            p=250,
            c=2.0,
            n_reps=16,
            estimators=(
                "sample-mean",
                "olse",
                "olse-asymptotic",
                "olse-oracle",
                "js-high-dim",
                "js-positive-part",
                "wang",
            ),
        ),
        BacktestWorkload(
            name="backtest",
            why="Rolling backtest p=200, windows 25 and 100: stats and pseudoinverse "
            "repeat for each of 12 (estimator, target) pairs per window-period",
            p=200,
            periods=6,
            windows=(25, 100),
            estimators=("sample-mean", "olse", "js-high-dim", "js-positive-part", "wang"),
        ),
    )
}
