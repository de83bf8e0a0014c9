"""Rolling-window backtest of mean estimators on a returns panel.

Each estimator predicts the next-period return of the equally-weighted
portfolio from the most recent n observations; performance is the average
squared deviation from the realized portfolio return, scaled by 1e4.
All estimators in one run see identical windows and identical target
draws, so comparisons stay paired.  Each runs through
:func:`shrinkmean.estimators.evaluate`, as in the Monte Carlo harness, so
every entry of :data:`ESTIMATORS` outside :data:`NEEDS_POPULATION` (which
a returns panel cannot supply) is a backtest estimator.  The panel comes
from :func:`load_returns_csv`, which reads a returns CSV in one pass, row by
row, or from :func:`synthetic_panel`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    ParseError,
    RaggedRowsError,
    ShrinkmeanError,
    reject_duplicates,
)
from .estimators import ESTIMATORS, NEEDS_POPULATION, READS_TARGET, evaluate
from .linalg import fewer_blas_threads
from .model import sample_stats
from .tables import write_rows

__all__ = [
    "ReturnsPanel",
    "BacktestConfig",
    "BacktestRow",
    "BacktestReport",
    "TARGET_STRATEGIES",
    "load_returns_csv",
    "write_returns_csv",
    "target_vector",
    "rolling_backtest",
    "synthetic_panel",
    "write_backtest_csv",
]

TARGET_STRATEGIES = ("uniform-range-draw", "signs", "ones")


@dataclass(eq=False)
class ReturnsPanel:
    """Per-period log-returns, rows = periods (dates), columns = assets."""

    values: np.ndarray
    asset_labels: list[str] | None = None

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class BacktestConfig:
    windows: tuple[int, ...] = (25, 50, 75, 100)
    estimators: tuple[str, ...] = ("sample-mean", "olse")
    targets: tuple[str, ...] = TARGET_STRATEGIES
    seed: int = 0
    align_start: bool = False
    fixed_target: bool = False

    def __post_init__(self) -> None:
        if not self.windows:
            raise ConfigError("windows must name at least one window size")
        if any(w < 2 for w in self.windows):
            raise ConfigError("window sizes must be >= 2")
        if not self.estimators:
            raise ConfigError("estimators must name at least one estimator")
        unknown = [e for e in self.estimators if e not in ESTIMATORS]
        if unknown:
            raise ConfigError(f"unknown estimators: {unknown}")
        population_side = [e for e in self.estimators if e in NEEDS_POPULATION]
        if population_side:
            accepted = ", ".join(e for e in ESTIMATORS if e not in NEEDS_POPULATION)
            raise ConfigError(f"estimators {population_side} need the true population, which a"
                              f" backtest does not have; it accepts {accepted}")
        if not self.targets:
            raise ConfigError("targets must name at least one target strategy")
        unknown = [t for t in self.targets if t not in TARGET_STRATEGIES]
        if unknown:
            raise ConfigError(f"unknown target strategies: {unknown}")
        reject_duplicates(self, "windows", "estimators", "targets")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class BacktestRow:
    window_n: int
    c_hat: float
    estimator: str
    target: str
    loss_x1e4: float
    windows_evaluated: int
    failures: int


@dataclass
class BacktestReport:
    rows: list[BacktestRow]


def load_returns_csv(path, has_header: bool = True) -> ReturnsPanel:
    """Read a rectangular CSV of returns; rows = dates, columns = assets.

    A header row, when present, supplies asset labels.  Blank lines are
    skipped.  Any non-numeric or non-finite cell raises :class:`ParseError`
    naming its file line and column; a row, or a header, whose length
    differs from the first data row raises :class:`RaggedRowsError`.  A file
    that is not UTF-8 text, or that the csv module refuses (such as a field
    over its size limit), raises :class:`ParseError` naming the file.

    The file is read once, front to back: each row becomes a float array as
    it is read and the rows are stacked at the end, so the peak memory is
    about twice the panel's array.  The first fault in file order is
    raised, so a bad cell wins over a csv fault on a later line; bytes that
    are not UTF-8 are met when their block of the file is decoded, which
    can be before the rows above them are checked.
    """
    labels, rows = None, []
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                if not row:
                    continue
                if has_header and labels is None:
                    labels = [cell.strip() for cell in row]
                    continue
                if not rows:
                    width = len(row)
                    if labels is not None and len(labels) != width:
                        raise RaggedRowsError(f"{path}: header has {len(labels)} labels,"
                                              f" data rows have {width} cells")
                try:
                    if len(row) != width:
                        raise ValueError
                    values = np.array([float(cell) for cell in row])
                    if not np.isfinite(values).all():
                        raise ValueError
                except ValueError:
                    _raise_first_bad_cell(path, reader.line_num, row, width)
                rows.append(values)
        except UnicodeDecodeError as exc:
            # the decoder's position counts from the start of its read chunk,
            # not of the file, so only the reason is named
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: file is empty" if labels is None
                         else f"{path}: no data rows below the header")
    return ReturnsPanel(values=np.stack(rows), asset_labels=labels)


def _raise_first_bad_cell(path, line: int, row: list[str], width: int) -> None:
    """Raise for ``row``, the file's first row that is ragged or holds a
    non-numeric or non-finite cell, naming its first bad cell."""
    if len(row) != width:
        raise RaggedRowsError(
            f"{path}: line {line} has {len(row)} cells, expected {width}"
        ) from None
    for j, cell in enumerate(row):
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(
                f"{path}: non-numeric cell at line {line}, column {j + 1}: "
                f"{cell!r}"
            ) from None
        if not np.isfinite(value):
            raise ParseError(
                f"{path}: non-finite cell at line {line}, column {j + 1}"
            ) from None


def write_returns_csv(panel: ReturnsPanel, path) -> None:
    write_rows(path, panel.asset_labels, panel.values)


def target_vector(
    strategy: str, window_values: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Target mean vector for one window.

    ``uniform-range-draw`` first averages each asset over the window, then
    draws every coordinate uniformly between the smallest and largest of
    those averages; ``signs`` draws i.i.d. +-1 entries; ``ones`` is the
    all-ones vector.  A window with no row or no asset column raises
    :class:`DimensionMismatchError`, whatever the strategy.
    """
    window_values = np.asarray(window_values, dtype=float)
    if window_values.ndim != 2 or 0 in window_values.shape:
        raise DimensionMismatchError(f"window needs rows and assets: {window_values.shape}")
    p = window_values.shape[1]
    if strategy == "uniform-range-draw":
        means = window_values.mean(axis=0)
        return rng.uniform(means.min(), means.max(), size=p)
    if strategy == "signs":
        return rng.integers(0, 2, size=p) * 2.0 - 1.0
    if strategy == "ones":
        return np.ones(p)
    raise ConfigError(f"unknown target strategy {strategy!r}")


@fewer_blas_threads()
def rolling_backtest(panel: ReturnsPanel, config: BacktestConfig) -> BacktestReport:
    """Evaluate every (window, estimator, target) combination on the panel.

    For each period t >= n the estimators see the n most recent rows and
    predict the equally-weighted portfolio return of period t; the loss is
    the average squared deviation from the realized value, times 1e4.  By
    default each window size starts as early as its own length allows
    (``align_start`` forces a common start at the largest window).  Target
    vectors are redrawn per window from a stream shared by all estimators;
    ``fixed_target`` draws them once per window size instead.

    Every (estimator, target) pair is scored under three rules:

    - an estimator outside :data:`READS_TARGET` runs once per
      window-period, and its prediction, or its failure, is copied to
      every target;
    - a period counts only when no pair failed (raised a
      :class:`ShrinkmeanError`), so the comparison stays paired; failures
      are counted per pair, in counted periods or not;
    - a NaN estimate that did not raise is scored, not counted as a
      failure, so its pair's loss reads NaN.

    It runs on one BLAS thread fewer (see
    :func:`shrinkmean.linalg.fewer_blas_threads`): its BLAS calls are small
    and many, and beside them OpenBLAS's extra thread only spins.
    """
    values = panel.values
    if values.ndim != 2 or values.shape[1] < 1:
        raise DimensionMismatchError(f"panel needs periods x assets, assets >= 1: {values.shape}")
    total = values.shape[0]
    if max(config.windows) >= total:
        raise ConfigError(
            f"largest window {max(config.windows)} must be < {total} periods"
        )
    common_start = max(config.windows)
    pairs = (len(config.estimators), len(config.targets))
    rows: list[BacktestRow] = []

    for n in config.windows:
        start = common_start if config.align_start else n
        sq_sums = np.zeros(pairs)
        failures = np.zeros(pairs, dtype=int)
        evaluated = 0

        for t_idx in range(start, total):
            window = values[t_idx - n : t_idx]
            stats = sample_stats(window.T)
            realized = float(values[t_idx].mean())
            if t_idx == start or not config.fixed_target:
                # fixed targets come from the first window, under period key 0
                key = 0 if config.fixed_target else t_idx
                rng = np.random.default_rng(np.random.SeedSequence((config.seed, n, key)))
                targets = [target_vector(t, window, rng) for t in config.targets]

            preds = np.empty(pairs)
            failed = np.zeros(pairs, dtype=bool)
            for i, est in enumerate(config.estimators):
                # an estimator that ignores the target runs on the first one,
                # and that prediction or failure fills the rest of its row
                runs = len(targets) if est in READS_TARGET else 1
                for j in range(runs):
                    try:
                        mu_hat, _ = evaluate(est, stats, targets[j])
                    except ShrinkmeanError:
                        failed[i, j] = True
                        continue
                    preds[i, j] = mu_hat.mean()
                preds[i, runs:], failed[i, runs:] = preds[i, 0], failed[i, 0]
            failures += failed
            if failed.any():
                continue
            evaluated += 1
            sq_sums += (preds - realized) ** 2

        losses = 1e4 * sq_sums / evaluated if evaluated else np.full(pairs, np.nan)
        for (i, j), loss in np.ndenumerate(losses):
            rows.append(
                BacktestRow(
                    window_n=n,
                    c_hat=panel.n_assets / n,
                    estimator=config.estimators[i],
                    target=config.targets[j],
                    loss_x1e4=float(loss),
                    windows_evaluated=evaluated,
                    failures=int(failures[i, j]),
                )
            )
    return BacktestReport(rows=rows)


def synthetic_panel(p: int, periods: int, seed: int = 0) -> ReturnsPanel:
    """Small i.i.d. Gaussian demo panel with bounded per-asset means.

    Asset means are uniform on +-1/sqrt(p) (the bounded-norm regime) and
    returns, of scale 0.02, share a mild one-factor correlation; suitable
    for smoke tests and the bundled demo, not a market model.  A panel
    with no asset or no period raises :class:`DimensionMismatchError`, and a
    negative seed :class:`ConfigError`.
    """
    if p < 1 or periods < 1:
        raise DimensionMismatchError(f"panel needs p >= 1 assets and periods >= 1: {p}, {periods}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(p)
    means = rng.uniform(-bound, bound, size=p)
    loadings = rng.uniform(0.2, 0.8, size=p)
    factor = rng.standard_normal((periods, 1))
    noise = rng.standard_normal((periods, p))
    data = 0.02 * (factor @ loadings[None, :] + noise) + means[None, :]
    labels = [f"asset_{k + 1}" for k in range(p)]
    return ReturnsPanel(values=data, asset_labels=labels)


def write_backtest_csv(report: BacktestReport, path) -> None:
    """One line per :class:`BacktestRow`, its fields in order."""
    names = [f.name for f in fields(BacktestRow)]
    write_rows(path, names, ([getattr(row, name) for name in names] for row in report.rows))
