"""CSV loading errors, empty windows and panels, the backtest's config
checks, start and target options, and its per-window-period estimator calls
and pairing."""

import numpy as np
import pytest

from conftest import backtest_loss, one_fewer
import shrinkmean.estimators
import shrinkmean.finance
import shrinkmean.model
from shrinkmean.errors import (
    ConfigError,
    DegenerateDenominatorError,
    DimensionMismatchError,
    ParseError,
    RaggedRowsError,
)
from shrinkmean.estimators import READS_TARGET, evaluate, js_positive_part
from shrinkmean.finance import (
    TARGET_STRATEGIES,
    BacktestConfig,
    ReturnsPanel,
    load_returns_csv,
    rolling_backtest,
    synthetic_panel,
    target_vector,
)
from shrinkmean.linalg import blas_threads
from shrinkmean.model import sample_stats


def load(tmp_path, text, **kwargs):
    path = tmp_path / "returns.csv"
    path.write_text(text)
    return load_returns_csv(path, **kwargs)


class TestLoadReturnsCsv:
    def test_round_trip(self, tmp_path):
        panel = load(tmp_path, "a,b\n1,2\n\n3,4.5\n")
        assert panel.asset_labels == ["a", "b"]
        assert np.array_equal(panel.values, [[1.0, 2.0], [3.0, 4.5]])

    def test_no_header(self, tmp_path):
        panel = load(tmp_path, "1,2\n3,4\n", has_header=False)
        assert panel.asset_labels is None
        assert panel.values.shape == (2, 2)

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(ParseError, match=r"non-numeric cell at line 3, column 2: 'x'"):
            load(tmp_path, "a,b\n1,2\n3,x\n")

    @pytest.mark.parametrize("cell", ["inf", "nan", "-inf"])
    def test_non_finite_cell(self, tmp_path, cell):
        with pytest.raises(ParseError, match=r"non-finite cell at line 2, column 1"):
            load(tmp_path, f"a,b\n{cell},2\n")

    def test_line_number_counts_blank_lines(self, tmp_path):
        with pytest.raises(ParseError, match=r"line 5, column 2"):
            load(tmp_path, "a,b\n1,2\n\n\n3,x\n")

    def test_ragged_row(self, tmp_path):
        with pytest.raises(RaggedRowsError, match=r"line 4 has 3 cells, expected 2"):
            load(tmp_path, "a,b\n1,2\n\n3,4,5\n")

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3,inf\n\nx,4\n", "non-finite cell at line 3, column 2"),
        ("a,b\n1,-inf\n1,2,3\n", "non-finite cell at line 2, column 2"),
        ("a,b,c\n1,nan,x\n", "non-finite cell at line 2, column 2"),
        ("a,b,c\n1,x,nan\n", "non-numeric cell at line 2, column 2: 'x'"),
    ], ids=["earlier-line", "before-ragged-row", "earlier-column", "non-numeric-first"])
    def test_first_bad_cell_in_file_order(self, tmp_path, text, message):
        # a non-finite cell is only seen once its row converts, yet it is
        # reported before any later bad cell of its row or of the file
        with pytest.raises(ParseError, match=message):
            load(tmp_path, text)

    def test_header_wider_than_data(self, tmp_path):
        with pytest.raises(RaggedRowsError, match=r"header has 3 labels"):
            load(tmp_path, "a,b,c\n1,2\n3,4\n")

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            load(tmp_path, "\n\n")

    def test_header_only(self, tmp_path):
        with pytest.raises(ParseError, match="no data rows"):
            load(tmp_path, "a,b\n")


def _panel(periods=20, p=4, seed=3):
    rng = np.random.default_rng(seed)
    return ReturnsPanel(values=0.01 * rng.standard_normal((periods, p)) + 0.002)


@pytest.mark.parametrize("strategy", TARGET_STRATEGIES)
@pytest.mark.parametrize("shape", [(5, 0), (0, 5)], ids=["no-asset", "no-row"])
def test_empty_window_has_no_target(strategy, shape):
    # numpy would reject a 0-column range draw, warn on a 0-row mean and
    # return NaN targets, or return an empty or full vector without a word
    with pytest.raises(DimensionMismatchError):
        target_vector(strategy, np.empty(shape), np.random.default_rng(0))


@pytest.mark.parametrize("p, periods", [(0, 30), (5, 0)])
def test_empty_synthetic_panel_rejected(p, periods):
    # p = 0 would divide by zero for the mean bound, then overflow the draw
    with pytest.raises(DimensionMismatchError):
        synthetic_panel(p, periods)


def test_synthetic_panel_negative_seed_rejected():
    # the configs' message, where numpy's seeding raised its own ValueError
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        synthetic_panel(5, 30, seed=-1)


@pytest.mark.parametrize("field, value", [("windows", (20, 20)),
                                          ("estimators", ("olse", "sample-mean", "olse")),
                                          ("targets", ("ones", "ones"))])
def test_duplicate_entries_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        BacktestConfig(**{field: value})


@pytest.mark.parametrize("fields, match", [
    ({"windows": (1, 10)}, "window sizes must be >= 2"),
    ({"estimators": ("olse", "olse+")}, "unknown estimators"),
    ({"targets": ("ones", "zeros")}, "unknown target strategies"),
    ({"seed": -1}, "seed"),
], ids=["window-below-2", "unknown-estimator", "unknown-target", "negative-seed"])
def test_invalid_entries_rejected(fields, match):
    with pytest.raises(ConfigError, match=match):
        BacktestConfig(**fields)


def test_unknown_target_strategy_rejected():
    with pytest.raises(ConfigError, match="zeros"):
        target_vector("zeros", np.ones((5, 3)), np.random.default_rng(0))


class TestBacktestOptions:
    def test_panel_without_assets_rejected(self):
        # no asset column leaves every window empty: rejected before the
        # loop, not by numpy's reduction of an empty target range
        with pytest.raises(DimensionMismatchError):
            rolling_backtest(ReturnsPanel(values=np.empty((30, 0))), BacktestConfig(windows=(10,)))

    @pytest.mark.parametrize("windows", [(20,), (5, 25)])
    def test_window_needs_a_later_period(self, windows):
        # a window of all 20 periods leaves no period to predict
        with pytest.raises(ConfigError, match="must be < 20 periods"):
            rolling_backtest(_panel(periods=20), BacktestConfig(windows=windows))

    @pytest.mark.parametrize("align_start", [True, False])
    def test_align_start(self, align_start):
        panel = _panel()
        config = BacktestConfig(windows=(6, 10), estimators=("sample-mean", "olse"),
                                align_start=align_start)
        report = rolling_backtest(panel, config)
        for row in report.rows:
            start = max(config.windows) if align_start else row.window_n
            assert row.windows_evaluated == panel.n_periods - start
            assert row.failures == 0

    def test_fixed_target(self, monkeypatch):
        panel = _panel()
        config = BacktestConfig(windows=(6, 10), estimators=("sample-mean", "olse"),
                                targets=("uniform-range-draw", "signs"),
                                align_start=True, fixed_target=True, seed=7)
        drawn = {}  # (window size, target) -> the vectors target_vector returned
        original = shrinkmean.finance.target_vector

        def recording(strategy, window_values, rng):
            vector = original(strategy, window_values, rng)
            drawn.setdefault((len(window_values), strategy), []).append(vector)
            return vector

        monkeypatch.setattr(shrinkmean.finance, "target_vector", recording)
        report = rolling_backtest(panel, config)

        assert sorted(drawn) == sorted((n, t) for n in config.windows for t in config.targets)
        assert all(len(vectors) == 1 for vectors in drawn.values())

        values = panel.values
        start = max(config.windows)
        for (n, target), (mu_0,) in drawn.items():
            sq = 0.0
            for t_idx in range(start, panel.n_periods):
                stats = sample_stats(values[t_idx - n : t_idx].T)
                estimate, _ = evaluate("olse", stats, mu_0)
                sq += (float(estimate.mean()) - float(values[t_idx].mean())) ** 2
            expected = 1e4 * sq / (panel.n_periods - start)
            assert backtest_loss(report, n, "olse", target) == pytest.approx(expected, rel=1e-12)


HIGH_DIM = ("sample-mean", "olse", "js-high-dim", "js-positive-part", "wang")


class TestBacktestEstimatorCalls:
    def test_target_free_estimators_run_once_per_window_period(self, monkeypatch):
        calls = dict.fromkeys(
            ("bona_fide_intensities", "js_high_dim", "js_positive_part", "wang_estimator"), 0)

        def counting(name):
            original = getattr(shrinkmean.estimators, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(shrinkmean.estimators, name, counting(name))
        panel = _panel(periods=20, p=12)
        config = BacktestConfig(windows=(5, 8), estimators=HIGH_DIM)
        report = rolling_backtest(panel, config)
        assert all(row.failures == 0 for row in report.rows)
        periods = (20 - 5) + (20 - 8)
        assert READS_TARGET == {"olse"}
        assert calls == {"bona_fide_intensities": 3 * periods, "js_high_dim": periods,
                         "js_positive_part": periods, "wang_estimator": periods}

    def test_both_positive_part_forms(self):
        # each registry name of the positive-part estimator is its own row,
        # scored from js_positive_part in that form
        panel = _panel(periods=20, p=12)
        forms = {"js-positive-part": True, "js-positive-part-conventional": False}
        config = BacktestConfig(windows=(5, 8), estimators=tuple(forms))
        report = rolling_backtest(panel, config)
        assert len(report.rows) == 2 * len(forms) * len(config.targets)
        values = panel.values
        for row in report.rows:
            n = row.window_n
            sq = 0.0
            for t_idx in range(n, panel.n_periods):
                stats = sample_stats(values[t_idx - n : t_idx].T)
                pred = float(js_positive_part(stats, as_printed=forms[row.estimator]).mean())
                sq += (pred - float(values[t_idx].mean())) ** 2
            assert row.failures == 0
            assert row.loss_x1e4 == pytest.approx(1e4 * sq / (panel.n_periods - n), rel=1e-12)
        losses = {row.estimator: row.loss_x1e4 for row in report.rows}
        assert losses["js-positive-part"] != losses["js-positive-part-conventional"]

    def test_mean_whitened_once_per_window_period(self, monkeypatch):
        # p > n: one solve against G for y_bar when the window is factored,
        # one per target for olse and one for Wang's ones vector; the
        # James-Stein pair reads the whitened y_bar and solves nothing
        calls = []
        solve = shrinkmean.model.spd_solve

        def counting(factor, b):
            calls.append(np.shape(b))
            return solve(factor, b)

        monkeypatch.setattr(shrinkmean.model, "spd_solve", counting)
        panel = _panel(periods=20, p=12)
        config = BacktestConfig(windows=(5, 8),
                                estimators=("olse", "js-high-dim", "js-positive-part", "wang"))
        report = rolling_backtest(panel, config)
        assert all(row.failures == 0 for row in report.rows)
        periods = (20 - 5) + (20 - 8)
        assert len(calls) == 5 * periods
        assert all(len(shape) == 1 for shape in calls)  # one vector per solve

    def test_runs_on_one_blas_thread_fewer(self, monkeypatch):
        # every window-period sees the lowered count, and it is restored
        # when the backtest returns
        before, seen = blas_threads(), []

        def recording(y):
            seen.append(blas_threads())
            return sample_stats(y)

        monkeypatch.setattr(shrinkmean.finance, "sample_stats", recording)
        rolling_backtest(_panel(periods=20, p=12), BacktestConfig(windows=(5, 8)))
        assert seen == [one_fewer(before)] * ((20 - 5) + (20 - 8))
        assert blas_threads() == before


class TestBacktestPairing:
    def test_one_failure_drops_the_period_for_every_pair(self, monkeypatch):
        panel = _panel(periods=20, p=12)
        config = BacktestConfig(windows=(6,), estimators=HIGH_DIM)
        clean = rolling_backtest(panel, config)

        failing = panel.values[10 - 6 : 10].T  # the window that predicts period 10
        original = shrinkmean.estimators.wang_estimator

        def wang_failing_once(stats, direction=None):
            if np.array_equal(stats.y_bar, failing.mean(axis=1)):
                raise DegenerateDenominatorError("injected failure")
            return original(stats, direction)

        monkeypatch.setattr(shrinkmean.estimators, "wang_estimator", wang_failing_once)
        paired = rolling_backtest(panel, config)

        assert len(paired.rows) == len(clean.rows) == len(HIGH_DIM) * 3
        for before, after in zip(clean.rows, paired.rows):
            assert (after.estimator, after.target) == (before.estimator, before.target)
            assert after.windows_evaluated == before.windows_evaluated - 1
            assert after.failures == before.failures + (after.estimator == "wang")
            assert after.loss_x1e4 != before.loss_x1e4

    def test_nan_estimate_is_scored_not_failed(self, monkeypatch):
        # an estimate that comes back NaN without raising is not a failure:
        # the period still counts and that entry's losses read NaN, while
        # every other pair keeps the loss of the clean run
        panel = _panel(periods=20, p=12)
        config = BacktestConfig(windows=(6,), estimators=HIGH_DIM)
        clean = rolling_backtest(panel, config)

        nan_window = panel.values[10 - 6 : 10].T  # the window that predicts period 10
        original = shrinkmean.estimators.wang_estimator

        def wang_nan_once(stats, direction=None):
            if np.array_equal(stats.y_bar, nan_window.mean(axis=1)):
                return np.full(stats.p, np.nan)
            return original(stats, direction)

        monkeypatch.setattr(shrinkmean.estimators, "wang_estimator", wang_nan_once)
        scored = rolling_backtest(panel, config)

        assert len(scored.rows) == len(clean.rows) == len(HIGH_DIM) * 3
        for before, after in zip(clean.rows, scored.rows):
            assert (after.estimator, after.target) == (before.estimator, before.target)
            assert after.windows_evaluated == before.windows_evaluated == 20 - 6
            assert after.failures == before.failures == 0
            if after.estimator == "wang":
                assert np.isnan(after.loss_x1e4)
            else:
                assert after.loss_x1e4 == before.loss_x1e4
