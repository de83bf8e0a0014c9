"""QQ diagnostics, config validation, the loss's and the weight
frequency's input checks, and the package's import footprint and
exports."""

import importlib
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest, norm

import shrinkmean
from shrinkmean.errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteDataError,
    TooFewSamplesError,
)
from shrinkmean.harness import (
    McConfig,
    cell_population,
    ks_statistic,
    qq_data,
    quadratic_loss,
    run_cell,
)


def _fresh_output(code: str) -> str:
    """What ``code`` prints in a new interpreter that imports this package."""
    src = str(Path(shrinkmean.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.strip()


def test_import_loads_neither_scipy_stats_nor_special():
    # scipy.stats costs about two-thirds of a cold import and scipy.special
    # about 3 MB of resident memory; the package takes the normal quantile
    # and CDF from the standard library (and loads no scipy module at all:
    # test_population_eigen.TestOneBlas)
    code = ("import sys, shrinkmean, shrinkmean.cli; "
            "print(sorted({'scipy.stats', 'scipy.special'} & set(sys.modules)))")
    assert _fresh_output(code) == "[]"


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(shrinkmean.__path__)))
def test_every_exported_name_resolves(module):
    # a deleted function or class must leave its module's __all__ as well
    mod = importlib.import_module(f"shrinkmean.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


class TestPackageRoot:
    # the names the package root re-exported eagerly before it resolved
    # them on first use, by the submodule that defines them
    ROOT_NAMES = {
        "asymptotics": ("bona_fide_covariance", "oracle_weight_variances", "standardize"),
        "errors": ("ShrinkmeanError",),
        "estimators": ("ESTIMATORS", "NEEDS_POPULATION",
                       "bona_fide_intensities", "evaluate", "james_stein", "js_high_dim",
                       "js_positive_part", "limit_intensities", "oracle_intensities",
                       "wang_estimator"),
        "finance": ("BacktestConfig", "BacktestReport", "ReturnsPanel", "load_returns_csv",
                    "rolling_backtest", "synthetic_panel", "target_vector"),
        "harness": ("McConfig", "McReport", "ks_statistic", "negative_frequency_table",
                    "qq_data", "quadratic_loss", "run_study"),
        "linalg": ("SpdFactor", "haar_orthogonal", "spd_factor", "spd_solve", "spd_whiten"),
        "model": ("DEFAULT_RECIPE", "EigenRecipe", "InnovationLaw", "PopulationSpec",
                  "SampleStats", "build_covariance", "draw_mean_vectors", "sample_stats"),
    }

    def test_import_loads_no_submodule(self):
        code = ("import sys, shrinkmean; print(sorted(m for m in sys.modules "
                "if m == 'numpy' or m.startswith('shrinkmean')))")
        assert _fresh_output(code) == "['shrinkmean', 'shrinkmean.errors']"

    def test_submodule_read_loads_that_submodule_alone(self):
        # this process has imported every submodule already, so only a new
        # interpreter reaches the root's submodule branch
        code = ("import sys, shrinkmean; module = shrinkmean.linalg; "
                "print(module is sys.modules['shrinkmean.linalg'], "
                "sorted(m for m in sys.modules if m.startswith('shrinkmean')))")
        assert _fresh_output(code) == (
            "True ['shrinkmean', 'shrinkmean.errors', 'shrinkmean.linalg']")

    @pytest.mark.parametrize("module, name", [(m, n) for m, names in ROOT_NAMES.items()
                                              for n in names])
    def test_name_is_the_submodule_object(self, module, name):
        own = getattr(importlib.import_module(f"shrinkmean.{module}"), name)
        namespace = {}
        exec(f"from shrinkmean import {name}", namespace)
        assert getattr(shrinkmean, name) is own and namespace[name] is own
        assert name in dir(shrinkmean)

    def test_unknown_name_and_submodule_import(self):
        for name in ("no_such_name", "generate_sample"):
            with pytest.raises(AttributeError, match=name):
                getattr(shrinkmean, name)
        from shrinkmean import cli

        assert cli is sys.modules["shrinkmean.cli"]

    def test_name_read_under_a_patch_is_not_kept(self, monkeypatch):
        from shrinkmean import linalg

        original, patched = linalg.spd_factor, object()
        with monkeypatch.context() as m:
            m.setattr(linalg, "spd_factor", patched)
            assert shrinkmean.spd_factor is patched
        assert shrinkmean.spd_factor is original
        assert "spd_factor" not in vars(shrinkmean)


class TestQqHelpers:
    def test_theoretical_column_is_normal_ppf(self, rng):
        # scipy's ndtri and the standard library's inv_cdf are separate
        # implementations of the same quantile, each accurate to a few ulps;
        # they differ by at most 6 ulps over N = 10 ... 10^5, down to the
        # tail position 5e-6 of N = 10^5
        for count in (10, 257, 10**5):
            samples = rng.standard_normal(count)
            pairs = qq_data(samples)
            expected = norm.ppf((np.arange(1, count + 1) - 0.5) / count)
            ulps = np.abs(pairs[:, 0] - expected) / np.spacing(np.abs(expected))
            assert ulps.max() <= 8
            np.testing.assert_array_equal(pairs[:, 1], np.sort(samples))

    def test_ks_statistic_matches_kstest(self, rng):
        for z in (rng.standard_normal(200), rng.standard_normal(50) + 0.3):
            assert abs(ks_statistic(z) - kstest(z, "norm").statistic) <= 1e-15

    @pytest.mark.parametrize("helper", [qq_data, ks_statistic])
    def test_nine_samples_rejected(self, helper):
        with pytest.raises(TooFewSamplesError):
            helper(np.arange(9.0))

    @pytest.mark.parametrize("helper", [qq_data, ks_statistic])
    def test_nan_sample_rejected(self, helper, rng):
        # a NaN would sort last and pair with the largest quantile, and
        # turn the KS statistic into NaN
        with pytest.raises(NonFiniteDataError):
            helper(np.append(rng.standard_normal(20), np.nan))


class TestDuplicateEntries:
    @pytest.mark.parametrize("field, value", [("p_grid", (20, 40, 20)),
                                              ("c_grid", (0.5, 0.5)),
                                              ("estimators", ("olse", "olse"))])
    def test_rejected(self, field, value):
        fields = {"p_grid": (20,), "c_grid": (0.5,), field: value}
        with pytest.raises(ConfigError, match=field):
            McConfig(**fields)

    def test_distinct_entries_accepted(self):
        config = McConfig(p_grid=(20, 40), c_grid=(0.5, 2.0), estimators=("olse", "wang"))
        assert config.estimators == ("olse", "wang")


@pytest.mark.parametrize("fields, match", [
    ({"n_reps": 0}, "n_reps"),
    ({"c_grid": ()}, "nonempty"),
    ({"estimators": ("olse", "olse+")}, "unknown estimators"),
    ({"gamma": 0.5}, "gamma"),
    ({"p_grid": (2,), "c_grid": (2.0,)}, "n < 2"),  # n = round(2 / 2) = 1
    ({"seed": -1}, "seed"),  # numpy's seed sequences take no negative entropy
], ids=["no-replication", "empty-grid", "unknown-estimator", "gamma", "n-below-2",
        "negative-seed"])
def test_config_rejected(fields, match):
    with pytest.raises(ConfigError, match=match):
        McConfig(**{"p_grid": (20,), "c_grid": (0.5,), **fields})


def test_negative_frequency_of_failed_or_unrecorded_weights():
    # a zero target fails the bona fide weights of every replication, which
    # leaves no alpha to count; sample-mean records no weights at all
    config = McConfig(p_grid=(20,), c_grid=(0.5,), n_reps=3, estimators=("sample-mean", "olse"))
    pop = replace(cell_population(config, 20, 0.5), mu_0=np.zeros(20))
    cell = run_cell(config, pop, 0.5)
    assert cell.failures == {"sample-mean": 0, "olse": 3}
    assert np.isnan(cell.negative_frequency("olse"))
    for estimator in ("sample-mean", "olse-oracle"):
        with pytest.raises(ConfigError, match=f"{estimator} weights were not recorded"):
            cell.negative_frequency(estimator)


@pytest.mark.parametrize("shape", [(20,), (21, 2), (20, 2, 1)])
def test_quadratic_loss_needs_a_p_by_k_stack(shape):
    pop = cell_population(McConfig(p_grid=(20,), c_grid=(0.5,)), 20, 0.5)
    with pytest.raises(DimensionMismatchError):
        quadratic_loss(np.zeros(shape), pop)
