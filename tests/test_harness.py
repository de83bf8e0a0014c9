"""QQ diagnostics, config validation and the package's import footprint
and exports."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest, norm

import shrinkmean
from shrinkmean.errors import ConfigError, NonFiniteDataError, TooFewSamplesError
from shrinkmean.harness import McConfig, ks_statistic, qq_data


def test_import_loads_neither_scipy_stats_nor_special():
    # scipy.stats costs about two-thirds of a cold import and scipy.special
    # about 3 MB of resident memory; the package takes the normal quantile
    # and CDF from the standard library (and loads no scipy module at all:
    # test_population_eigen.TestOneBlas)
    src = str(Path(shrinkmean.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, shrinkmean, shrinkmean.cli; "
            "print(sorted({'scipy.stats', 'scipy.special'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(shrinkmean.__path__)))
def test_every_exported_name_resolves(module):
    # a deleted function or class must leave its module's __all__ as well
    mod = importlib.import_module(f"shrinkmean.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


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
