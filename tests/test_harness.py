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
from shrinkmean.errors import ConfigError, TooFewSamplesError
from shrinkmean.harness import McConfig, ks_statistic, qq_data


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about two-thirds of a cold import; the package
    # takes the normal quantile and CDF from scipy.special instead
    src = str(Path(shrinkmean.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, shrinkmean, shrinkmean.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(shrinkmean.__path__)))
def test_every_exported_name_resolves(module):
    # a deleted function or class must leave its module's __all__ as well
    mod = importlib.import_module(f"shrinkmean.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


class TestQqHelpers:
    def test_theoretical_column_is_normal_ppf(self, rng):
        samples = rng.standard_normal(257)
        pairs = qq_data(samples)
        positions = (np.arange(1, 258) - 0.5) / 257
        np.testing.assert_array_equal(pairs[:, 0], norm.ppf(positions))
        np.testing.assert_array_equal(pairs[:, 1], np.sort(samples))

    def test_ks_statistic_matches_kstest(self, rng):
        for z in (rng.standard_normal(200), rng.standard_normal(50) + 0.3):
            assert abs(ks_statistic(z) - kstest(z, "norm").statistic) <= 1e-15

    @pytest.mark.parametrize("helper", [qq_data, ks_statistic])
    def test_nine_samples_rejected(self, helper):
        with pytest.raises(TooFewSamplesError):
            helper(np.arange(9.0))


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
