"""QQ diagnostics, custom targets and the package's import footprint."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest, norm

import shrinkmean
from shrinkmean.errors import ConfigError, TooFewSamplesError
from shrinkmean.harness import McConfig, cell_population, ks_statistic, qq_data, run_study


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about two-thirds of a cold import; the package
    # takes the normal quantile and CDF from scipy.special instead
    src = str(Path(shrinkmean.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, shrinkmean, shrinkmean.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


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


class TestCustomTarget:
    def test_population_uses_the_given_target(self):
        target = np.linspace(-1.0, 1.0, 20)
        config = McConfig(p_grid=(20,), c_grid=(0.5,), target_mode="custom",
                          custom_target=target)
        pop = cell_population(config, 20, 0.5)
        np.testing.assert_array_equal(pop.mu_0, target)

    def test_wrong_length_rejected(self):
        config = McConfig(p_grid=(20,), c_grid=(0.5,), n_reps=2, target_mode="custom",
                          custom_target=np.ones(19))
        with pytest.raises(ConfigError):
            run_study(config)

    def test_missing_vector_rejected(self):
        with pytest.raises(ConfigError):
            McConfig(p_grid=(20,), c_grid=(0.5,), target_mode="custom")
