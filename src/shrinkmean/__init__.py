"""Optimal linear shrinkage estimation for high-dimensional mean vectors.

The estimator combines the sample mean with a fixed target vector using
data-driven weights that minimize the precision-metric quadratic loss when
both the dimension and the sample size are large.  The package also ships
the classical benchmarks (James-Stein family, unit-target shrinkage), the
limiting moments needed for normality diagnostics, a reproducible Monte
Carlo harness and a rolling-window portfolio backtester.
"""

from .asymptotics import (
    bona_fide_covariance,
    oracle_weight_variances,
    standardize,
)
from .errors import ShrinkmeanError
from .estimators import (
    ESTIMATORS,
    NEEDS_POPULATION,
    ShrinkageWeights,
    bona_fide_intensities,
    evaluate,
    james_stein,
    js_high_dim,
    js_positive_part,
    limit_intensities,
    oracle_intensities,
    wang_estimator,
)
from .finance import (
    BacktestConfig,
    BacktestReport,
    ReturnsPanel,
    load_returns_csv,
    rolling_backtest,
    synthetic_panel,
    target_vector,
)
from .harness import (
    McConfig,
    McReport,
    ks_statistic,
    negative_frequency_table,
    qq_data,
    quadratic_loss,
    run_study,
)
from .linalg import (
    SpdEigen,
    SpdFactor,
    haar_orthogonal,
    spd_factor,
    spd_solve,
    spd_whiten,
)
from .model import (
    DEFAULT_RECIPE,
    EigenRecipe,
    InnovationLaw,
    PopulationSpec,
    SampleStats,
    build_covariance,
    draw_mean_vectors,
    generate_sample,
    innovation_stats,
    sample_stats,
)

__version__ = "0.1.0"
