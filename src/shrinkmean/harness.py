"""Monte Carlo studies: loss curves, negative-weight frequencies, QQ data.

A study runs a grid of (p, c) cells.  Each cell draws one population from
a sub-seed derived from ``(root seed, p, round(1000 c))``, then evaluates
every requested estimator on ``n_reps`` independent samples whose random
streams are derived from ``(root seed, p, round(1000 c), replication + 1)``.
Each replication draws its p x n innovations z from the cell's law and
builds one :class:`SampleStats` of the sample sqrt(sigma) z + mu_n 1' from
them with :func:`innovation_stats`, which forms neither that sample nor,
below p = n, its covariance; every sample-based estimator reads the one
covariance factorization those statistics carry.  The population side is
never factorized: the population carries the eigenpairs its covariance was
built from, and its precision whitening W (W'W = sigma^{-1}) is the one
precision metric of the cell.  It scores every estimate of a replication in
one product, the column sums of squares of ``W @ (M - mu_n 1')`` for the
stack M of the estimates that succeeded, and the oracle and limit weights
read their Gram through it (:func:`oracle_intensities` once per
replication, :func:`limit_intensities` once per cell).  Replications run in
index order, so a study's reports and CSVs are bit-identical for a given
seed; no wall-clock time is recorded.  The QQ helpers take the standard
normal quantile from :class:`statistics.NormalDist` and the CDF from
``math.erfc``, so importing the package loads no scipy subpackage but the
``scipy.linalg`` its triangular solves need: ``scipy.special`` would cost
every run about 3 MB of resident memory, and ``scipy.stats`` more than
double the import time, for helpers only the ``qq`` command calls.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteDataError,
    ShrinkmeanError,
    TooFewSamplesError,
    reject_duplicates,
)
from .estimators import (
    ESTIMATOR_KINDS,
    SAMPLE_ESTIMATORS,
    bona_fide_intensities,
    limit_intensities,
    oracle_intensities,
)
from .model import (
    DEFAULT_RECIPE,
    EigenRecipe,
    InnovationLaw,
    PopulationSpec,
    build_covariance,
    draw_mean_vectors,
    innovation_stats,
)

__all__ = [
    "McConfig",
    "CellResult",
    "McReport",
    "TARGET_MODES",
    "KS_COEFF_1PCT",
    "QQ_MIN_SAMPLES",
    "cell_sample_size",
    "population_rng",
    "cell_population",
    "replication_rng",
    "quadratic_loss",
    "run_cell",
    "run_study",
    "negative_frequency_table",
    "qq_data",
    "ks_statistic",
    "write_losses_csv",
    "write_intensities_csv",
    "write_qq_csv",
    "write_table1_csv",
    "write_rows",
]

TARGET_MODES = ("drawn", "equal-to-mu_n")

#: asymptotic Kolmogorov coefficient at the 1% level; critical value is
#: KS_COEFF_1PCT / sqrt(n_samples)
KS_COEFF_1PCT = 1.63

#: fewest samples :func:`qq_data` and :func:`ks_statistic` accept
QQ_MIN_SAMPLES = 10


def cell_sample_size(p: int, c: float) -> int:
    """Sample size n = round(p / c), half values rounding up."""
    return int(np.floor(p / c + 0.5))


def _cell_entropy(seed: int, p: int, c: float) -> tuple[int, int, int]:
    return (seed, p, int(round(1000 * c)))


def population_rng(seed: int, p: int, c: float) -> np.random.Generator:
    """Stream used to draw the (fixed) population of one grid cell."""
    return np.random.default_rng(np.random.SeedSequence(_cell_entropy(seed, p, c) + (0,)))


def replication_rng(seed: int, p: int, c: float, index: int) -> np.random.Generator:
    """Independent stream of replication ``index`` (0-based) in one cell."""
    return np.random.default_rng(
        np.random.SeedSequence(_cell_entropy(seed, p, c) + (index + 1,))
    )


@dataclass(frozen=True)
class McConfig:
    """Grid, replication count, estimator set and seeding of one study."""

    p_grid: tuple[int, ...]
    c_grid: tuple[float, ...]
    gamma: float = 0.0
    n_reps: int = 1000
    estimators: tuple[str, ...] = ("sample-mean", "olse")
    target_mode: str = "drawn"
    seed: int = 0
    eigen_recipe: EigenRecipe = DEFAULT_RECIPE
    law: InnovationLaw = field(default_factory=InnovationLaw)

    def __post_init__(self) -> None:
        if self.n_reps < 1:
            raise ConfigError("n_reps must be >= 1")
        if not self.p_grid or not self.c_grid:
            raise ConfigError("p_grid and c_grid must be nonempty")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_KINDS]
        if unknown:
            raise ConfigError(f"unknown estimators: {unknown}")
        reject_duplicates(self, "p_grid", "c_grid", "estimators")
        if self.target_mode not in TARGET_MODES:
            raise ConfigError(f"unknown target_mode {self.target_mode!r}, expected one of "
                              f"{', '.join(TARGET_MODES)}")
        if self.gamma not in (0, 1):
            raise ConfigError(f"gamma must be 0 or 1, got {self.gamma}")
        if not all(p >= 2 for p in self.p_grid):
            raise ConfigError(f"dimensions must be >= 2, got {self.p_grid}")
        if not all(c > 0 for c in self.c_grid):
            raise ConfigError(f"concentrations must be positive, got {self.c_grid}")
        for p in self.p_grid:
            for c in self.c_grid:
                if cell_sample_size(p, c) < 2:
                    raise ConfigError(f"cell p={p} c={c} yields n < 2")


@dataclass
class CellResult:
    """Per-replication losses and shrinkage weights of one cell."""

    p: int
    c: float
    n: int
    losses: dict[str, np.ndarray]
    failures: dict[str, int]
    oracle_weights: np.ndarray | None = None
    bona_fide_weights: np.ndarray | None = None

    def mean_loss(self, estimator: str) -> float:
        vals = self.losses[estimator]
        good = vals[np.isfinite(vals)]
        return float(good.mean()) if good.size else float("nan")

    def loss_se(self, estimator: str) -> float:
        vals = self.losses[estimator]
        good = vals[np.isfinite(vals)]
        if good.size < 2:
            return float("nan")
        return float(good.std(ddof=1) / np.sqrt(good.size))

    def negative_frequency(self, kind: str) -> float:
        """Fraction of replications whose alpha weight is negative."""
        weights = {
            "oracle": self.oracle_weights,
            "bona-fide": self.bona_fide_weights,
        }[kind]
        if weights is None:
            raise ConfigError(f"{kind} weights were not recorded in this cell")
        alphas = weights[:, 0]
        good = alphas[np.isfinite(alphas)]
        if good.size == 0:
            return float("nan")
        return float((good < 0).mean())


@dataclass
class McReport:
    """All cells of one study, plus the configuration that produced them."""

    config: McConfig
    cells: list[CellResult]


def quadratic_loss(estimates: np.ndarray, pop: PopulationSpec) -> np.ndarray:
    """Precision-metric quadratic losses (mu_hat - mu_n)' sigma^{-1} (mu_hat - mu_n)
    of the columns of the p x k stack ``estimates``, from one product with
    the population's whitening."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 2 or estimates.shape[0] != pop.p:
        raise DimensionMismatchError(
            f"expected a {pop.p} x k stack of estimates, got shape {estimates.shape}"
        )
    white = pop.whitening() @ (estimates - pop.mu_n[:, None])
    return np.einsum("ij,ij->j", white, white)


def cell_population(config: McConfig, p: int, c: float) -> PopulationSpec:
    rng = population_rng(config.seed, p, c)
    sigma, eigen = build_covariance(config.eigen_recipe, p, rng)
    mu_n, mu_0 = draw_mean_vectors(config.gamma, p, rng)
    if config.target_mode == "equal-to-mu_n":
        mu_0 = mu_n.copy()
    return PopulationSpec(
        p=p, gamma=config.gamma, mu_n=mu_n, mu_0=mu_0, sigma=sigma, eigen=eigen
    )


def run_cell(config: McConfig, pop: PopulationSpec, c: float) -> CellResult:
    """One study cell: ``config.n_reps`` replications at concentration ``c``
    drawn from ``pop``, which :func:`run_study` builds as
    ``cell_population(config, pop.p, c)``.  To score another target on the
    same population and sample streams, pass
    ``dataclasses.replace(pop, mu_0=target)``."""
    p = pop.p
    n = cell_sample_size(p, c)
    n_reps = config.n_reps
    estimators = config.estimators
    losses = {e: np.full(n_reps, np.nan) for e in estimators}

    limit = None
    if "olse-asymptotic" in estimators:
        try:
            limit = limit_intensities(pop, p / n)
        except ShrinkmeanError:
            pass  # its losses stay NaN: a failure in every replication

    # the weights of these entries are recorded too
    recorded = {e: np.full((n_reps, 2), np.nan) for e in ("olse", "olse-oracle")
                if e in estimators}

    for r in range(n_reps):
        rng = replication_rng(config.seed, p, c, r)
        stats = innovation_stats(pop, config.law.draw(rng, (p, n)))
        y_bar = stats.y_bar
        estimates = {}

        for est in estimators:
            try:
                if est == "olse":
                    w = bona_fide_intensities(stats, pop.mu_0)
                elif est == "olse-oracle":
                    w = oracle_intensities(y_bar, pop)
                elif est == "olse-asymptotic":
                    if limit is None:
                        continue
                    w = limit
                else:
                    estimates[est] = SAMPLE_ESTIMATORS[est](stats, pop.mu_0)
                    continue
                if est in recorded:
                    recorded[est][r] = (w.alpha, w.beta)
                estimates[est] = w.alpha * y_bar + w.beta * pop.mu_0
            except (ShrinkmeanError, np.linalg.LinAlgError):
                pass
        if estimates:
            scored = quadratic_loss(np.column_stack(list(estimates.values())), pop)
            for est, loss in zip(estimates, scored):
                losses[est][r] = loss
        del stats  # free this sample before the next one is drawn (peak memory)

    failures = {est: int(np.isnan(losses[est]).sum()) for est in estimators}
    return CellResult(
        p=p,
        c=c,
        n=n,
        losses=losses,
        failures=failures,
        oracle_weights=recorded.get("olse-oracle"),
        bona_fide_weights=recorded.get("olse"),
    )


def run_study(config: McConfig) -> McReport:
    """Run the full (p, c) grid of a study configuration.

    Estimator errors inside a replication are recorded as failures for
    that estimator (loss left NaN), never aborts.
    """
    cells = [run_cell(config, cell_population(config, p, c), c)
             for p in config.p_grid for c in config.c_grid]
    return McReport(config=config, cells=cells)


def negative_frequency_table(config: McConfig) -> list[dict]:
    """Per-cell frequencies of a negative alpha weight, oracle and bona fide.
    Only the two estimators that record weights run, whatever ``config`` lists."""
    report = run_study(replace(config, estimators=("olse", "olse-oracle")))
    return [{"p": cell.p, "c": cell.c,
             "oracle_negative_freq": cell.negative_frequency("oracle"),
             "bona_fide_negative_freq": cell.negative_frequency("bona-fide")}
            for cell in report.cells]


def _sorted_qq_samples(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.size < QQ_MIN_SAMPLES:
        raise TooFewSamplesError(
            f"need at least {QQ_MIN_SAMPLES} samples, got {samples.size}"
        )
    if not np.isfinite(samples).all():
        raise NonFiniteDataError("QQ samples hold a NaN or infinite entry")
    return np.sort(samples)


def qq_data(samples: np.ndarray) -> np.ndarray:
    """Pairs (standard-normal quantile, sorted sample) at positions (i-0.5)/N."""
    ordered = _sorted_qq_samples(samples)
    positions = (np.arange(1, ordered.size + 1) - 0.5) / ordered.size
    quantile = NormalDist().inv_cdf
    return np.column_stack([[quantile(q) for q in positions], ordered])


def ks_statistic(samples: np.ndarray) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF."""
    ordered = _sorted_qq_samples(samples)
    count = ordered.size
    cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2)) for x in ordered])
    upper = np.arange(1, count + 1) / count - cdf
    lower = cdf - np.arange(0, count) / count
    return float(max(upper.max(), lower.max()))


def write_rows(path, header: list[str] | None, rows) -> None:
    """Write ``rows`` as CSV under ``header`` (no header line for None): the
    package's one CSV writer, with floats to 12 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".12g") if isinstance(v, float) else v for v in row])


def write_losses_csv(report: McReport, path) -> None:
    rows = []
    for cell in report.cells:
        for est in report.config.estimators:
            rows.append((cell.p, cell.c, est, cell.mean_loss(est), cell.loss_se(est)))
    write_rows(path, ["p", "c", "estimator", "mean_loss", "se"], rows)


def write_intensities_csv(report: McReport, path) -> None:
    rows = []
    for cell in report.cells:
        for kind, weights in (
            ("oracle", cell.oracle_weights),
            ("bona-fide", cell.bona_fide_weights),
        ):
            if weights is None:
                continue
            for r in range(weights.shape[0]):
                rows.append((cell.p, cell.c, kind, r, weights[r, 0], weights[r, 1]))
    write_rows(path, ["p", "c", "kind", "replication", "alpha", "beta"], rows)


def write_qq_csv(pairs: np.ndarray, quantity: str, p: int, c: float, path) -> None:
    rows = [(quantity, p, c, float(t), float(e)) for t, e in pairs]
    write_rows(path, ["quantity", "p", "c", "theoretical", "empirical"], rows)


def write_table1_csv(rows: list[dict], path) -> None:
    header = ["p", "c", "oracle_negative_freq", "bona_fide_negative_freq"]
    write_rows(path, header, ([r[key] for key in header] for r in rows))
