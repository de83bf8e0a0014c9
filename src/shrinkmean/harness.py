"""Monte Carlo studies: loss curves and negative-weight frequencies.

A study runs a grid of (p, c) cells.  Each cell draws one population from
a sub-seed derived from ``(root seed, p, round(1000 c))``, then evaluates
every requested estimator on ``n_reps`` independent samples whose random
streams are derived from ``(root seed, p, round(1000 c), replication + 1)``;
:class:`McConfig` rejects two concentrations that round to the same thousandth.
Every estimator runs through :func:`shrinkmean.estimators.evaluate`, the
one call the backtester makes too, so a name in the one table
:data:`ESTIMATORS` is all a study needs.
Each replication draws its p x n innovations z from the cell's law; its
sample is y = R z + mu_n 1', with R = sigma^{1/2} = Q diag(lam)^{1/2} Q'.
The cell is scored in the frame :meth:`PopulationSpec.frame` picks, where
neither y nor R is formed: below p = n the whitened frame (x = R^{-1} y,
sample z + R^{-1} mu_n 1'), at or above it the eigenbasis frame (u = Q' y,
sample diag(lam)^{1/2} Q' z + Q' mu_n 1').  A replication's
:class:`SampleStats` are those of the frame's map of z, with y_bar shifted.
Every estimator that runs in a frame is equivariant under its change of
coordinates, so the frame gives the numbers of y itself, for every
innovation law (the argument is in :meth:`PopulationSpec.frame`).  Every
sample-based estimator reads the one covariance factorization those
statistics carry.  The population side is never factorized: a frame holds
its covariance as eigenvalues on the standard basis, so its precision
whitening W (W'W = sigma^{-1}) is a row scaling, the one precision metric
of the cell.  It scores every estimate of a replication at once, the
column sums of squares of ``W (M - mu_n 1')`` for the stack M of the
estimates that succeeded, and the oracle and limit weights read their Gram
through it, both once per replication.
One helper thread draws the innovations two replications ahead: replications
0 and 1 are queued when the cell starts, and replication r + 2 once the main
thread has built replication r's statistics, so while the main thread
evaluates replication r the helper draws r + 1 and then r + 2.  It calls only
:func:`replication_rng`, :meth:`InnovationLaw.draw`, whose fill releases the
GIL, and the frame's map, at or above p = n :meth:`PopulationSpec.color`, a
GEMM that releases it too, and it ends with its cell, also when a draw or an
estimator raises.  Both threads' BLAS calls meanwhile run under
:func:`shrinkmean.linalg.fewer_blas_threads`, so the helper gets the core
that OpenBLAS's extra thread would spin on, and calls BLAS itself on the
thread left; :func:`cell_population` builds under that limit too, since a
BLAS call on all threads leaves the extra one spinning after it returns.
Each replication keeps its own stream and its results their index, so a
study's reports and CSVs are the same for a given seed whatever the thread
timing; no wall-clock time is recorded.  The normality diagnostics of the
``qq`` command live in :mod:`.asymptotics`, so a study loads neither them
nor the standard library's ``statistics``.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    ShrinkmeanError,
    reject_duplicates,
)
from .estimators import ESTIMATORS, evaluate
from .linalg import fewer_blas_threads
from .model import (
    DEFAULT_RECIPE,
    EigenRecipe,
    InnovationLaw,
    PopulationSpec,
    build_covariance,
    draw_mean_vectors,
    sample_stats,
)
from .tables import write_rows

__all__ = [
    "McConfig",
    "CellResult",
    "McReport",
    "TARGET_MODES",
    "cell_sample_size",
    "population_rng",
    "cell_population",
    "replication_rng",
    "quadratic_loss",
    "run_cell",
    "run_study",
    "write_losses_csv",
    "write_intensities_csv",
    "write_qq_csv",
    "write_table1_csv",
]

TARGET_MODES = ("drawn", "equal-to-mu_n")

#: the estimators whose weights a cell records, each with its ``kind`` in
#: intensities.csv, in the order their rows are written
_INTENSITY_KINDS = {"olse-oracle": "oracle", "olse": "bona-fide"}


def cell_sample_size(p: int, c: float) -> int:
    """Sample size n = round(p / c), half values rounding up."""
    return int(np.floor(p / c + 0.5))


def _stream_key(c: float) -> int:
    """The entry of ``c`` in its cell's stream entropy: c in thousandths."""
    return int(round(1000 * c))


def _cell_entropy(seed: int, p: int, c: float) -> tuple[int, int, int]:
    return (seed, p, _stream_key(c))


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.p_grid or not self.c_grid:
            raise ConfigError("p_grid and c_grid must be nonempty")
        if not self.estimators:
            raise ConfigError("estimators must name at least one estimator")
        unknown = [e for e in self.estimators if e not in ESTIMATORS]
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
        keyed: dict[int, float] = {}
        for c in self.c_grid:
            other = keyed.setdefault(_stream_key(c), c)
            if other != c:
                raise ConfigError(f"concentrations {other} and {c} round to the same "
                                  "thousandth, so their cells would share random streams")


@dataclass(eq=False)
class CellResult:
    """Per-replication losses of one cell, and the n_reps x 2 (alpha, beta)
    shrinkage weights of each of ``olse`` and ``olse-oracle`` that ran."""

    p: int
    c: float
    n: int
    losses: dict[str, np.ndarray]
    failures: dict[str, int]
    weights: dict[str, np.ndarray]

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

    def negative_frequency(self, estimator: str) -> float:
        """Fraction of replications whose alpha weight is negative."""
        if estimator not in self.weights:
            raise ConfigError(f"{estimator} weights were not recorded in this cell")
        alphas = self.weights[estimator][:, 0]
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
    of the columns of the p x k stack ``estimates``, whitened at once by the
    population's eigenpairs (a row scaling in a whitened frame)."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 2 or estimates.shape[0] != pop.p:
        raise DimensionMismatchError(
            f"expected a {pop.p} x k stack of estimates, got shape {estimates.shape}"
        )
    white = pop.whiten(estimates - pop.mu_n[:, None])
    return np.einsum("ij,ij->j", white, white)


def cell_population(config: McConfig, p: int, c: float) -> PopulationSpec:
    """The population of one cell, drawn from :func:`population_rng`.  It is
    built on one BLAS thread fewer, as its cell runs: its p x p Haar QR on
    every thread would leave OpenBLAS's extra one spinning beside the cell's
    draws."""
    with fewer_blas_threads():
        rng = population_rng(config.seed, p, c)
        values, vectors = build_covariance(config.eigen_recipe, p, rng)
        mu_n, mu_0 = draw_mean_vectors(config.gamma, p, rng)
    if config.target_mode == "equal-to-mu_n":
        mu_0 = mu_n.copy()
    return PopulationSpec(p=p, mu_n=mu_n, mu_0=mu_0, values=values, vectors=vectors)


def run_cell(config: McConfig, pop: PopulationSpec, c: float) -> CellResult:
    """One study cell: ``config.n_reps`` replications at concentration ``c``
    drawn from ``pop``, which :func:`run_study` builds as
    ``cell_population(config, pop.p, c)``, and scored in its
    :meth:`PopulationSpec.frame`.  To score another target on the same
    population and sample streams, pass ``dataclasses.replace(pop,
    mu_0=target)``, which shares the eigenpairs."""
    p = pop.p
    n = cell_sample_size(p, c)
    n_reps = config.n_reps
    estimators = config.estimators
    losses = {e: np.full(n_reps, np.nan) for e in estimators}
    recorded = {e: np.full((n_reps, 2), np.nan) for e in _INTENSITY_KINDS if e in estimators}

    def draw(r: int) -> np.ndarray:
        return mix(config.law.draw(replication_rng(config.seed, p, c, r), (p, n)))

    with fewer_blas_threads(), ThreadPoolExecutor(max_workers=1) as helper:
        # built on one BLAS thread fewer, as the population is
        frame, mix = pop.frame(n)
        pending = deque(helper.submit(draw, r) for r in range(min(2, n_reps)))
        for r in range(n_reps):
            # a common shift leaves the reflected sample unchanged: shift y_bar
            # alone.  Replication r - 1's statistics are freed only once these
            # are built: freed first, they leave the heap top free, which glibc
            # returns to the OS and faults back in every replication
            stats = sample_stats(pending.popleft().result())
            stats = replace(stats, y_bar=stats.y_bar + frame.mu_n)
            # with r + 1 already queued, the helper never waits for this
            # statistics build to get its next draw.  Queued before the build,
            # r + 2's innovations would only add peak memory
            if r + 2 < n_reps:
                pending.append(helper.submit(draw, r + 2))
            estimates = {}
            for est in estimators:
                try:
                    estimates[est], coefficients = evaluate(est, stats, frame.mu_0, frame)
                except ShrinkmeanError:
                    continue
                if est in recorded:
                    recorded[est][r] = coefficients[:2]
            if estimates:
                scored = quadratic_loss(np.column_stack(list(estimates.values())), frame)
                for est, loss in zip(estimates, scored):
                    losses[est][r] = loss

    failures = {est: int(np.isnan(losses[est]).sum()) for est in estimators}
    return CellResult(
        p=p,
        c=c,
        n=n,
        losses=losses,
        failures=failures,
        weights=recorded,
    )


def run_study(config: McConfig) -> McReport:
    """Run the full (p, c) grid of a study configuration.

    Estimator errors inside a replication are recorded as failures for
    that estimator (loss left NaN), never aborts.
    """
    cells = [run_cell(config, cell_population(config, p, c), c)
             for p in config.p_grid for c in config.c_grid]
    return McReport(config=config, cells=cells)


def write_losses_csv(report: McReport, path) -> None:
    rows = []
    for cell in report.cells:
        for est in report.config.estimators:
            rows.append((cell.p, cell.c, est, cell.mean_loss(est), cell.loss_se(est)))
    write_rows(path, ["p", "c", "estimator", "mean_loss", "se"], rows)


def write_intensities_csv(report: McReport, path) -> None:
    rows = []
    for cell in report.cells:
        for estimator, kind in _INTENSITY_KINDS.items():
            for r, (alpha, beta) in enumerate(cell.weights.get(estimator, ())):
                rows.append((cell.p, cell.c, kind, r, alpha, beta))
    write_rows(path, ["p", "c", "kind", "replication", "alpha", "beta"], rows)


def write_qq_csv(pairs: np.ndarray, quantity: str, p: int, c: float, path) -> None:
    rows = [(quantity, p, c, float(t), float(e)) for t, e in pairs]
    write_rows(path, ["quantity", "p", "c", "theoretical", "empirical"], rows)


def write_table1_csv(report: McReport, path) -> None:
    """Per-cell frequencies of a negative alpha weight, oracle and bona fide:
    ``report`` must record the weights of both ``olse-oracle`` and ``olse``."""
    rows = [(cell.p, cell.c, cell.negative_frequency("olse-oracle"),
             cell.negative_frequency("olse")) for cell in report.cells]
    write_rows(path, ["p", "c", "oracle_negative_freq", "bona_fide_negative_freq"], rows)
