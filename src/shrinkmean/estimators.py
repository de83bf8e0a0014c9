"""Mean-vector estimators.

The shrinkage family estimates the mean as ``alpha * y_bar + beta * mu_0``:

* oracle weights   -- loss-minimizing for the observed sample, computable
  only with the true covariance and true mean;
* limit weights    -- their nonrandom large-dimension equivalents;
* bona fide weights -- plug-in estimates using only the observed sample,
  with an inverse sample covariance for p < n and its Moore-Penrose
  pseudoinverse for p > n.

Four benchmarks are included: the (modified) James-Stein estimator for
p < n, its high-dimensional and positive-part variants for p > n, and the
unit-target shrinkage estimator of Wang et al.  The positive-part variant
has two registry entries, ``js-positive-part`` (the published (I + P) y_bar
display) and ``js-positive-part-conventional`` (the (I - P) y_bar form), so
one run can score both.

Every sample-based estimator reads the one covariance factorization that
its :class:`SampleStats` value carries (the Cholesky factor of S = BB' for
p < n, or of the innovations' S_z for a simulated sample, that of the
reflected (n-1) x (n-1) Gram G = B'B for p > n, through which S^+ is
read), so a sample is factorized once however many estimators
run on it.  No function here solves against a covariance: the factorization
whitens y_bar once, and :meth:`SampleStats.mean_gram` or ``whiten`` whiten
one new vector per call (p > n: ``linalg.spd_solve`` against G).

The oracle and limit weights take a :class:`PopulationSpec` and are 2x2
formulas in the Gram of the mean vectors in its precision metric sigma^{-1},
read through :meth:`PopulationSpec.precision_gram`: sigma is never
factorized here, only whitened by the population's eigenpairs.

:data:`SAMPLE_ESTIMATORS` is the one table of estimator names that the
Monte Carlo harness and the backtester both dispatch through;
:data:`READS_TARGET` names the entries whose estimate depends on the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DegenerateHessianError,
    DegenerateTargetError,
    DimensionMismatchError,
    EqualDimensionsError,
    InvalidDimensionsError,
)
from .linalg import spd_factor  # noqa: F401  perfbench's tracer test reads it here
from .model import PopulationSpec, SampleStats

__all__ = [
    "ShrinkageWeights",
    "SAMPLE_ESTIMATORS",
    "READS_TARGET",
    "ESTIMATOR_KINDS",
    "oracle_intensities",
    "limit_intensities",
    "bona_fide_intensities",
    "olse",
    "james_stein",
    "js_high_dim",
    "js_positive_part",
    "wang_estimator",
]

_REL_FLOOR = 1e-12  # degenerate-denominator threshold, relative to operand scale


@dataclass(frozen=True)
class ShrinkageWeights:
    """A (sample-mean weight, target weight) pair with its provenance.

    ``kind`` is one of ``oracle``, ``limit``, ``bona-fide``.  Limit weights
    have alpha in (0, 1) whenever the two mean directions are not parallel;
    oracle and bona fide weights may be negative in small samples.
    """

    alpha: float
    beta: float
    kind: str


def oracle_intensities(y_bar: np.ndarray, pop: PopulationSpec) -> ShrinkageWeights:
    """Loss-minimizing weights for one sample, using the true covariance: the
    solution of the 2x2 first-order conditions of the quadratic loss in
    (alpha, beta), from the precision-metric Gram of (y_bar, mu_0, mu_n)."""
    gram = pop.precision_gram(np.asarray(y_bar, dtype=float), pop.mu_0, pop.mu_n)
    h_yy, h_y0, h_yn = gram[0, 0], gram[0, 1], gram[0, 2]
    h_00, h_0n = gram[1, 1], gram[1, 2]

    det = h_yy * h_00 - h_y0 * h_y0
    if abs(det) <= _REL_FLOOR * abs(h_yy * h_00):
        raise DegenerateHessianError(
            "sample mean and target are collinear in the precision metric"
        )
    alpha = (h_yn * h_00 - h_0n * h_y0) / det
    beta = (h_yy * h_0n - h_y0 * h_yn) / det
    return ShrinkageWeights(alpha=float(alpha), beta=float(beta), kind="oracle")


def limit_intensities(pop: PopulationSpec, c: float) -> ShrinkageWeights:
    """Nonrandom limits of the oracle weights under p/n -> c, from the
    precision-metric Gram of (mu_0, mu_n).

    |mu_0| |sigma^{-1} mu_0| bounds the target form mu_0' sigma^{-1} mu_0 from
    above (Cauchy-Schwarz), and a target form negligible against it is
    degenerate; sigma^{-1} mu_0 = W'(W mu_0) with W the population whitening.
    """
    if c <= 0:
        raise ValueError(f"concentration c must be positive, got {c}")
    whitening = pop.whitening()
    white = whitening @ np.column_stack([pop.mu_0, pop.mu_n])
    gram = white.T @ white
    target_form, cross_form, mean_form = gram[0, 0], gram[0, 1], gram[1, 1]
    target_scale = float(np.linalg.norm(pop.mu_0)) * float(
        np.linalg.norm(whitening.T @ white[:, 0])
    )
    if target_form <= _REL_FLOOR * max(target_scale, 1e-300):
        raise DegenerateTargetError("target vector has zero precision-metric energy")

    alpha = (mean_form * target_form - cross_form**2) / (
        (c + mean_form) * target_form - cross_form**2
    )
    beta = (1.0 - alpha) * cross_form / target_form
    return ShrinkageWeights(alpha=float(alpha), beta=float(beta), kind="limit")


def _negligible(quad: float, v: np.ndarray, stats: SampleStats) -> bool:
    """Whether the energy ``quad = v'Qv`` is zero relative to the least
    energy of such a v inside the range of S (rescaling the data moves both)."""
    return quad <= _REL_FLOOR * float(v @ v) / stats.factorization.scale


def _sample_quadratic_forms(
    stats: SampleStats, mu_0: np.ndarray
) -> tuple[float, float, float, float]:
    """(ybar'Qybar, ybar'Qmu0, mu0'Qmu0, correction) with Q the inverse or
    pseudoinverse of the sample covariance, depending on p vs n."""
    p, n = stats.p, stats.n
    if p == n:
        raise EqualDimensionsError("bona fide weights are undefined at p == n")
    if mu_0.shape != (p,):
        raise DimensionMismatchError("target vector length must equal p")
    if p > n and n < 3:
        raise InvalidDimensionsError(f"the 2x2 precision Gram needs rank(S) = n - 1"
                                     f" >= 2, got p={p} n={n}")
    gram = stats.mean_gram(mu_0)
    correction = p / (n - p) if p < n else 1.0 / (p / n - 1.0)
    return float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1]), correction


def bona_fide_intensities(stats: SampleStats, mu_0: np.ndarray) -> ShrinkageWeights:
    """Plug-in shrinkage weights from observable data only.

    For p < n the inverse sample covariance is used and the sample-mean
    quadratic form is debiased by p/(n-p); for p > n the pseudoinverse S^+
    (see :class:`SampleStats`) replaces it and the term is 1/(p/n - 1).
    The weights are not clipped: alpha may be negative in small samples.

    For p < n the raw weights are sqrt(n)-consistent for the limits of
    :func:`limit_intensities`: sqrt(n) (alpha - alpha_limit, beta -
    beta_limit) is asymptotically centered normal with the 2x2 covariance
    of :func:`shrinkmean.asymptotics.bona_fide_covariance`.  Alpha also
    carries a downward bias of order 1/n, about -0.01 at p=250, n=500:
    alpha = 1 - (p/(n-p)) / r with r the sample residual form of y_bar
    orthogonal to mu_0, and 1/r is convex (Jensen's inequality).
    """
    mu_0 = np.asarray(mu_0, dtype=float)
    a_yy, a_y0, a_00, correction = _sample_quadratic_forms(stats, mu_0)
    det = a_yy * a_00 - a_y0 * a_y0
    if abs(det) <= _REL_FLOOR * abs(a_yy * a_00) or _negligible(a_00, mu_0, stats):
        raise DegenerateDenominatorError(
            "sample mean and target are collinear in the sample precision metric"
        )
    alpha = ((a_yy - correction) * a_00 - a_y0**2) / det
    beta = (1.0 - alpha) * a_y0 / a_00
    return ShrinkageWeights(alpha=float(alpha), beta=float(beta), kind="bona-fide")


def olse(stats: SampleStats, mu_0: np.ndarray) -> np.ndarray:
    """Optimal linear shrinkage estimate alpha * y_bar + beta * mu_0."""
    w = bona_fide_intensities(stats, mu_0)
    return w.alpha * stats.y_bar + w.beta * np.asarray(mu_0, dtype=float)


def _mean_energy(stats: SampleStats) -> float:
    """y_bar' Q y_bar, rejected when negligible (y_bar outside the range)."""
    white = stats.factorization.white_mean
    quad = float(white @ white)
    if _negligible(quad, stats.y_bar, stats):
        raise DegenerateDenominatorError("sample mean lies outside the scatter range")
    return quad


def james_stein(stats: SampleStats) -> np.ndarray:
    """James-Stein estimator with estimated covariance, for n >= p + 4.

    Shrinks the sample mean toward zero by the factor
    ``1 - ((p-2)/(n-p-3)) / (y_bar' scatter^{-1} y_bar)``, with the
    scatter matrix ``n * s``.
    """
    p, n = stats.p, stats.n
    if p < 3 or n < p + 4:
        raise InvalidDimensionsError(f"requires n >= p + 4 and p >= 3, got p={p} n={n}")
    quad = _mean_energy(stats) / n
    shrink = 1.0 - ((p - 2.0) / (n - p - 3.0)) / quad
    return shrink * stats.y_bar


def js_high_dim(stats: SampleStats) -> np.ndarray:
    """High-dimensional James-Stein estimator for p > n >= 3.

    Shrinks only the component of the sample mean inside the range of the
    scatter matrix ``n * s``, with coefficient a = 2(n-2)/(p-n+3) at its
    upper bound.
    """
    p, n = stats.p, stats.n
    if not (p > n >= 3):
        raise InvalidDimensionsError(f"requires p > n >= 3, got p={p} n={n}")
    quad = _mean_energy(stats) / n
    a = 2.0 * (n - 2.0) / (p - n + 3.0)
    return stats.y_bar - (a / quad) * stats.projected_mean()


def js_positive_part(stats: SampleStats, as_printed: bool = True) -> np.ndarray:
    """Positive-part variant of the high-dimensional James-Stein estimator.

    The published display adds the in-range component to the sample mean,
    ``(I + P) y_bar``, with P the range projector; the conventional
    positive-part decomposition keeps the out-of-range component only,
    ``(I - P) y_bar``.  ``as_printed`` selects between them: the registry
    entry ``js-positive-part`` is the published form (the default) and
    ``js-positive-part-conventional`` the other.  In both cases the clamped
    term ``max(0, 1 - ((n-2)/(p-n+3)) / (y_bar' scatter^+ y_bar)) * P y_bar``
    is added.
    """
    p, n = stats.p, stats.n
    if not (p > n >= 3):
        raise InvalidDimensionsError(f"requires p > n >= 3, got p={p} n={n}")
    quad = _mean_energy(stats) / n
    projected = stats.projected_mean()
    clamped = max(0.0, 1.0 - ((n - 2.0) / (p - n + 3.0)) / quad)
    base = stats.y_bar + projected if as_printed else stats.y_bar - projected
    return base + clamped * projected


def wang_estimator(stats: SampleStats) -> np.ndarray:
    """Unit-target shrinkage estimator of Wang et al. for p > n.

    Combines the sample mean and the all-ones direction with coefficients
    z1..z4, pair sums of y_i' W y_j and 1'W y_i over the observations, with
    W = scatter^+ = S^+ / n.  They close over the Gram (a_yy, a_y1, a_11) of
    (y_bar, 1) in Q = S^+, so only 1 is whitened here (y_bar already is).
    With H, B, G as in :class:`SampleStats`, H_1 = H[:, 1:], u = G^{-1}B'y_bar/sqrt(n):

    1. y = y_bar 1' + sqrt(n) B H_1', with H_1'1 = 0, H_1'H_1 = I, G^{-1}B'B = I;
    2. so the whitened observations are g = u 1' + H_1' (g_i'g_j = y_i'W y_j),
       with sum_k g_k = n u and sum_k |g_k|^2 = a_yy + n - 1;
    3. hence z1 = (a_yy - 1)/p, z2 = 1/p, z3 = a_y1/a_11 and
       z4 = (a_y1^2/a_11 - 1/(n-1))/p.

    The tests hold the literal double sums.
    """
    p, n = stats.p, stats.n
    if not (p > n >= 2):
        raise InvalidDimensionsError(f"requires p > n >= 2, got p={p} n={n}")

    ones = np.ones(p)
    gram = stats.mean_gram(ones)
    a_yy, a_y1, a_11 = float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])
    if _negligible(a_11, ones, stats):
        raise DegenerateDenominatorError("ones vector lies outside the scatter range")

    z1 = (a_yy - 1.0) / p
    z2 = 1.0 / p
    z3 = a_y1 / a_11
    z4 = (a_y1**2 / a_11 - 1.0 / (n - 1.0)) / p

    denom = z1 + z2 * z4
    scale = abs(z1) + abs(z2 * z4)
    if abs(denom) <= _REL_FLOOR * max(scale, 1e-300):
        raise DegenerateDenominatorError("shrinkage coefficient denominator vanishes")
    return ((z1 - z4) / denom) * stats.y_bar + (z2 * z3 / denom) * ones


#: The sample-based estimators by name, each a function of ``(stats, mu_0)``;
#: the target-free ones ignore mu_0.  The lambdas look the estimators up when
#: called, so rebinding a module name (as a tracer does) reaches every caller.
SAMPLE_ESTIMATORS = {
    "sample-mean": lambda stats, mu_0: stats.y_bar,
    "olse": lambda stats, mu_0: olse(stats, mu_0),
    "js": lambda stats, mu_0: james_stein(stats),
    "js-high-dim": lambda stats, mu_0: js_high_dim(stats),
    "js-positive-part": lambda stats, mu_0: js_positive_part(stats, as_printed=True),
    "js-positive-part-conventional":
        lambda stats, mu_0: js_positive_part(stats, as_printed=False),
    "wang": lambda stats, mu_0: wang_estimator(stats),
}

#: The entries of :data:`SAMPLE_ESTIMATORS` that read mu_0; every other
#: entry gives one estimate whatever the target.
READS_TARGET = frozenset({"olse"})

#: Estimators understood by the Monte Carlo harness; the two population-side
#: ones need the true covariance, so the backtester takes only the others.
ESTIMATOR_KINDS = (*SAMPLE_ESTIMATORS, "olse-asymptotic", "olse-oracle")
