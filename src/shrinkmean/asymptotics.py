"""Asymptotic variances and finite-sample distributional oracles.

Plain functions of the population: :func:`oracle_weight_variances` returns
the limiting variances of the two oracle shrinkage weights,
:func:`bona_fide_covariance` the 2x2 limiting covariance of the bona fide
weight pair (valid for p/n < 1), :func:`standardize` the map the normality
diagnostics apply, and :func:`residual_stat_moments` the exact
noncentral-F mean and variance of the residual quadratic-form statistic
under normal sampling.  The population-side functions take a
:class:`PopulationSpec` and read its precision metric sigma^{-1} through
:meth:`PopulationSpec.precision_gram`, never factorizing sigma.  All
functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DegenerateTargetError,
    InvalidDimensionsError,
    MomentsDoNotExistError,
    UnsupportedConcentrationError,
)
from .model import PopulationSpec, SampleStats

__all__ = [
    "oracle_weight_variances",
    "bona_fide_covariance",
    "standardize",
    "residual_stat_moments",
    "residual_stat",
    "projection_stat",
]


def oracle_weight_variances(pop: PopulationSpec, c: float) -> tuple[float, float]:
    """Limiting variances (var_alpha, var_beta) of the two oracle shrinkage
    weights at concentration ``c``.

    The standardized weights converge to standard normals at rate
    sqrt(p^gamma * n); these are the variances used in that
    standardization.  They are functions of the precision-metric Gram of
    (mu_n, mu_0) and of the concentration, both scaled by p^{-gamma} with
    the population's gamma.
    """
    scale = float(pop.p) ** (-pop.gamma)
    gram = scale * pop.precision_gram(pop.mu_n, pop.mu_0)
    qnn, q0n, q00 = float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])
    # Gram determinant, >= 0 by Cauchy-Schwarz
    det = q00 * qnn - q0n**2
    ct = scale * c
    denom = (ct * q00 + det) ** 4
    if ct * q00 + det <= 0:
        raise DegenerateDenominatorError("scaled concentration and Gram determinant "
                                         "must have positive sum")
    # each weight fluctuation is a Gaussian linear part plus an independent
    # normalized chi-square part; the latter has variance 2, hence the
    # factor 2 on the det^2 terms
    var_alpha = (
        (ct * q00 - det) ** 2 * q00 * det + 2.0 * ct * det**2 * q00**2
    ) / denom

    a_coef = (det - ct * q00) * q0n
    b_coef = ct * q0n**2 - ct * det - det * qnn
    var_beta = (
        a_coef**2 * qnn
        + b_coef**2 * q00
        + 2.0 * a_coef * b_coef * q0n
        + 2.0 * ct * det**2 * q0n**2
    ) / denom
    return float(var_alpha), float(var_beta)


def bona_fide_covariance(pop: PopulationSpec, c: float) -> np.ndarray:
    """Joint limiting 2x2 covariance of the bona fide weight pair, for c < 1.

    The pair sqrt(n) * (alpha_hat - alpha_limit, beta_hat - beta_limit) is
    asymptotically centered normal with this covariance.  It is a function
    of the residual form of mu_n orthogonal to mu_0 and of the projection
    coefficient of mu_n on mu_0, both in the precision metric.  The
    variance of the residual form carries a 1/(1-c) pole, so
    concentrations c >= 1 are rejected.
    """
    if not 0.0 < c < 1.0:
        raise UnsupportedConcentrationError(
            f"joint covariance requires c in (0, 1), got {c}"
        )
    gram = pop.precision_gram(pop.mu_n, pop.mu_0)
    mean_raw, cross_raw, target_raw = float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])
    if target_raw <= 0:
        raise DegenerateTargetError("target vector has zero precision-metric energy")

    resid = mean_raw - cross_raw**2 / target_raw
    proj = cross_raw / target_raw
    sigma2_resid = 2.0 * (c + 2.0 * resid) + 2.0 / (1.0 - c) * (c + resid) ** 2

    top = c**2 * sigma2_resid / (c + resid) ** 4
    extra = (c**2 / (c + resid) ** 2) * (1.0 + (resid + c) / (1.0 - c)) / target_raw
    return np.array(
        [
            [top, top * proj],
            [top * proj, top * proj**2 + extra],
        ]
    )


def standardize(
    values: np.ndarray, center: float, variance: float, rate: float
) -> np.ndarray:
    """Map values to rate * (value - center) / sqrt(variance)."""
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    values = np.asarray(values, dtype=float)
    return rate * (values - center) / np.sqrt(variance)


def residual_stat_moments(p: int, n: int, residual_form: float) -> tuple[float, float]:
    """Exact mean and variance of the residual statistic under normal sampling.

    ``residual_form`` is the population residual quadratic form.  The
    scaled statistic ``scale * s_hat``, with
    scale = n (n-p+1) / ((n-1) (p-1)), follows a noncentral F distribution
    with p-1 and n-p+1 degrees of freedom and noncentrality
    n * residual_form.  Uses the closed-form noncentral-F moments and
    divides the scale back out, so the returned values are moments of the
    raw statistic.  Used as a Monte Carlo oracle only, never in estimation.
    """
    if not n > p >= 2:
        raise ValueError(f"requires n > p >= 2, got p={p} n={n}")
    if residual_form < 0:
        raise ValueError("residual_form must be nonnegative")
    d1 = p - 1.0
    d2 = n - p + 1.0
    if d2 <= 4.0:
        raise MomentsDoNotExistError(
            f"variance needs n - p + 1 > 4, got {d2:.0f}"
        )
    lam = n * residual_form
    mean_f = d2 * (d1 + lam) / (d1 * (d2 - 2.0))
    var_f = (
        2.0
        * (d2 / d1) ** 2
        * ((d1 + lam) ** 2 + (d1 + 2.0 * lam) * (d2 - 2.0))
        / ((d2 - 2.0) ** 2 * (d2 - 4.0))
    )
    scale = n * d2 / ((n - 1.0) * d1)
    return mean_f / scale, var_f / scale**2


def _sample_target_gram(stats: SampleStats, mu_0: np.ndarray) -> np.ndarray:
    if stats.p >= stats.n:
        raise InvalidDimensionsError(f"requires p < n, got p={stats.p} n={stats.n}")
    return stats.mean_gram(np.asarray(mu_0, dtype=float))


def residual_stat(stats: SampleStats, mu_0: np.ndarray) -> float:
    """Sample residual quadratic form of the mean orthogonal to the target.

    Requires p < n.  Uses the unbiased (divisor n-1) sample covariance:
    with that divisor the scaled statistic follows the noncentral F law of
    :func:`residual_stat_moments` exactly; it scales S^{-1} by (n-1)/n.
    """
    gram = _sample_target_gram(stats, mu_0)
    resid = gram[0, 0] - gram[0, 1] ** 2 / gram[1, 1]
    return float(resid * (stats.n - 1.0) / stats.n)


def projection_stat(stats: SampleStats, mu_0: np.ndarray) -> float:
    """Sample projection coefficient of the mean on the target direction.

    Requires p < n.  Invariant to the covariance divisor (the scaling
    cancels in the ratio).
    """
    gram = _sample_target_gram(stats, mu_0)
    return float(gram[0, 1] / gram[1, 1])
