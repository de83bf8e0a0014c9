"""Asymptotic variances of the shrinkage weights.

Plain functions of the population: :func:`oracle_weight_variances` returns
the limiting variances of the two oracle shrinkage weights,
:func:`bona_fide_covariance` the 2x2 limiting covariance of the bona fide
weight pair (valid for p/n < 1), and :func:`standardize` the map the
normality diagnostics apply.  The population-side functions take a
:class:`PopulationSpec` and read its precision metric sigma^{-1} through
:meth:`PopulationSpec.precision_gram`, never factorizing sigma.  All
functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DegenerateTargetError,
    UnsupportedConcentrationError,
)
from .model import PopulationSpec

__all__ = [
    "oracle_weight_variances",
    "bona_fide_covariance",
    "standardize",
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
