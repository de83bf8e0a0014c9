"""Asymptotic variances and finite-sample distributional oracles.

Closed-form limiting variances for the oracle shrinkage weights, the joint
limiting covariance of the bona fide weights (valid for p/n < 1), the
standardization helper used by the normality diagnostics, and the exact
noncentral-F moments of the residual quadratic-form statistic under normal
sampling.  All functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DegenerateTargetError,
    InvalidDimensionsError,
    MomentsDoNotExistError,
    UnsupportedConcentrationError,
)
from .estimators import population_gram
from .linalg import SpdFactor
from .model import SampleStats

__all__ = [
    "AsymptoticMoments",
    "ResidualStatParams",
    "precision_forms",
    "oracle_weight_variances",
    "bona_fide_covariance",
    "standardize",
    "residual_stat_moments",
    "residual_stat",
    "projection_stat",
]


@dataclass
class AsymptoticMoments:
    """Scaled precision-metric quadratic forms and derived limit moments.

    ``mean_form``, ``cross_form`` and ``target_form`` are the quadratic
    forms of the true and target means in the inverse-covariance metric,
    scaled by p^{-gamma}; ``form_det`` is their Gram determinant (always
    >= 0 by Cauchy-Schwarz) and ``scaled_concentration`` is p^{-gamma} c.

    The optional fields hold the limiting variances of the oracle weights
    (``sigma2_alpha``, ``sigma2_beta``), and for p/n < 1 the residual form
    ``residual_form`` of the true mean orthogonal to the target direction,
    the projection coefficient ``projection_coef`` of the true mean on the
    target, its variance ``sigma2_residual``, and the joint 2x2 covariance
    ``weights_cov`` of the bona fide weight pair.
    """

    target_form: float
    cross_form: float
    mean_form: float
    form_det: float
    scaled_concentration: float
    sigma2_alpha: float | None = None
    sigma2_beta: float | None = None
    residual_form: float | None = None
    projection_coef: float | None = None
    sigma2_residual: float | None = None
    weights_cov: np.ndarray | None = None


def precision_forms(
    sigma: np.ndarray,
    mu_n: np.ndarray,
    mu_0: np.ndarray,
    gamma: float,
    c: float,
    sigma_factor: SpdFactor | None = None,
) -> AsymptoticMoments:
    """Scaled quadratic forms, their Gram determinant and scaled concentration."""
    gram, _ = population_gram(sigma, [mu_n, mu_0], sigma_factor)
    mean_raw, cross_raw, target_raw = float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])
    scale = float(len(np.asarray(mu_n))) ** (-gamma)
    mean_form = scale * mean_raw
    cross_form = scale * cross_raw
    target_form = scale * target_raw
    det = target_form * mean_form - cross_form**2
    return AsymptoticMoments(
        target_form=target_form,
        cross_form=cross_form,
        mean_form=mean_form,
        form_det=det,
        scaled_concentration=scale * c,
    )


def oracle_weight_variances(moments: AsymptoticMoments) -> tuple[float, float]:
    """Limiting variances of the two oracle shrinkage weights.

    The standardized weights converge to standard normals at rate
    sqrt(p^gamma * n); these are the variances used in that
    standardization.
    """
    q00 = moments.target_form
    q0n = moments.cross_form
    qnn = moments.mean_form
    det = moments.form_det
    ct = moments.scaled_concentration
    denom = (ct * q00 + det) ** 4
    if ct * q00 + det <= 0:
        raise DegenerateDenominatorError("scaled concentration and Gram determinant "
                                         "must have positive sum")
    # each weight fluctuation is a Gaussian linear part plus an independent
    # normalized chi-square part; the latter has variance 2, hence the
    # factor 2 on the det^2 terms
    sigma2_alpha = (
        (ct * q00 - det) ** 2 * q00 * det + 2.0 * ct * det**2 * q00**2
    ) / denom

    a_coef = (det - ct * q00) * q0n
    b_coef = ct * q0n**2 - ct * det - det * qnn
    sigma2_beta = (
        a_coef**2 * qnn
        + b_coef**2 * q00
        + 2.0 * a_coef * b_coef * q0n
        + 2.0 * ct * det**2 * q0n**2
    ) / denom
    moments.sigma2_alpha = float(sigma2_alpha)
    moments.sigma2_beta = float(sigma2_beta)
    return float(sigma2_alpha), float(sigma2_beta)


def bona_fide_covariance(
    sigma: np.ndarray,
    mu_n: np.ndarray,
    mu_0: np.ndarray,
    c: float,
    sigma_factor: SpdFactor | None = None,
) -> AsymptoticMoments:
    """Joint limiting covariance of the bona fide weight pair, for c < 1.

    The pair sqrt(n) * (alpha_hat - alpha_limit, beta_hat - beta_limit) is
    asymptotically centered normal with this 2x2 covariance.  The variance
    of the residual form carries a 1/(1-c) pole, so concentrations c >= 1
    are rejected.
    """
    if not 0.0 < c < 1.0:
        raise UnsupportedConcentrationError(
            f"joint covariance requires c in (0, 1), got {c}"
        )
    gram, _ = population_gram(sigma, [mu_n, mu_0], sigma_factor)
    mean_raw, cross_raw, target_raw = float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])
    if target_raw <= 0:
        raise DegenerateTargetError("target vector has zero precision-metric energy")

    resid = mean_raw - cross_raw**2 / target_raw
    proj = cross_raw / target_raw
    sigma2_resid = 2.0 * (c + 2.0 * resid) + 2.0 / (1.0 - c) * (c + resid) ** 2

    top = c**2 * sigma2_resid / (c + resid) ** 4
    extra = (c**2 / (c + resid) ** 2) * (1.0 + (resid + c) / (1.0 - c)) / target_raw
    cov = np.array(
        [
            [top, top * proj],
            [top * proj, top * proj**2 + extra],
        ]
    )
    return AsymptoticMoments(
        target_form=target_raw,
        cross_form=cross_raw,
        mean_form=mean_raw,
        form_det=target_raw * mean_raw - cross_raw**2,
        scaled_concentration=c,
        residual_form=float(resid),
        projection_coef=float(proj),
        sigma2_residual=float(sigma2_resid),
        weights_cov=cov,
    )


def standardize(
    values: np.ndarray, center: float, variance: float, rate: float
) -> np.ndarray:
    """Map values to rate * (value - center) / sqrt(variance)."""
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    values = np.asarray(values, dtype=float)
    return rate * (values - center) / np.sqrt(variance)


@dataclass(frozen=True)
class ResidualStatParams:
    """Dimensions and noncentrality ingredient of the residual statistic.

    ``residual_form`` is the population residual quadratic form; the
    scaled statistic ``scale * s_hat`` follows a noncentral F distribution
    with p-1 and n-p+1 degrees of freedom and noncentrality
    n * residual_form.
    """

    p: int
    n: int
    residual_form: float

    def __post_init__(self) -> None:
        if not self.n > self.p >= 2:
            raise ValueError(f"requires n > p >= 2, got p={self.p} n={self.n}")
        if self.residual_form < 0:
            raise ValueError("residual_form must be nonnegative")

    @property
    def scale(self) -> float:
        return self.n * (self.n - self.p + 1.0) / ((self.n - 1.0) * (self.p - 1.0))


def residual_stat_moments(params: ResidualStatParams) -> tuple[float, float]:
    """Exact mean and variance of the residual statistic under normal sampling.

    Uses the closed-form noncentral-F moments and divides the scale back
    out, so the returned values are moments of the raw statistic.  Used as
    a Monte Carlo oracle only, never in estimation.
    """
    d1 = params.p - 1.0
    d2 = params.n - params.p + 1.0
    if d2 <= 4.0:
        raise MomentsDoNotExistError(
            f"variance needs n - p + 1 > 4, got {d2:.0f}"
        )
    lam = params.n * params.residual_form
    mean_f = d2 * (d1 + lam) / (d1 * (d2 - 2.0))
    var_f = (
        2.0
        * (d2 / d1) ** 2
        * ((d1 + lam) ** 2 + (d1 + 2.0 * lam) * (d2 - 2.0))
        / ((d2 - 2.0) ** 2 * (d2 - 4.0))
    )
    return mean_f / params.scale, var_f / params.scale**2


def _sample_target_gram(stats: SampleStats, mu_0: np.ndarray) -> np.ndarray:
    if stats.p >= stats.n:
        raise InvalidDimensionsError(f"requires p < n, got p={stats.p} n={stats.n}")
    return stats.precision_gram(stats.y_bar, np.asarray(mu_0, dtype=float))


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
