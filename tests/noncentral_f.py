"""Exact noncentral-F oracle of the residual quadratic-form statistic.

Under normal sampling with p < n, the residual form of the sample mean
orthogonal to the target in the sample precision metric, scaled by
n (n-p+1) / ((n-1) (p-1)), follows a noncentral F law.  The tests check the
shared factorization of :class:`shrinkmean.model.SampleStats` against these
closed-form moments, and the signs and the mean of the alpha weights
against the exact laws below; nothing in the package estimates with them.
"""

import math
from statistics import NormalDist

import numpy as np
from scipy.stats import ncf

from shrinkmean.errors import InvalidDimensionsError, ShrinkmeanError
from shrinkmean.model import SampleStats


class MomentsDoNotExistError(ShrinkmeanError):
    """Requested distribution moments are undefined for these degrees of freedom."""


def residual_stat_moments(p: int, n: int, residual_form: float) -> tuple[float, float]:
    """Exact mean and variance of the residual statistic under normal sampling.

    ``residual_form`` is the population residual quadratic form.  The
    scaled statistic ``scale * s_hat``, with
    scale = n (n-p+1) / ((n-1) (p-1)), follows a noncentral F distribution
    with p-1 and n-p+1 degrees of freedom and noncentrality
    n * residual_form.  Uses the closed-form noncentral-F moments and
    divides the scale back out, so the returned values are moments of the
    raw statistic.
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


def population_residual_form(gram: np.ndarray) -> float:
    """R = G00 - G01^2 / G11 of the sigma^{-1} Gram G of (mu_n, mu_0): the
    squared length of mu_n off mu_0 in the precision metric."""
    return float(gram[0, 0] - gram[0, 1] ** 2 / gram[1, 1])


def oracle_negative_probability(n: int, residual_form: float) -> float:
    """P(alpha_oracle < 0) under normal sampling, at any p / n.

    The oracle alpha is <y_perp, mu_perp> / |y_perp|^2 in sigma^{-1}, with
    both vectors taken off mu_0.  Its sign is that of <y_perp, mu_perp>, a
    normal variable of mean R and variance R / n, so the probability is
    Phi(-sqrt(n R)).
    """
    return NormalDist().cdf(-math.sqrt(n * residual_form))


def bona_fide_negative_probability(p: int, n: int, residual_form: float) -> float:
    """P(alpha_hat < 0) under normal sampling with p < n.

    The bona fide alpha is 1 - kappa / r_hat, kappa = p / (n - p), with r_hat
    the residual form of the sample mean off mu_0 in the divisor-n S^{-1}; so
    it is negative exactly when r_hat < kappa.  By :func:`residual_stat`'s
    law, r_hat (n-p+1) / (p-1) follows F'(p-1, n-p+1, n R), and the
    probability is that CDF at kappa (n-p+1) / (p-1).
    """
    if not n > p >= 2:
        raise ValueError(f"requires n > p >= 2, got p={p} n={n}")
    d1, d2 = p - 1.0, n - p + 1.0
    return float(ncf.cdf(p / (n - p) * d2 / d1, d1, d2, n * residual_form))


def bona_fide_alpha_mean(p: int, n: int, residual_form: float) -> float:
    """E[alpha_hat] under normal sampling with 4 <= p < n.

    alpha_hat = 1 - kappa / r_hat, kappa = p / (n - p), and by
    :func:`residual_stat`'s law r_hat = X / V, with X ~ chi2'(p-1, n R) and
    V ~ chi2(n-p+1) independent.  E[V] = n-p+1, and X is a Poisson(n R / 2)
    mixture of central chi2(p-1+2j) laws, each with E[1 / chi2(d)] =
    1 / (d - 2), so E[alpha_hat] = 1 - kappa (n-p+1) sum_j Pois(j; n R / 2)
    / (p-3+2j); the j = 0 term needs p >= 4.  Summed until the weights, past
    their mode, fall below rounding; no scipy is needed.
    """
    if not n > p >= 4:
        raise ValueError(f"requires n > p >= 4, got p={p} n={n}")
    if residual_form < 0:
        raise ValueError("residual_form must be nonnegative")
    half = n * residual_form / 2.0
    total, j = 0.0, 0
    while True:
        weight = (math.exp(j * math.log(half) - half - math.lgamma(j + 1.0)) if half > 0
                  else float(j == 0))
        total += weight / (p - 3.0 + 2.0 * j)
        if j >= half and weight < 1e-17 * total:
            break
        j += 1
    return 1.0 - p / (n - p) * (n - p + 1.0) * total


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
