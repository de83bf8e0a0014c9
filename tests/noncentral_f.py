"""Exact noncentral-F oracle of the residual quadratic-form statistic.

Under normal sampling with p < n, the residual form of the sample mean
orthogonal to the target in the sample precision metric, scaled by
n (n-p+1) / ((n-1) (p-1)), follows a noncentral F law.  The tests check the
shared factorization of :class:`shrinkmean.model.SampleStats` against these
closed-form moments; nothing in the package estimates with them.
"""

import numpy as np

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
