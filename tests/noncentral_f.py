"""Exact noncentral-F oracle of the residual quadratic-form statistic.

Under normal sampling with p < n, the residual form of the sample mean
orthogonal to the target in the sample precision metric, scaled by
n (n-p+1) / ((n-1) (p-1)), follows a noncentral F law.  The tests check the
shared factorization of :class:`shrinkmean.model.SampleStats` against these
closed-form moments, the signs and the mean of the alpha weights, and the
risks of the James-Stein and oracle estimators against the exact laws
below; nothing in the package estimates with them.
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


def inverse_chi2_mean(d: int, delta: float) -> float:
    """E[1 / X] for X ~ chi2'(d, delta), d >= 3.

    X is a Poisson(delta / 2) mixture of central chi2(d+2j) laws, each with
    E[1 / chi2(d+2j)] = 1 / (d-2+2j), so E[1 / X] = sum_j Pois(j; delta / 2)
    / (d-2+2j).  Summed until the weights, past their mode, fall below
    rounding; no scipy is needed.
    """
    if d < 3:
        raise ValueError(f"requires d >= 3, got d={d}")
    if delta < 0:
        raise ValueError("noncentrality must be nonnegative")
    half = delta / 2.0
    total, j = 0.0, 0
    while True:
        weight = (math.exp(j * math.log(half) - half - math.lgamma(j + 1.0)) if half > 0
                  else float(j == 0))
        total += weight / (d - 2.0 + 2.0 * j)
        if j >= half and weight < 1e-17 * total:
            break
        j += 1
    return total


def bona_fide_alpha_mean(p: int, n: int, residual_form: float) -> float:
    """E[alpha_hat] under normal sampling with 4 <= p < n.

    alpha_hat = 1 - kappa / r_hat, kappa = p / (n - p), and by
    :func:`residual_stat`'s law r_hat = X / V, with X ~ chi2'(p-1, n R) and
    V ~ chi2(n-p+1) independent.  E[V] = n-p+1, so E[alpha_hat] = 1 - kappa
    (n-p+1) E[1 / X], by :func:`inverse_chi2_mean`.
    """
    if not n > p >= 4:
        raise ValueError(f"requires n > p >= 4, got p={p} n={n}")
    if residual_form < 0:
        raise ValueError("residual_form must be nonnegative")
    return 1.0 - p / (n - p) * (n - p + 1.0) * inverse_chi2_mean(p - 1, n * residual_form)


def james_stein_risk(a: float, p: int, n: int, delta: float) -> float:
    """Exact risk of (1 - a / (X'W^{-1}X)) X under normal sampling, p >= 3, n > p.

    X = sqrt(n) y_bar ~ N(sqrt(n) mu_n, sigma) and W = n S ~ W_p(sigma, m),
    m = n - 1, independent; the loss is the sigma^{-1} quadratic loss of X,
    n times that of the mean estimate, and delta = n mu_n' sigma^{-1} mu_n.
    X'W^{-1}X = X'sigma^{-1}X / V with V ~ chi2(m-p+1) independent of X, so
    given V this is the known-covariance estimator with constant aV, whose
    risk Stein's lemma gives.  Averaging over E[V] = m-p+1 and E[V^2] =
    (m-p+1)(m-p+3):

    R(a) = p - [2a (m-p+1)(p-2) - a^2 (m-p+1)(m-p+3)] E[1 / chi2'(p, delta)],

    a quadratic in a, least at a* = (p-2)/(m-p+3), with R(0) = p.
    """
    if not n > p >= 3:
        raise ValueError(f"requires n > p >= 3, got p={p} n={n}")
    dof = n - p  # m - p + 1
    gain = 2.0 * a * dof * (p - 2.0) - a * a * dof * (dof + 2.0)
    return p - gain * inverse_chi2_mean(p, delta)


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


def oracle_risk(p: int, n: int, residual_form: float, nodes: int = 40) -> float:
    """E[loss] of the oracle estimator under normal sampling, p >= 3, at any p / n.

    Whitened, with e1 along mu_0 and e2 along the part of mu_n off mu_0, the
    oracle projects mu_n onto span(y_bar, mu_0), so its loss is R less the
    part of R along y_bar off mu_0:

    loss = R r^2 / ((sqrt(R) + g / sqrt(n))^2 + r^2),

    with g ~ N(0, 1) the e2 coordinate of sqrt(n) (y_bar - mu_n) and
    n r^2 ~ chi2(p-2) the squared length of the rest of y_bar off e1 and e2,
    independent.  No S enters, so this holds on both sides of p = n.  The
    mean is a tensor Gauss rule: Hermite in g, and generalized Laguerre in
    t = n r^2 / 2, whose weight t^{(p-4)/2} e^{-t} is the chi2(p-2) density's
    up to its constant.  The Laguerre rule comes from the eigenpairs of its
    three-term recurrence's Jacobi matrix (Golub-Welsch), so no scipy is needed.
    With 40 nodes it is good to about 1e-7 relative at p = 10 and 1e-12 at
    p = 20; below that, r^2 near 0 narrows the integrand in g to a spike and
    the rule converges slowly.
    """
    if p < 3 or n < 1:
        raise ValueError(f"requires p >= 3 and n >= 1, got p={p} n={n}")
    if residual_form < 0:
        raise ValueError("residual_form must be nonnegative")
    g, g_weights = np.polynomial.hermite_e.hermegauss(nodes)
    g_weights = g_weights / g_weights.sum()
    shape = (p - 2) / 2.0 - 1.0
    j = np.arange(1, nodes)
    off = np.sqrt(j * (j + shape))
    jacobi = np.diag(2.0 * np.arange(nodes) + shape + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    t, vectors = np.linalg.eigh(jacobi)
    t_weights = vectors[0] ** 2
    r2 = 2.0 * t / n
    along = (np.sqrt(residual_form) + g[:, None] / np.sqrt(n)) ** 2
    loss = residual_form * r2 / (along + r2)
    return float(g_weights @ loss @ t_weights)
