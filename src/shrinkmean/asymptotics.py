"""Asymptotic covariances of the shrinkage weights, and :func:`standardize`,
the map the normality diagnostics apply.  All functions are pure.

Every weight pair solves a 2x2 system A w = b (see :mod:`.estimators`), whose
limit is A = G + c e_0 e_0' and b = G e_0, with G the sigma^{-1} Gram of
(mu_n, mu_0), for example ``pop.precision_gram(pop.mu_n, pop.mu_0)``.  Every
function here reads only (G, c).  Both CLTs are centred at the solution
(alpha, beta) of that limit system, which :func:`.estimators.limit_weights`
solves and checks; it is not solved again here.  A fluctuation moves the
weights by dw = A^{-1}(db - dA w).  Writing db - dA w = V d for jointly
Gaussian fluctuations d of covariance Omega gives both covariances by one
identity: A^{-1} V Omega V' A^{-T}, each at rate sqrt(n) and for any gamma.
"""

from __future__ import annotations

import numpy as np

from .errors import ScopeError
from .estimators import limit_weights

__all__ = [
    "oracle_weight_variances",
    "bona_fide_covariance",
    "standardize",
]

_PAIRS = ((0, 0), (0, 1), (1, 1))  # the distinct entries (00, 01, 11) of a symmetric 2x2


def _delta_covariance(system: np.ndarray, mixing: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """A^{-1} V Omega V' A^{-T}, the covariance of dw = A^{-1} V d (exactly symmetric)."""
    half = np.linalg.solve(system, mixing)
    cov = half @ omega @ half.T
    return (cov + cov.T) / 2.0


def _limit_system(gram: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """G, A = G + c e_0 e_0' and the limits alpha, beta that solve A w = G e_0,
    read from :func:`limit_weights`, which rejects a c that is not positive
    and finite (NaN included) and a singular A."""
    gram = np.asarray(gram, dtype=float)
    return (gram, gram + np.diag([c, 0.0]), *limit_weights(gram, c))


def oracle_weight_variances(gram: np.ndarray, c: float) -> tuple[float, float]:
    """Limiting variances (var_alpha, var_beta) of the two oracle shrinkage
    weights at concentration ``c``, from the sigma^{-1} Gram G of (mu_n, mu_0).

    sqrt(n) (w - w_limit) / sqrt(var) tends to a standard normal for each
    weight.  With y_bar = mu_n + e, the fluctuations are g = mu_n' sigma^{-1} e,
    h = mu_0' sigma^{-1} e and chi = e' sigma^{-1} e - c: dA = [[2g + chi, h],
    [h, 0]] and db = (g, 0), so V = [[1 - 2 alpha, -beta, -alpha], [0, -alpha,
    0]] and Omega = diag(G, 2c) under the normal law.  The paper scales G and
    c by p^{-gamma} and the rate by p^{gamma/2}; every entry of A and Omega
    then carries p^{-gamma}, so its variances are these times p^gamma and
    standardize every weight to the same value.
    """
    gram, system, alpha, beta = _limit_system(gram, c)
    mixing = np.array([[1.0 - 2.0 * alpha, -beta, -alpha], [0.0, -alpha, 0.0]])
    omega = np.pad(gram, (0, 1))  # the block diagonal diag(G, 2c)
    omega[2, 2] = 2.0 * c
    cov = _delta_covariance(system, mixing, omega)
    return float(cov[0, 0]), float(cov[1, 1])


def bona_fide_covariance(gram: np.ndarray, c: float) -> np.ndarray:
    """Joint limiting 2x2 covariance of the bona fide weight pair, for c < 1,
    from the sigma^{-1} Gram G of (mu_n, mu_0).

    The pair sqrt(n) * (alpha_hat - alpha_limit, beta_hat - beta_limit), at
    the limits of :func:`limit_weights`, is asymptotically centered
    normal with this covariance.  The weights are w = e_0 - kappa A_S^{-1}
    e_0 with A_S the S^{-1} Gram of (y_bar, mu_0), which tends to A / (1 -
    c), so dw = A_S^{-1} dA_S (e_0 - w): V = [[1 - alpha, -beta, 0], [0, 1 -
    alpha, -beta]] acts on (dA_00, dA_01, dA_11).  Omega, the covariance of sqrt(n) (1 - c)^{3/2} dA_S, sums the
    normal-law (inverse-Wishart) covariance G_ik G_jl + G_il G_jk of the
    S^{-1} block, y_bar's linear part and its chi-square part 2c at (00, 00).
    The result carries a 1/(1-c) pole, so concentrations c >= 1 are rejected.
    """
    if not 0.0 < c < 1.0:
        raise ScopeError(f"joint covariance requires c in (0, 1), got {c}")
    gram, system, alpha, beta = _limit_system(gram, c)
    (m, x), (_, t) = gram.tolist()
    mixing = np.array([[1.0 - alpha, -beta, 0.0], [0.0, 1.0 - alpha, -beta]])
    omega = np.array([[gram[i, k] * gram[j, l] + gram[i, l] * gram[j, k] for k, l in _PAIRS]
                      for i, j in _PAIRS])
    omega[:2, :2] += [[4.0 * m + 2.0 * c, 2.0 * x], [2.0 * x, t]]
    return _delta_covariance(system, mixing, omega) / (1.0 - c)


def standardize(
    values: np.ndarray, center: float, variance: float, rate: float
) -> np.ndarray:
    """Map values to rate * (value - center) / sqrt(variance)."""
    if not 0 < variance < np.inf:  # written so that NaN fails it
        raise ScopeError(f"variance must be positive and finite, got {variance}")
    values = np.asarray(values, dtype=float)
    return rate * (values - center) / np.sqrt(variance)
