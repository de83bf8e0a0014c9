"""Shared helpers for the shrinkmean test suite."""

import numpy as np
import pytest

from shrinkmean.model import PopulationSpec


def rand_spd(rng: np.random.Generator, p: int, jitter: float = 0.5) -> np.ndarray:
    """Random well-conditioned SPD matrix."""
    a = rng.standard_normal((p, p))
    spd = a @ a.T / p + jitter * np.eye(p)
    return (spd + spd.T) / 2.0


def covariance(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The matrix Q diag(lam) Q' of eigenpairs, symmetrized so that it
    equals its transpose exactly: the covariance a population never forms."""
    a = (vectors * values) @ vectors.T
    return (a + a.T) / 2.0


def eigenpairs(sigma) -> dict[str, np.ndarray]:
    """The ``values`` and ``vectors`` fields of a symmetric matrix's
    population, from one ``eigh``; those of a matrix that is not positive
    definite are rejected when the population is built."""
    values, vectors = np.linalg.eigh(np.asarray(sigma, dtype=float))
    return {"values": values, "vectors": vectors}


def eigen_population(values, vectors) -> PopulationSpec:
    """A population of the given eigenpairs, with zero means."""
    p = np.shape(values)[0]
    return PopulationSpec(p=p, mu_n=np.zeros(p), mu_0=np.zeros(p), values=values, vectors=vectors)


def bare_population(sigma, mu_n=None, mu_0=None) -> PopulationSpec:
    """The population of a bare covariance and its two means, zero by
    default, with the :func:`eigenpairs` of sigma."""
    p = np.shape(sigma)[0]
    mu_n = np.zeros(p) if mu_n is None else mu_n
    mu_0 = np.zeros(p) if mu_0 is None else mu_0
    return PopulationSpec(p=p, mu_n=mu_n, mu_0=mu_0, **eigenpairs(sigma))


def estimate_of(name: str, stats, ones=None) -> np.ndarray:
    """The estimate of the target-free entry ``name`` of ``ESTIMATORS`` on
    ``stats``, composed by ``estimators.evaluate``.  ``ones`` is Wang's
    direction, carried by a population of identity covariance; None reads
    the all-ones vector, with no population, as a backtest does."""
    from shrinkmean.estimators import evaluate

    p = stats.p
    pop = None if ones is None else PopulationSpec(
        p=p, mu_n=np.zeros(p), mu_0=np.zeros(p), values=np.ones(p), vectors=None, ones=ones)
    return evaluate(name, stats, None, pop)[0]


def one_fewer(count: int | None) -> int | None:
    """The thread count :func:`shrinkmean.linalg.fewer_blas_threads` sets from
    ``count``: one fewer, never below one; None where there is no count."""
    return None if count is None else max(1, count - 1)


def backtest_loss(report, window_n: int, estimator: str, target: str) -> float:
    """The ``loss_x1e4`` of the one row of a backtest report for (window
    size, estimator, target)."""
    (loss,) = [row.loss_x1e4 for row in report.rows
               if (row.window_n, row.estimator, row.target) == (window_n, estimator, target)]
    return loss


def limit_gram(pop: PopulationSpec) -> np.ndarray:
    """The sigma^{-1} Gram of (mu_n, mu_0), which the limit weights and both
    weight CLTs read."""
    return pop.precision_gram(pop.mu_n, pop.mu_0)


def sample_covariance(y: np.ndarray) -> np.ndarray:
    """Divisor-n sample covariance (y - y_bar 1')(y - y_bar 1')' / n, by the
    two-pass formula: an oracle independent of the reflected sample."""
    centered = y - y.mean(axis=1, keepdims=True)
    return centered @ centered.T / y.shape[1]


def generalized_inverse_s(sigma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Covariance-sandwiched generalized inverse of the sample covariance.

    Built from the true covariance and the standardized innovation matrix,
    so it is a test-only oracle: it satisfies the two reflexive
    generalized-inverse conditions but not the symmetry conditions of the
    Moore-Penrose inverse.  It equals the plain inverse when the sample
    covariance is invertible, and the Moore-Penrose inverse when the true
    covariance is a multiple of the identity.
    """
    n = x.shape[1]
    x_bar = x.mean(axis=1)
    inner = x @ x.T / n - np.outer(x_bar, x_bar)
    inner = (inner + inner.T) / 2.0
    vals, vecs = np.linalg.eigh(sigma)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    return inv_sqrt @ np.linalg.pinv(inner, 1e-10, hermitian=True) @ inv_sqrt


def wang_pair_sums_naive(
    y: np.ndarray, w_y: np.ndarray, ones_w_y: np.ndarray
) -> tuple[float, float, float]:
    """Literal evaluation of the pairwise double sums of Wang's estimator:
    the reference for the closed form in ``estimators.wang_estimator``."""
    n = y.shape[1]
    off_yy = 0.0
    diag_yy = 0.0
    off_11 = 0.0
    for i in range(n):
        diag_yy += float(y[:, i] @ w_y[:, i])
        for j in range(n):
            if j == i:
                continue
            off_yy += float(y[:, j] @ w_y[:, i])
            off_11 += float(ones_w_y[i] * ones_w_y[j])
    return off_yy, diag_yy, off_11


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def sample_with_moments(
    y_bar: np.ndarray, s: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """A p x n sample whose row means are ``y_bar`` and whose divisor-n
    sample covariance is ``s`` (to rounding); needs rank(s) <= n - 1."""
    vals, vecs = np.linalg.eigh(np.asarray(s, dtype=float))
    keep = vals > 1e-12 * vals.max()
    root = vecs[:, keep] * np.sqrt(vals[keep])
    z = rng.standard_normal((root.shape[1], n))
    z -= z.mean(axis=1, keepdims=True)
    # orthonormal basis of the (centered) row space: z z' / n = I exactly
    q, _ = np.linalg.qr(z.T)
    return np.asarray(y_bar, dtype=float)[:, None] + root @ (np.sqrt(n) * q.T)
