"""Shared helpers for the shrinkmean test suite."""

import numpy as np
import pytest

from shrinkmean.linalg import SpdEigen
from shrinkmean.model import PopulationSpec


def rand_spd(rng: np.random.Generator, p: int, jitter: float = 0.5) -> np.ndarray:
    """Random well-conditioned SPD matrix."""
    a = rng.standard_normal((p, p))
    spd = a @ a.T / p + jitter * np.eye(p)
    return (spd + spd.T) / 2.0


def covariance(eigen: SpdEigen) -> np.ndarray:
    """The matrix Q diag(lam) Q' of eigenpairs, symmetrized so that it
    equals its transpose exactly: the covariance a population never forms."""
    a = (eigen.vectors * eigen.values) @ eigen.vectors.T
    return (a + a.T) / 2.0


def eigenpairs(sigma) -> SpdEigen:
    """Eigenpairs of a symmetric matrix, from one ``eigh``; those of a matrix
    that is not positive definite are rejected when built."""
    values, vectors = np.linalg.eigh(np.asarray(sigma, dtype=float))
    return SpdEigen(values=values, vectors=vectors)


def bare_population(sigma, mu_n, mu_0) -> PopulationSpec:
    """The gamma = 0 population of a bare covariance and its two means, with
    the :func:`eigenpairs` of sigma."""
    mu_n = np.asarray(mu_n, dtype=float)
    return PopulationSpec(p=mu_n.shape[0], gamma=0, mu_n=mu_n, mu_0=mu_0,
                          eigen=eigenpairs(sigma))


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
    return inv_sqrt @ np.linalg.pinv(inner, rtol=1e-10, hermitian=True) @ inv_sqrt


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
