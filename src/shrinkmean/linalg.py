"""Dense symmetric linear algebra building blocks.

The Cholesky factorization of an SPD matrix with its whitening L^{-1} (the
sample side's precision metric for p < n) and its solve a^{-1} (through
which the p >= n sample side whitens), the eigenpairs of an SPD matrix with
its symmetric square root and precision whitening (the population side's
one precision metric), and Haar-distributed random orthogonal matrices.
No function here solves against a covariance: every precision-metric form
is a Gram of whitened vectors, and ``spd_solve`` solves against the
reflected (n-1) x (n-1) Gram G of a sample, never against S or sigma.

All functions are pure: they never mutate their inputs and hold no module
state, so they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, NotPositiveDefiniteError

__all__ = [
    "SpdFactor",
    "spd_factor",
    "spd_whiten",
    "spd_solve",
    "SpdEigen",
    "spd_eigen",
    "haar_orthogonal",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factor L @ L.T == a and the floor its pivots cleared."""

    dim: int
    lower: np.ndarray
    pivot_floor: float


def _as_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


def _require_symmetric(a: np.ndarray, tol: float = 1e-12) -> None:
    scale = max(float(np.abs(a).max(initial=0.0)), 1.0)
    if float(np.abs(a - a.T).max(initial=0.0)) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")


def spd_factor(a: np.ndarray) -> SpdFactor:
    """Cholesky-factor a symmetric positive definite matrix.

    Raises :class:`NotPositiveDefiniteError` when the factorization breaks
    down or any pivot falls below ``100 * dim * eps * max(diag(a))``: in
    trials, rank-deficient samples left pivots up to a tenth of that.
    """
    a = _as_square(a)
    _require_symmetric(a)
    p = a.shape[0]
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    pivot_floor = 100.0 * p * _EPS * float(np.diag(a).max(initial=0.0))
    if float((np.diag(lower) ** 2).min()) <= pivot_floor:
        raise NotPositiveDefiniteError(
            f"pivot below {pivot_floor:.3e}; matrix numerically singular"
        )
    return SpdFactor(dim=p, lower=lower, pivot_floor=pivot_floor)


def spd_whiten(factor: SpdFactor, b: np.ndarray) -> np.ndarray:
    """L^{-1} b given ``factor = spd_factor(a)``, so (L^{-1}u)'(L^{-1}v) = u'a^{-1}v.

    BLAS trsm: LAPACK trtrs (scipy's ``solve_triangular``) ran several times
    slower under two-thread OpenBLAS 0.3.31 on 2-core x86-64.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.dim:
        raise DimensionMismatchError(
            f"rhs has {b.shape[0]} rows, factor dimension is {factor.dim}"
        )
    upper = factor.lower.T  # Fortran-ordered view: solve L x = b as U' x = b
    x = scipy.linalg.blas.dtrsm(1.0, upper, b.reshape(factor.dim, -1), lower=0, trans_a=1)
    return x.reshape(b.shape)


def spd_solve(factor: SpdFactor, b: np.ndarray) -> np.ndarray:
    """a^{-1} b given ``factor = spd_factor(a)``: L^{-1} b, then L'^{-1} of
    that, as two BLAS trsm calls on the factor (no inverse is formed)."""
    x = spd_whiten(factor, b)
    # U = L' as a Fortran-ordered view; trsm overwrites the fresh x in place
    x = scipy.linalg.blas.dtrsm(1.0, factor.lower.T, x.reshape(factor.dim, -1),
                                lower=0, overwrite_b=1)
    return x.reshape(np.shape(b))


@dataclass(frozen=True)
class SpdEigen:
    """Eigenpairs of an SPD matrix, a == vectors @ diag(values) @ vectors.T,
    with positive ``values`` and orthogonal ``vectors``."""

    values: np.ndarray
    vectors: np.ndarray

    def sqrt(self) -> np.ndarray:
        """The unique symmetric PSD square root B: B == B.T and B @ B == a."""
        root = (self.vectors * np.sqrt(self.values)) @ self.vectors.T
        return (root + root.T) / 2.0

    def whitening(self) -> np.ndarray:
        """W = diag(values)^{-1/2} vectors', so W'W == a^{-1} and
        (Wu)'(Wv) == u' a^{-1} v."""
        return self.vectors.T / np.sqrt(self.values)[:, None]


def spd_eigen(a: np.ndarray) -> SpdEigen:
    """Eigenpairs of a symmetric positive definite matrix, from one ``eigh``.

    Raises :class:`NotPositiveDefiniteError` when the smallest eigenvalue is
    not above ``dim * eps * max eigenvalue``.
    """
    a = _as_square(a)
    _require_symmetric(a)
    vals, vecs = np.linalg.eigh(a)
    p = a.shape[0]
    if vals[0] <= p * _EPS * max(float(vals[-1]), 0.0):
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {vals[0]:.3e} is not safely positive"
        )
    return SpdEigen(values=vals, vectors=vecs)


def haar_orthogonal(p: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed p x p orthogonal matrix.

    QR decomposition of a standard Gaussian matrix, with the sign of each
    column fixed so that R has a positive diagonal; this makes the result
    unique (hence reproducible) for a given Gaussian draw.
    """
    if p < 1:
        raise DimensionMismatchError(f"p must be >= 1, got {p}")
    z = rng.standard_normal((p, p))
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r))
    signs = np.where(signs == 0.0, 1.0, signs)
    return q * signs
