"""Dense symmetric linear algebra building blocks.

SPD factorization, solves and whitening, the symmetric PSD matrix square
root, and Haar-distributed random orthogonal matrices.

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
    "spd_solve",
    "spd_whiten",
    "sym_sqrt",
    "haar_orthogonal",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor L of an SPD matrix, L @ L.T == a."""

    dim: int
    lower: np.ndarray


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
    down or any pivot falls below ``dim * eps * max(diag(a))``.
    """
    a = _as_square(a)
    _require_symmetric(a)
    p = a.shape[0]
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    pivot_floor = p * _EPS * float(np.diag(a).max(initial=0.0))
    if float((np.diag(lower) ** 2).min()) <= pivot_floor:
        raise NotPositiveDefiniteError(
            f"pivot below {pivot_floor:.3e}; matrix numerically singular"
        )
    return SpdFactor(dim=p, lower=lower)


def spd_solve(factor: SpdFactor, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b given ``factor = spd_factor(a)``.

    ``b`` may be a vector or a matrix of right-hand sides.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.dim:
        raise DimensionMismatchError(
            f"rhs has {b.shape[0]} rows, factor dimension is {factor.dim}"
        )
    return scipy.linalg.cho_solve((factor.lower, True), b, check_finite=False)


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


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Unique symmetric PSD square root of an SPD matrix.

    Computed from the symmetric eigendecomposition (not Cholesky) so the
    result B satisfies B == B.T and B @ B == a.
    """
    a = _as_square(a)
    _require_symmetric(a)
    vals, vecs = np.linalg.eigh(a)
    p = a.shape[0]
    if vals[0] <= p * _EPS * max(float(vals[-1]), 0.0):
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {vals[0]:.3e} is not safely positive"
        )
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return (root + root.T) / 2.0


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
