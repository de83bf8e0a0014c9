"""Dense symmetric linear algebra building blocks.

The Cholesky factorization of an SPD matrix with its whitening L^{-1} (the
sample side's precision metric for p < n) and its solve a^{-1} (through
which the p >= n sample side whitens), and Haar-distributed random
orthogonal matrices, the eigenvectors a population's covariance is drawn
with (:class:`shrinkmean.model.PopulationSpec` holds its eigenpairs).
Nothing here eigendecomposes a matrix.
No function here solves against a covariance: every precision-metric form
is a Gram of whitened vectors, and ``spd_solve`` solves against the
reflected (n-1) x (n-1) Gram G of a sample, one new vector per call.

Every BLAS and LAPACK call goes to the one BLAS library numpy links, whose
CBLAS ``dtrsv`` (for the triangular solves) and OpenBLAS thread-count getter
and setter are resolved once, at import, through the ctypes handle of
numpy's multiarray extension: no second BLAS is loaded (scipy's wheels
bundle their own, with their own thread pool).  Without ``dtrsv`` the solves
fall back to ``np.linalg.solve`` on the factor; without the thread pair,
:func:`blas_threads` is None and :func:`fewer_blas_threads` does nothing.

The linear algebra functions are pure: they never mutate their inputs and
hold no module state, so they are safe to call concurrently.  The one
exception is :func:`fewer_blas_threads`, which changes process-wide state:
while it is entered, every BLAS call in the process, on any thread, runs on
one thread fewer of numpy's OpenBLAS.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotPositiveDefiniteError

__all__ = [
    "SpdFactor",
    "spd_factor",
    "spd_whiten",
    "spd_solve",
    "haar_orthogonal",
    "blas_threads",
    "fewer_blas_threads",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class SpdFactor:
    """Lower Cholesky factor L @ L.T == a and the floor its pivots cleared."""

    dim: int
    lower: np.ndarray
    pivot_floor: float

    def __post_init__(self) -> None:
        # the solves read ``lower`` in place, C-ordered, and reuse its address
        lower = np.ascontiguousarray(self.lower, dtype=float)
        if lower.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"factor must be {self.dim} x {self.dim}, got shape {lower.shape}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "_address", lower.ctypes.data)


def _as_symmetric(a: np.ndarray) -> np.ndarray:
    """``a`` as a float array, checked square, non-empty, finite and
    symmetric within 1e-12 of its largest entry magnitude, whatever its
    scale."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatchError(f"matrix must be square and non-empty, got shape {a.shape}")
    # NaN and +-inf propagate through max and min, and NaN fails both comparisons
    top, bottom = float(a.max(initial=0.0)), float(a.min(initial=0.0))
    if not -np.inf < bottom <= top < np.inf:
        raise NotPositiveDefiniteError("matrix has a non-finite entry")
    scale = max(top, -bottom)
    # a - a.T is exactly antisymmetric, so its max is its largest magnitude;
    # an exactly symmetric a, such as every syrk Gram, skips that temporary
    if not np.array_equal(a, a.T) and float((a - a.T).max(initial=0.0)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return a


def spd_factor(a: np.ndarray) -> SpdFactor:
    """Cholesky-factor a symmetric positive definite matrix.

    Raises :class:`NotPositiveDefiniteError` for a non-finite entry, or when
    the factorization breaks down or a pivot (NaN too) is not above ``100 *
    dim * eps * max(diag(a))``: in trials, rank-deficient samples left
    pivots up to a tenth of that.
    """
    a = _as_symmetric(a)
    p = a.shape[0]
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    pivot_floor = 100.0 * p * _EPS * float(np.diag(a).max(initial=0.0))
    if not float((np.diag(lower) ** 2).min()) > pivot_floor:
        raise NotPositiveDefiniteError(
            f"pivot below {pivot_floor:.3e}; matrix numerically singular"
        )
    return SpdFactor(dim=p, lower=lower, pivot_floor=pivot_floor)


def spd_whiten(factor: SpdFactor, b: np.ndarray) -> np.ndarray:
    """L^{-1} b given ``factor = spd_factor(a)``, so (L^{-1}u)'(L^{-1}v) = u'a^{-1}v.

    One CBLAS ``dtrsv`` per column of b: for the one or two columns a
    sample whitens, it ran faster than ``dtrsm`` or LAPACK ``trtrs``.
    """
    return _triangular_solves(factor, b, (_TRANS,))


def spd_solve(factor: SpdFactor, b: np.ndarray) -> np.ndarray:
    """a^{-1} b given ``factor = spd_factor(a)``: L^{-1} b, then L'^{-1} of
    that, as two ``dtrsv`` calls per column on the factor (no inverse is
    formed)."""
    return _triangular_solves(factor, b, (_TRANS, _NO_TRANS))


#: CBLAS enumerators (cblas.h): column-major order, upper triangle, the
#: matrix transposed or not, a diagonal that is not implicitly one
_COL_MAJOR, _UPPER, _NO_TRANS, _TRANS, _NON_UNIT = 102, 121, 111, 112, 131


def _numpy_blas():
    """ctypes handle of numpy's multiarray extension, through whose
    dependencies the BLAS numpy links resolves; None if it cannot be opened."""
    try:
        from numpy._core import _multiarray_umath as extension
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as extension
    try:
        return ctypes.CDLL(extension.__file__)  # the copy numpy already loaded
    except OSError:
        return None


def _routine(lib, names, argtypes, restype):
    """The first of ``names`` that ``lib`` exports, its signature declared;
    None if it exports none of them."""
    routine = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
    if routine is not None:
        routine.argtypes, routine.restype = argtypes, restype
    return routine


def _resolve_dtrsv(lib):
    """CBLAS ``dtrsv`` of ``lib``, or None: the scipy-openblas and plain
    ILP64 names (64-bit integers), then the LP64 name (32-bit integers)."""
    for names, integer in ((("scipy_cblas_dtrsv64_", "cblas_dtrsv64_"), ctypes.c_int64),
                           (("cblas_dtrsv",), ctypes.c_int)):
        argtypes = (ctypes.c_int,) * 4 + (integer, ctypes.c_void_p) * 2 + (integer,)
        routine = _routine(lib, names, argtypes, None)
        if routine is not None:
            return routine
    return None


def _resolve_thread_controls(lib):
    """The OpenBLAS thread-count getter and setter of ``lib``, both from one
    name family, or (None, None): the scipy-openblas build of numpy's wheels,
    then plain OpenBLAS, each with the ``64_`` suffix of an ILP64 build, then
    without.  The setter acts on the whole process (so, in OpenBLAS
    0.3.30-0.3.31, does ``openblas_set_num_threads_local``, which therefore
    adds nothing)."""
    for stem in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = _routine(lib, (f"{stem}_get_num_threads{suffix}",), (), ctypes.c_int)
            put = _routine(lib, (f"{stem}_set_num_threads{suffix}",), (ctypes.c_int,), None)
            if get is not None and put is not None:
                return get, put
    return None, None


_NUMPY_BLAS = _numpy_blas()
_dtrsv = _resolve_dtrsv(_NUMPY_BLAS)
_get_threads, _set_threads = _resolve_thread_controls(_NUMPY_BLAS)


def _triangular_solves(factor: SpdFactor, b: np.ndarray, ops: tuple[int, ...]) -> np.ndarray:
    """b's columns solved against the factor once per entry of ``ops``, in
    order: ``_TRANS`` solves with L, ``_NO_TRANS`` with L'.  Column-major,
    the C-ordered L reads as U = L', so L is U transposed."""
    x = np.array(b, dtype=float, order="F")  # the one copy, solved in place
    dim = factor.dim
    if x.shape[0] != dim:
        raise DimensionMismatchError(f"rhs has {x.shape[0]} rows, factor dimension is {dim}")
    if _dtrsv is None:
        columns = x.reshape(dim, -1, order="F")  # a view: x is Fortran-ordered
        for op in ops:
            columns = np.linalg.solve(factor.lower if op == _TRANS else factor.lower.T, columns)
        return columns.reshape(x.shape)
    if x.size:
        # from_buffer needs C order, which x.T has, and reads the address
        # about three times faster than x.ctypes.data
        address = ctypes.addressof(ctypes.c_char.from_buffer(x.T))
        for column in range(address, address + x.nbytes, x.itemsize * dim):
            for op in ops:
                _dtrsv(_COL_MAJOR, _UPPER, op, _NON_UNIT, dim, factor._address, dim, column, 1)
    return x


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


def blas_threads() -> int | None:
    """Current thread count of numpy's OpenBLAS, which :func:`fewer_blas_threads`
    lowers; None where numpy links no OpenBLAS whose count it can set."""
    return None if _get_threads is None else _get_threads()


_lowering_lock = threading.Lock()
_lowering_depth = 0
_saved_threads = 0


@contextmanager
def fewer_blas_threads():
    """Run the block with numpy's OpenBLAS on one thread fewer (never below
    one), restoring its count on exit.

    This frees a core for a thread that works beside BLAS, where OpenBLAS's
    extra thread would only spin between small calls.  That thread may call
    BLAS itself, on the threads left: on two cores, one, so each call runs
    on its caller's thread.  The count is process state, so nested or
    overlapping entries, from any threads, lower it once, on the first
    entry, and the last exit restores it.
    """
    global _lowering_depth, _saved_threads
    with _lowering_lock:
        if _lowering_depth == 0 and _set_threads is not None:
            _saved_threads = _get_threads()
            _set_threads(max(1, _saved_threads - 1))
        _lowering_depth += 1
    try:
        yield
    finally:
        with _lowering_lock:
            _lowering_depth -= 1
            if _lowering_depth == 0 and _set_threads is not None:
                _set_threads(_saved_threads)
