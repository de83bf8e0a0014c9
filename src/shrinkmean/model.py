"""Simulation populations and sample generation.

A population is a frozen triple (true mean, target mean, covariance) plus
the norm-growth exponent gamma; samples are p x n observation matrices
built as ``sqrt(sigma) @ X + mu 1'`` from i.i.d. standardized innovations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidRecipeError,
    NotPositiveDefiniteError,
    ShrinkmeanError,
    SingularSampleError,
    UnsupportedGammaError,
)
from .linalg import SpdFactor, haar_orthogonal, spd_factor, spd_whiten, sym_sqrt

__all__ = [
    "EigenRecipe",
    "DEFAULT_RECIPE",
    "InnovationLaw",
    "PopulationSpec",
    "PopulationReport",
    "SampleStats",
    "build_covariance",
    "draw_mean_vectors",
    "generate_sample",
    "sample_stats",
]


@dataclass(frozen=True)
class EigenRecipe:
    """Covariance spectrum given as (fraction, eigenvalue) groups.

    Fractions must sum to 1 and eigenvalues must be positive.  When
    ``override_lambda_max`` is set, the single largest eigenvalue of the
    assembled spectrum is replaced by that value (extreme-spectrum runs).
    """

    proportions: tuple[tuple[float, float], ...]
    override_lambda_max: float | None = None

    def __post_init__(self) -> None:
        if not self.proportions:
            raise InvalidRecipeError("recipe needs at least one group")
        total = sum(f for f, _ in self.proportions)
        if abs(total - 1.0) > 1e-9:
            raise InvalidRecipeError(f"fractions sum to {total}, expected 1")
        if any(f < 0 for f, _ in self.proportions):
            raise InvalidRecipeError("fractions must be nonnegative")
        if any(v <= 0 for _, v in self.proportions):
            raise InvalidRecipeError("eigenvalues must be positive")
        if self.override_lambda_max is not None and self.override_lambda_max <= 0:
            raise InvalidRecipeError("override_lambda_max must be positive")

    def eigenvalues(self, p: int) -> np.ndarray:
        """Expand the recipe into p eigenvalues.

        Each group gets floor(fraction * p) values; any remainder goes to
        the last group.
        """
        counts = [int(np.floor(f * p)) for f, _ in self.proportions]
        counts[-1] += p - sum(counts)
        values = np.concatenate(
            [np.full(k, v) for k, (_, v) in zip(counts, self.proportions)]
        )
        if self.override_lambda_max is not None:
            values = np.sort(values)
            values[-1] = self.override_lambda_max
        return values


#: 20% of eigenvalues at 1, 40% at 3, 40% at 10.
DEFAULT_RECIPE = EigenRecipe(((0.2, 1.0), (0.4, 3.0), (0.4, 10.0)))


@dataclass(frozen=True)
class InnovationLaw:
    """Zero-mean, unit-variance innovation distribution.

    Supported names: ``normal``, ``t`` (standardized Student t, needs
    ``df > 4`` so fourth moments exist), ``exponential`` (unit exponential
    shifted by -1).
    """

    name: str = "normal"
    df: float | None = None

    def __post_init__(self) -> None:
        if self.name not in ("normal", "t", "exponential"):
            raise ValueError(f"unknown innovation law {self.name!r}")
        if self.name == "t":
            if self.df is None or self.df <= 4:
                raise ValueError("t law requires df > 4")
        elif self.df is not None:
            raise ValueError(f"law {self.name!r} takes no df parameter")

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        if self.name == "normal":
            return rng.standard_normal(shape)
        if self.name == "t":
            return rng.standard_t(self.df, shape) * np.sqrt((self.df - 2.0) / self.df)
        return rng.exponential(1.0, shape) - 1.0

    @classmethod
    def parse(cls, text: str) -> "InnovationLaw":
        """Parse ``normal``, ``t:<df>`` or ``exponential``."""
        text = text.strip()
        if text.startswith("t:"):
            return cls("t", float(text[2:]))
        return cls(text)

    def spec_string(self) -> str:
        return f"t:{self.df:g}" if self.name == "t" else self.name


@dataclass(frozen=True)
class PopulationReport:
    """Validation diagnostics for a population.

    ``mean_norm_scaled`` and ``target_norm_scaled`` are the gamma-scaled
    squared norms of the true and target means; both must stay finite and
    positive, and the covariance spectrum must stay above ``lambda_floor``.
    """

    lambda_min: float
    mean_norm_scaled: float
    target_norm_scaled: float
    norm_upper: float
    ok: bool


@dataclass
class PopulationSpec:
    """Ground truth for one simulation scenario; frozen after construction."""

    p: int
    gamma: float
    mu_n: np.ndarray
    mu_0: np.ndarray
    sigma: np.ndarray
    _sqrt_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False, init=False
    )

    def __post_init__(self) -> None:
        self.mu_n = np.asarray(self.mu_n, dtype=float)
        self.mu_0 = np.asarray(self.mu_0, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.mu_n.shape != (self.p,) or self.mu_0.shape != (self.p,):
            raise DimensionMismatchError("mean vectors must have length p")
        if self.sigma.shape != (self.p, self.p):
            raise DimensionMismatchError("sigma must be p x p")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")

    def sigma_sqrt(self) -> np.ndarray:
        """Symmetric square root of the covariance, computed once and cached."""
        if self._sqrt_cache is None:
            self._sqrt_cache = sym_sqrt(self.sigma)
        return self._sqrt_cache

    def validate(self, lambda_floor: float = 1e-8) -> PopulationReport:
        """Check the eigenvalue floor and the scaled mean-norm diagnostics."""
        lam_min = float(np.linalg.eigvalsh(self.sigma)[0])
        scale = float(self.p) ** (-self.gamma)
        m_mean = scale * float(self.mu_n @ self.mu_n)
        m_target = scale * float(self.mu_0 @ self.mu_0)
        ok = (
            lam_min >= lambda_floor
            and np.isfinite(m_mean)
            and np.isfinite(m_target)
            and m_mean > 0
            and m_target > 0
        )
        return PopulationReport(
            lambda_min=lam_min,
            mean_norm_scaled=m_mean,
            target_norm_scaled=m_target,
            norm_upper=max(m_mean, m_target),
            ok=ok,
        )


@dataclass(frozen=True)
class _Factorization:
    cholesky: SpdFactor | None  # of S, when p < n
    basis: np.ndarray | None  # U, when p >= n
    eigenvalues: np.ndarray | None  # lam, when p >= n
    rank: int
    tolerance: float
    scale: float


@dataclass(frozen=True)
class SampleStats:
    """Sufficient statistics of one p x n sample ``y``, with the one
    factorization of its covariance that every estimator shares.

    ``s`` is the sample covariance with divisor n (not n-1); the scatter
    matrix of the James-Stein family is ``n * s``.  The factorization is
    built on first use and cached, as is a failure to build it, so each
    estimator that needs it fails once and no other does.  For p < n it is
    the Cholesky factor of S and the precision metric Q is S^{-1}.  For
    p >= n it is ``eigh`` of the n x n Gram ``A'A = V diag(lam) V'``, with
    ``A = (y - y_bar 1') / sqrt(n)`` so that ``S = A A'``: the Gram
    eigenvalues are the nonzero eigenvalues of S, the cutoff 1e-10 * lam_max
    is applied to them and the recorded ``rank`` counts those kept.  Then
    ``U = A V diag(lam)^{-1/2}`` is orthonormal, ``Q = S^+ = U diag(1/lam) U'``
    and ``U U'`` projects on the range of S; neither S nor S^+ is formed.
    Its ``scale`` bounds lam_max(S) from above (lam_max for p >= n, trace(S)
    for p < n), so a vector v in the range of S has ``v'Qv >= |v|^2/scale``.
    """

    y_bar: np.ndarray
    y: np.ndarray
    p: int
    n: int

    @property
    def c_hat(self) -> float:
        return self.p / self.n

    @property
    def s(self) -> np.ndarray:
        s = self.y @ self.y.T / self.n - np.outer(self.y_bar, self.y_bar)
        return (s + s.T) / 2.0

    def _factorize(self) -> _Factorization:
        if self.p < self.n:
            s = self.s
            try:
                cholesky = spd_factor(s)
            except NotPositiveDefiniteError as exc:
                raise SingularSampleError("sample covariance is not positive definite") from exc
            return _Factorization(cholesky, None, None, self.p, 0.0, float(np.trace(s)))
        centered = (self.y - self.y_bar[:, None]) / np.sqrt(self.n)
        vals, vecs = np.linalg.eigh(centered.T @ centered)
        cutoff = 1e-10 * max(float(vals[-1]), 0.0)
        keep = vals > cutoff
        lam = vals[keep]
        basis = (centered @ vecs[:, keep]) / np.sqrt(lam)
        scale = float(lam[-1]) if lam.size else 0.0
        return _Factorization(None, basis, lam, lam.size, cutoff, scale)

    @property
    def factorization(self) -> _Factorization:
        """The shared factorization; raises the error that prevented it."""
        # cached by hand, not with functools.cached_property, because the
        # cache also stores the failure and raises it on every later call
        outcome = self.__dict__.get("_outcome")
        if outcome is None:
            try:
                outcome = self._factorize()
            except ShrinkmeanError as exc:
                outcome = exc
            self.__dict__["_outcome"] = outcome
        if isinstance(outcome, ShrinkmeanError):
            raise outcome
        return outcome

    def whiten(self, v: np.ndarray) -> np.ndarray:
        """Coordinates w of a vector, or of matrix columns, with w_a'w_b = v_a'Q v_b."""
        f = self.factorization
        v = np.asarray(v, dtype=float)
        if f.cholesky is not None:
            return spd_whiten(f.cholesky, v)
        root = np.sqrt(f.eigenvalues)
        return (f.basis.T @ v) / (root if v.ndim == 1 else root[:, None])

    def precision_gram(self, *vectors: np.ndarray) -> np.ndarray:
        """Gram matrix of ``vectors`` in the precision metric Q."""
        white = self.whiten(np.column_stack(vectors))
        return white.T @ white

    def project(self, v: np.ndarray) -> np.ndarray:
        """Projection of v on the range of S (the identity for p < n)."""
        f = self.factorization
        return v if f.basis is None else f.basis @ (f.basis.T @ v)


def build_covariance(
    recipe: EigenRecipe, p: int, rng: np.random.Generator
) -> np.ndarray:
    """Random covariance with the recipe's spectrum and Haar eigenvectors."""
    if p < 2:
        raise DimensionMismatchError(f"p must be >= 2, got {p}")
    values = recipe.eigenvalues(p)
    q = haar_orthogonal(p, rng)
    cov = (q * values) @ q.T
    return (cov + cov.T) / 2.0


def draw_mean_vectors(
    gamma: float,
    p: int,
    rng: np.random.Generator,
    alternating: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (true, target) mean pair for the bounded and growing regimes.

    gamma = 0: both vectors i.i.d. uniform on [-p^{-1/2}, p^{-1/2}], drawn
    independently.  gamma = 1: true mean entries are i.i.d. random signs
    (or the deterministic pattern +1,-1,+1,... when ``alternating``) and
    the target is the all-ones vector.
    """
    if gamma == 0:
        bound = p ** (-0.5)
        mu_n = rng.uniform(-bound, bound, size=p)
        mu_0 = rng.uniform(-bound, bound, size=p)
        return mu_n, mu_0
    if gamma == 1:
        if alternating:
            mu_n = np.where(np.arange(p) % 2 == 0, 1.0, -1.0)
        else:
            mu_n = rng.integers(0, 2, size=p) * 2.0 - 1.0
        return mu_n, np.ones(p)
    raise UnsupportedGammaError(f"gamma must be 0 or 1, got {gamma}")


def generate_sample(
    pop: PopulationSpec,
    n: int,
    law: InnovationLaw,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate a p x n observation matrix sqrt(sigma) @ X + mu 1'."""
    if n < 2:
        raise DimensionMismatchError(f"n must be >= 2, got {n}")
    x = law.draw(rng, (pop.p, n))
    return pop.sigma_sqrt() @ x + pop.mu_n[:, None]


def sample_stats(y: np.ndarray) -> SampleStats:
    """Row means of a p x n matrix; the covariance and its factorization
    are built on first use (see :class:`SampleStats`)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DimensionMismatchError(f"expected a p x n matrix, got shape {y.shape}")
    p, n = y.shape
    if n < 2:
        raise DimensionMismatchError(f"n must be >= 2, got {n}")
    return SampleStats(y_bar=y.mean(axis=1), y=y, p=p, n=n)
