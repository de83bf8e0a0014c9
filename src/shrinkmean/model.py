"""Simulation populations and sample generation.

A population is a frozen triple (true mean, target mean, covariance) plus
the norm-growth exponent gamma; samples are p x n observation matrices
built as ``sqrt(sigma) @ X + mu 1'`` from i.i.d. standardized innovations.
The population carries the eigenpairs of its covariance, sigma = Q diag(lam)
Q': a simulated one keeps those its covariance was built from, one given a
bare sigma takes them from one ``eigh``.  Both the square root that
generates samples and the precision whitening W = diag(lam)^{-1/2} Q' are
read from them.  W is the population's one precision metric: the loss, the
oracle and limit weights and the asymptotic moments all read sigma^{-1}
through :meth:`PopulationSpec.whitening` or
:meth:`PopulationSpec.precision_gram`, so no population is factorized twice.
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
from .linalg import (SpdEigen, SpdFactor, haar_orthogonal, spd_eigen, spd_factor,
                     spd_solve, spd_whiten)

__all__ = [
    "EigenRecipe",
    "DEFAULT_RECIPE",
    "InnovationLaw",
    "PopulationSpec",
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


@dataclass
class PopulationSpec:
    """Ground truth for one simulation scenario; frozen after construction.

    ``eigen`` holds the eigenpairs of ``sigma`` when the caller knows them;
    otherwise they come from one ``eigh`` of ``sigma`` on first use, which
    raises :class:`NotPositiveDefiniteError` for a sigma that is not
    symmetric positive definite.
    """

    p: int
    gamma: float
    mu_n: np.ndarray
    mu_0: np.ndarray
    sigma: np.ndarray
    eigen: SpdEigen | None = field(default=None, repr=False, compare=False)
    _sqrt_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False, init=False
    )
    _whitening_cache: np.ndarray | None = field(
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
        eigen = self.eigen
        if eigen is not None and (
            eigen.values.shape != (self.p,) or eigen.vectors.shape != (self.p, self.p)
        ):
            raise DimensionMismatchError("eigenpairs must be p values and p x p vectors")

    def _eigenpairs(self) -> SpdEigen:
        """Eigenpairs of the covariance, from ``eigh`` on first use if not given."""
        if self.eigen is None:
            self.eigen = spd_eigen(self.sigma)
        return self.eigen

    def sigma_sqrt(self) -> np.ndarray:
        """Symmetric square root Q diag(lam)^{1/2} Q' of the covariance, cached."""
        if self._sqrt_cache is None:
            self._sqrt_cache = self._eigenpairs().sqrt()
        return self._sqrt_cache

    def whitening(self) -> np.ndarray:
        """Precision whitening W = diag(lam)^{-1/2} Q', cached: W'W = sigma^{-1},
        so (W u)'(W v) = u' sigma^{-1} v."""
        if self._whitening_cache is None:
            self._whitening_cache = self._eigenpairs().whitening()
        return self._whitening_cache

    def precision_gram(self, *vectors: np.ndarray) -> np.ndarray:
        """Gram matrix V' sigma^{-1} V of ``vectors`` (the columns of V), read
        through the cached whitening: (W V)'(W V)."""
        white = self.whitening() @ np.column_stack(vectors)
        return white.T @ white


@dataclass(frozen=True)
class _Factorization:
    cholesky: SpdFactor  # of S for p < n, of the reflected Gram G = B'B for p >= n
    reflected: np.ndarray | None  # B, when p >= n
    scale: float  # trace of the factored matrix, trace(S)


@dataclass(frozen=True)
class SampleStats:
    """Sufficient statistics of one p x n sample ``y``, with the one
    factorization of its covariance that every estimator shares.

    ``s`` is the sample covariance with divisor n (not n-1); the scatter
    matrix of the James-Stein family is ``n * s``.  The factorization is
    built on first use and cached, as is a failure to build it, so each
    estimator that needs it fails once and no other does.  It is one
    Cholesky factor, whose pivot floor is the rank check: S of rank below
    min(p, n - 1) raises :class:`SingularSampleError`.  For p < n it factors
    S, and the precision metric Q is S^{-1}.  For p >= n it factors the
    (n-1) x (n-1) Gram ``G = B'B`` of ``B = y H[:, 1:] / sqrt(n) = (y[:, 1:]
    - m 1') / sqrt(n)``, with H the Householder reflection ``H e_1 =
    -1/sqrt(n)`` and ``m = y_bar - (y_bar - y_1) / (sqrt(n) + 1)``.  Then
    ``B B' = S`` and ``Q = S^+ = B G^{-2} B'``: v is whitened as
    ``G^{-1} B' v``, by the two triangular solves of G's Cholesky factor
    (no inverse is formed or stored), and projected on the range of S as
    ``B G^{-1} B' v``.
    The factor's ``dim`` is the rank of S and ``scale`` its trace, trace(S)
    >= lam_max(S), so a vector v in the range of S has ``v'Qv >= |v|^2/scale``.
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
        # y @ y.T runs as one syrk, so S is exactly symmetric
        return self.y @ self.y.T / self.n - np.outer(self.y_bar, self.y_bar)

    def _factorize(self) -> _Factorization:
        if self.p < self.n:
            reflected, gram = None, self.s
        else:
            # the sign of H that keeps sqrt(n) - 1 out of the divisor
            root_n = np.sqrt(self.n)
            shift = self.y_bar - (self.y_bar - self.y[:, 0]) / (root_n + 1.0)
            reflected = self.y[:, 1:] - shift[:, None]
            reflected /= root_n
            gram = reflected.T @ reflected
        try:
            cholesky = spd_factor(gram)
        except NotPositiveDefiniteError as exc:
            raise SingularSampleError("rank(S) < min(p, n - 1)") from exc
        return _Factorization(cholesky, reflected, float(np.trace(gram)))

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
        if f.reflected is None:
            return spd_whiten(f.cholesky, v)
        return spd_solve(f.cholesky, f.reflected.T @ v)

    def precision_gram(self, *vectors: np.ndarray) -> np.ndarray:
        """Gram matrix of ``vectors`` in the precision metric Q."""
        white = self.whiten(np.column_stack(vectors))
        return white.T @ white

    def project(self, v: np.ndarray) -> np.ndarray:
        """Projection of v on the range of S (the identity for p < n)."""
        f = self.factorization
        return v if f.reflected is None else f.reflected @ self.whiten(v)


def build_covariance(
    recipe: EigenRecipe, p: int, rng: np.random.Generator
) -> tuple[np.ndarray, SpdEigen]:
    """Random covariance with the recipe's spectrum and Haar eigenvectors,
    returned with the eigenpairs it was built from."""
    if p < 2:
        raise DimensionMismatchError(f"p must be >= 2, got {p}")
    eigen = SpdEigen(values=recipe.eigenvalues(p), vectors=haar_orthogonal(p, rng))
    cov = (eigen.vectors * eigen.values) @ eigen.vectors.T
    return (cov + cov.T) / 2.0, eigen


def draw_mean_vectors(
    gamma: float, p: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (true, target) mean pair for the bounded and growing regimes.

    gamma = 0: both vectors i.i.d. uniform on [-p^{-1/2}, p^{-1/2}], drawn
    independently.  gamma = 1: true mean entries are i.i.d. random signs and
    the target is the all-ones vector.
    """
    if gamma == 0:
        bound = p ** (-0.5)
        mu_n = rng.uniform(-bound, bound, size=p)
        mu_0 = rng.uniform(-bound, bound, size=p)
        return mu_n, mu_0
    if gamma == 1:
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
    y = pop.sigma_sqrt() @ law.draw(rng, (pop.p, n))
    y += pop.mu_n[:, None]
    return y


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
