"""Simulation populations and sample generation.

A population is an immutable triple (true mean, target mean, covariance)
plus the norm-growth exponent gamma; a sample is the p x n matrix
``y = R z + mu 1'`` of i.i.d. standardized innovations z mixed by the
symmetric square root R = sigma^{1/2}.  :func:`generate_sample` forms y and
:func:`sample_stats` reads its statistics; a Monte Carlo replication reads
the same statistics from z alone through :func:`innovation_stats`, which
never forms y, and below p = n forms no p x p x n product either.
The population's covariance is given as its eigenpairs, sigma = Q diag(lam)
Q', the ones a simulated covariance is drawn from, so it is never
eigendecomposed and sigma itself is never formed.  The square root R and
the precision whitening W = diag(lam)^{-1/2} Q' are read from them on first
use and cached on the eigenpairs, and R^{-1} = Q W.  W is the population's
one precision metric: the loss, the oracle and limit weights and the
asymptotic variances all read sigma^{-1} through
:meth:`PopulationSpec.whitening` or :meth:`PopulationSpec.precision_gram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidRecipeError,
    NonFiniteDataError,
    NotPositiveDefiniteError,
    ShrinkmeanError,
    SingularSampleError,
    UnsupportedGammaError,
)
from .linalg import SpdEigen, SpdFactor, haar_orthogonal, spd_factor, spd_solve, spd_whiten

__all__ = [
    "EigenRecipe",
    "DEFAULT_RECIPE",
    "InnovationLaw",
    "PopulationSpec",
    "SampleStats",
    "build_covariance",
    "draw_mean_vectors",
    "generate_sample",
    "innovation_stats",
    "sample_stats",
]


@dataclass(frozen=True)
class EigenRecipe:
    """Covariance spectrum given as (fraction, eigenvalue) groups.

    Fractions must sum to 1 and eigenvalues must be positive and finite.  When
    ``override_lambda_max`` is set, the single largest eigenvalue of the
    assembled spectrum is replaced by that value (extreme-spectrum runs).
    """

    proportions: tuple[tuple[float, float], ...]
    override_lambda_max: float | None = None

    def __post_init__(self) -> None:
        if not self.proportions:
            raise InvalidRecipeError("recipe needs at least one group")
        # written so that NaN fails every check, and a sum of 1 needs finite fractions
        total = sum(f for f, _ in self.proportions)
        if not abs(total - 1.0) <= 1e-9:
            raise InvalidRecipeError(f"fractions sum to {total}, expected 1")
        if any(f < 0 for f, _ in self.proportions):
            raise InvalidRecipeError("fractions must be nonnegative")
        if not all(0 < v < np.inf for _, v in self.proportions):
            raise InvalidRecipeError("eigenvalues must be positive and finite")
        if self.override_lambda_max is not None and not 0 < self.override_lambda_max < np.inf:
            raise InvalidRecipeError("override_lambda_max must be positive and finite")

    def eigenvalues(self, p: int) -> np.ndarray:
        """Expand the recipe into p eigenvalues.

        Each group gets floor(fraction * p) values; any remainder goes to
        the last group.  The product is rounded to 9 decimals before the
        floor, so a product that floating point puts just below an integer
        (0.29 * 100 = 28.999999999999996) counts as that integer.
        """
        counts = [int(np.floor(round(f * p, 9))) for f, _ in self.proportions]
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

    Supported names: ``normal``, ``t`` (standardized Student t, needs a
    finite ``df > 4`` so fourth moments exist), ``exponential`` (unit exponential
    shifted by -1).
    """

    name: str = "normal"
    df: float | None = None

    def __post_init__(self) -> None:
        if self.name not in ("normal", "t", "exponential"):
            raise ValueError(f"unknown innovation law {self.name!r}")
        if self.name == "t":
            if self.df is None or not 4 < self.df < np.inf:
                raise ValueError("t law requires a finite df > 4")
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


@dataclass(frozen=True, eq=False)
class PopulationSpec:
    """Ground truth for one simulation scenario, an immutable value.

    The covariance is given only as its eigenpairs ``eigen``, checked when
    built (see :class:`SpdEigen`): p values and p x p vectors, otherwise
    :class:`DimensionMismatchError`; positive, finite values and finite
    vectors, otherwise :class:`NotPositiveDefiniteError`.  Non-finite means
    raise :class:`NonFiniteDataError`.  Its root and its whitening are cached
    on the eigenpairs, so ``dataclasses.replace(pop, mu_0=target)`` shares
    them.
    """

    p: int
    gamma: float
    mu_n: np.ndarray
    mu_0: np.ndarray
    eigen: SpdEigen = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu_n", np.asarray(self.mu_n, dtype=float))
        object.__setattr__(self, "mu_0", np.asarray(self.mu_0, dtype=float))
        if self.mu_n.shape != (self.p,) or self.mu_0.shape != (self.p,):
            raise DimensionMismatchError("mean vectors must have length p")
        if not (np.isfinite(self.mu_n).all() and np.isfinite(self.mu_0).all()):
            raise NonFiniteDataError("mean vectors must have finite entries")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.eigen.values.shape != (self.p,):
            raise DimensionMismatchError("eigenpairs must be p values and p x p vectors")

    def sigma_sqrt(self) -> np.ndarray:
        """Symmetric square root R = Q diag(lam)^{1/2} Q' of the covariance."""
        return self.eigen.root

    def whitening(self) -> np.ndarray:
        """Precision whitening W = diag(lam)^{-1/2} Q': W'W = sigma^{-1},
        so (W u)'(W v) = u' sigma^{-1} v."""
        return self.eigen.whitening

    def precision_gram(self, *vectors: np.ndarray) -> np.ndarray:
        """Gram matrix V' sigma^{-1} V of ``vectors`` (the columns of V), read
        through the cached whitening: (W V)'(W V)."""
        white = self.whitening() @ np.column_stack(vectors)
        return white.T @ white


@dataclass(frozen=True, eq=False)
class _Factorization:
    cholesky: SpdFactor  # of B B' (B_z B_z' with a population) for p < n, of G = B'B for p >= n
    white_mean: np.ndarray  # y_bar whitened, once for every estimator
    scale: float  # at least lam_max(S): trace(S), or lam_max(sigma) trace(S_z)


@dataclass(frozen=True, eq=False)
class SampleStats:
    """Sufficient statistics of one p x n sample y: its row means ``y_bar``
    and its reflected sample ``reflected``, ``B = y H[:, 1:] / sqrt(n) =
    (y[:, 1:] - m 1') / sqrt(n)``, with H the Householder reflection ``H e_1
    = -1/sqrt(n)`` and ``m = y_bar - (y_bar - y_1) / (sqrt(n) + 1)``.  Then
    ``B B' = S``, the sample covariance with divisor n (the scatter matrix of
    the James-Stein family is ``n * S``), formed without the cancellation of
    y y'/n - y_bar y_bar' when the means are large against the spread.

    A simulated sample y = R z + mu_n 1' below p = n may instead keep the
    reflected sample ``B_z`` of its innovations z, with ``population`` the
    population whose root R = ``population.sigma_sqrt()`` mixes them: then
    B = R B_z and ``S = R S_z R`` with ``S_z = B_z B_z'``, and neither y nor
    B nor S is formed (see :func:`innovation_stats`).

    The one factorization every estimator shares is built on first use and
    cached, as is a failure to build it, so each estimator that needs it
    fails once and no other does.  It is one Cholesky factor of one syrk of
    the reflected sample, whose pivot floor is the rank check: S of rank
    below min(p, n - 1) raises :class:`SingularSampleError`.  For p < n it
    factors ``B B' = S = L L'`` and reads Q = S^{-1} as ``(L^{-1} u)'(L^{-1}
    v)``; with a population it factors ``S_z = L_z L_z'`` (rank S = rank S_z)
    and whitens v as ``L_z^{-1} R^{-1} v``, R^{-1} v read as Q(W v) from the
    population's eigenvectors and whitening.  For p >= n it factors ``G = B'B``,
    and ``Q = S^+ = B G^{-2} B'``: v is whitened as ``G^{-1} B' v`` by two
    triangular solves (no inverse is formed) and projected on the range of S
    as ``B G^{-1} B' v``.  It whitens y_bar once, so each later call whitens
    only its one new vector.  The factor's ``dim`` is the rank of S.

    ``scale`` bounds lam_max(S) from above, so that a vector v in the range
    of S has ``v'Qv >= |v|^2/scale``.  Without a population it is trace(S),
    read from the factored Gram.  With one it is lam_max(sigma) trace(S_z),
    read in O(p) from the eigenvalues and S_z, so no p x p sigma is formed:
    lam_max(R S_z R) <= lam_max(sigma) lam_max(S_z) <= lam_max(sigma)
    trace(S_z).  The two routes' scales differ, but the population route
    runs only below p = n, where a factored S has full rank, so a test
    ``v'Qv <= tol |v|^2/scale`` with tol < 1 fires only for v = 0 under
    either scale.
    """

    y_bar: np.ndarray
    reflected: np.ndarray
    p: int
    n: int
    population: PopulationSpec | None = None

    def __post_init__(self) -> None:
        if self.population is not None and not self.population.p == self.p < self.n:
            raise DimensionMismatchError("innovation statistics need p < n and a p-dimensional population")

    def _factorize(self) -> _Factorization:
        b = self.reflected
        pop = self.population
        # one syrk on either side of p = n, so the factored matrix is exactly
        # symmetric; an entry of the sample too large to square overflows it,
        # and any overflowed entry makes the trace inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            gram = b @ b.T if self.p < self.n else b.T @ b
            scale = float(np.trace(gram))
        if not np.isfinite(scale):
            raise NonFiniteDataError("sample has an entry too large to square: trace(S) overflows")
        if pop is not None:
            scale *= float(pop.eigen.values.max())
        try:
            cholesky = spd_factor(gram)
        except NotPositiveDefiniteError as exc:
            raise SingularSampleError("rank(S) < min(p, n - 1)") from exc
        white_mean = self._whiten(cholesky, self.y_bar)
        return _Factorization(cholesky, white_mean, scale)

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

    def _whiten(self, cholesky: SpdFactor, v: np.ndarray) -> np.ndarray:
        if self.p >= self.n:
            return spd_solve(cholesky, self.reflected.T @ v)
        if self.population is not None:
            v = self.population.eigen.vectors @ (self.population.whitening() @ v)
        return spd_whiten(cholesky, v)

    def whiten(self, v: np.ndarray) -> np.ndarray:
        """Coordinates w of a vector, or of matrix columns, with w_a'w_b = v_a'Q v_b."""
        return self._whiten(self.factorization.cholesky, np.asarray(v, dtype=float))

    def mean_gram(self, v: np.ndarray) -> np.ndarray:
        """Gram matrix of (y_bar, v) in the precision metric Q; only v is whitened."""
        white = np.column_stack([self.factorization.white_mean, self.whiten(v)])
        return white.T @ white

    def projected_mean(self) -> np.ndarray:
        """Projection of y_bar on the range of S (y_bar itself for p < n)."""
        white_mean = self.factorization.white_mean
        return self.y_bar if self.p < self.n else self.reflected @ white_mean


def build_covariance(recipe: EigenRecipe, p: int, rng: np.random.Generator) -> SpdEigen:
    """Eigenpairs of a random covariance: the recipe's spectrum and Haar
    eigenvectors."""
    if p < 2:
        raise DimensionMismatchError(f"p must be >= 2, got {p}")
    return SpdEigen(values=recipe.eigenvalues(p), vectors=haar_orthogonal(p, rng))


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


def _reflect(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means of a p x n matrix and its reflected sample x H[:, 1:] / sqrt(n)
    (see :class:`SampleStats`); rejects a non-finite mean."""
    if x.ndim != 2:
        raise DimensionMismatchError(f"expected a p x n matrix, got shape {x.shape}")
    n = x.shape[1]
    if n < 2:
        raise DimensionMismatchError(f"n must be >= 2, got {n}")
    # a row mean is non-finite exactly when its row holds a NaN or an inf or
    # its sum overflows, so p values check the whole sample
    with np.errstate(over="ignore", invalid="ignore"):
        x_bar = x.mean(axis=1)
    if not np.isfinite(x_bar).all():
        raise NonFiniteDataError("sample has a NaN or infinite entry, or a row whose sum overflows")
    # the sign of H that keeps sqrt(n) - 1 out of the divisor
    root_n = np.sqrt(n)
    shift = x_bar - (x_bar - x[:, 0]) / (root_n + 1.0)
    reflected = x[:, 1:] - shift[:, None]
    reflected /= root_n
    return x_bar, reflected


def sample_stats(y: np.ndarray) -> SampleStats:
    """Row means and reflected sample of a p x n matrix; the factorization
    is built on first use (see :class:`SampleStats`)."""
    y = np.asarray(y, dtype=float)
    y_bar, reflected = _reflect(y)
    p, n = y.shape
    return SampleStats(y_bar=y_bar, reflected=reflected, p=p, n=n)


def innovation_stats(pop: PopulationSpec, z: np.ndarray) -> SampleStats:
    """The statistics ``sample_stats(R @ z + pop.mu_n[:, None])`` of the
    sample mixed from the p x n innovations z by R = ``pop.sigma_sqrt()``,
    read from z without forming that sample.

    The reflection is linear and removes the mean, so the sample's mean is R
    z_bar + mu_n and its reflected sample R B_z.  For p >= n that product is
    formed and factored as :func:`sample_stats` would; for p < n the
    statistics keep B_z and factor S_z = B_z B_z' (see :class:`SampleStats`).
    """
    z = np.asarray(z, dtype=float)
    z_bar, reflected = _reflect(z)
    p, n = z.shape
    if p != pop.p:
        raise DimensionMismatchError(f"expected {pop.p} x n innovations, got {p} x {n}")
    root = pop.sigma_sqrt()
    # an entry near the largest float can overflow the mixing; an overflowed
    # B reaches its factorization, which rejects a non-finite trace(S)
    with np.errstate(over="ignore", invalid="ignore"):
        y_bar = root @ z_bar + pop.mu_n
        if p >= n:
            reflected = root @ reflected
    if not np.isfinite(y_bar).all():
        raise NonFiniteDataError("sample has an entry too large to mix: R z_bar + mu_n overflows")
    if p >= n:
        return SampleStats(y_bar=y_bar, reflected=reflected, p=p, n=n)
    return SampleStats(y_bar=y_bar, reflected=reflected, p=p, n=n, population=pop)
