"""Simulation populations and sample statistics.

A population is an immutable value: a true mean, a target mean and a
covariance, whatever regime its means were drawn in; a sample is the p x n
matrix ``y = R z + mu 1'`` of i.i.d. standardized innovations z mixed by the
symmetric square root R = sigma^{1/2}.  :func:`sample_stats` reads the
statistics of any p x n matrix into one :class:`SampleStats` value, which
knows nothing of a population.
A population holds its covariance as its eigenpairs, sigma = Q diag(lam)
Q', the ones a simulated covariance is drawn from, so it is never
eigendecomposed and sigma itself is never formed.  The root R is formed
from them on each read, and the precision whitening W = diag(lam)^{-1/2} Q'
is applied to vectors without being formed, with R^{-1} = Q W.  W is the
population's one precision metric: the loss, the oracle and limit weights
and the asymptotic variances all read sigma^{-1} through
:meth:`PopulationSpec.whiten`, most of them through
:meth:`PopulationSpec.precision_gram`.
A Monte Carlo cell is scored in the frame :meth:`PopulationSpec.frame`
picks, a population on the standard basis, with no p x p array, whose
sigma^{-1} forms are row scalings: the whitened frame below p = n and the
eigenbasis frame at or above it.  Each frame carries its image of the
all-ones vector, the direction of Wang's estimator.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteDataError,
    NotPositiveDefiniteError,
    ShrinkmeanError,
    SingularSampleError,
)
from .linalg import SpdFactor, haar_orthogonal, spd_factor, spd_solve, spd_whiten

__all__ = [
    "EigenRecipe",
    "DEFAULT_RECIPE",
    "InnovationLaw",
    "PopulationSpec",
    "SampleStats",
    "build_covariance",
    "draw_mean_vectors",
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
            raise ConfigError("recipe needs at least one group")
        # written so that NaN fails every check, and a sum of 1 needs finite fractions
        total = sum(f for f, _ in self.proportions)
        if not abs(total - 1.0) <= 1e-9:
            raise ConfigError(f"fractions sum to {total}, expected 1")
        if any(f < 0 for f, _ in self.proportions):
            raise ConfigError("fractions must be nonnegative")
        if not all(0 < v < np.inf for _, v in self.proportions):
            raise ConfigError("eigenvalues must be positive and finite")
        if self.override_lambda_max is not None and not 0 < self.override_lambda_max < np.inf:
            raise ConfigError("override_lambda_max must be positive and finite")

    def eigenvalues(self, p: int) -> np.ndarray:
        """Expand the recipe into p eigenvalues.

        Each group gets floor(fraction * p) values; any remainder goes to
        the last group.  The product is rounded to 9 decimals before the
        floor, so a product that floating point puts just below an integer
        (0.29 * 100 = 28.999999999999996) counts as that integer.
        """
        if p < 1:
            raise DimensionMismatchError(f"need p >= 1 eigenvalues, got p = {p}")
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
            raise ConfigError(f"unknown innovation law {self.name!r}")
        if self.name == "t":
            if self.df is None or not 4 < self.df < np.inf:
                raise ConfigError("t law requires a finite df > 4")
        elif self.df is not None:
            raise ConfigError(f"law {self.name!r} takes no df parameter")

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        if self.name == "normal":
            return rng.standard_normal(shape)
        if self.name == "t":
            return rng.standard_t(self.df, shape) * np.sqrt((self.df - 2.0) / self.df)
        return rng.exponential(1.0, shape) - 1.0

    @classmethod
    def parse(cls, text: str) -> "InnovationLaw":
        """Parse ``normal``, ``t:<df>`` or ``exponential``; any other text
        is a :class:`ConfigError`."""
        text = text.strip()
        if not text.startswith("t:"):
            return cls(text)
        try:
            return cls("t", float(text[2:]))
        except ValueError as exc:  # the df text is no number
            raise ConfigError(str(exc)) from None

    def spec_string(self) -> str:
        return f"t:{self.df:g}" if self.name == "t" else self.name


@dataclass(frozen=True, eq=False)
class PopulationSpec:
    """Ground truth for one simulation scenario, an immutable value.

    The covariance is given only as its eigenpairs, sigma == vectors @
    diag(values) @ vectors.T, checked when built: p ``values`` and p x p
    ``vectors``, otherwise :class:`DimensionMismatchError`; positive, finite
    values and finite vectors, otherwise :class:`NotPositiveDefiniteError`.
    The vectors are taken to be orthogonal, as a Haar draw's are.
    ``vectors=None`` stands for the standard basis, sigma == diag(values):
    no p x p array is held, and :meth:`whiten` and :meth:`color` scale rows.
    ``ones``, Wang's direction, is the all-ones vector in this population's
    coordinates: that vector itself by default, its image in a frame.  A
    mean or ``ones`` not of length p raises :class:`DimensionMismatchError`,
    a non-finite one :class:`NonFiniteDataError`.  It carries no growth
    exponent gamma, which only chooses how :func:`draw_mean_vectors` draws
    the means.
    """

    p: int
    mu_n: np.ndarray
    mu_0: np.ndarray
    values: np.ndarray = field(repr=False)
    vectors: np.ndarray | None = field(repr=False)
    ones: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu_n", np.asarray(self.mu_n, dtype=float))
        object.__setattr__(self, "mu_0", np.asarray(self.mu_0, dtype=float))
        object.__setattr__(self, "ones", np.ones(self.p) if self.ones is None
                           else np.asarray(self.ones, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.vectors is not None:
            object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))
        means = (self.mu_n, self.mu_0, self.ones)
        if any(v.shape != (self.p,) for v in means):
            raise DimensionMismatchError("mean and direction vectors must have length p")
        if not all(np.isfinite(v).all() for v in means):
            raise NonFiniteDataError("mean and direction vectors must have finite entries")
        dense = self.vectors is not None
        if self.values.shape != (self.p,) or dense and self.vectors.shape != (self.p, self.p):
            raise DimensionMismatchError("eigenpairs must be p values and p x p vectors")
        # NaN fails the comparison, so one check rejects it with 0, -x and inf
        if not ((self.values > 0) & (self.values < np.inf)).all():
            raise NotPositiveDefiniteError("eigenvalues must be positive and finite")
        if dense and not np.isfinite(self.vectors).all():
            raise NotPositiveDefiniteError("eigenvectors must be finite")

    def sigma_sqrt(self) -> np.ndarray:
        """The symmetric square root R = Q diag(lam)^{1/2} Q' of the
        covariance, R == R.T exactly and R @ R == sigma, formed on each
        call."""
        if self.vectors is None:
            return np.diag(np.sqrt(self.values))
        root = (self.vectors * np.sqrt(self.values)) @ self.vectors.T
        return (root + root.T) / 2.0

    def whiten(self, v: np.ndarray) -> np.ndarray:
        """W v = diag(lam)^{-1/2} Q' v, for a p-vector or the columns of a
        p x m matrix v: W'W == sigma^{-1}, so (Wu)'(Wv) == u' sigma^{-1} v.  W
        is not formed: v is rotated, unless the basis is the standard one,
        and its rows are scaled."""
        u = v if self.vectors is None else self.vectors.T @ v
        return (u.T * (1.0 / np.sqrt(self.values))).T

    def color(self, z: np.ndarray) -> np.ndarray:
        """diag(lam)^{1/2} Q' z, for a p-vector or the columns of a p x m
        matrix z: the product R z with the root R, read in the eigenbasis,
        since Q' R == diag(lam)^{1/2} Q'.  No root is formed: z is rotated,
        or copied on the standard basis, and the rows of that new array are
        scaled in place."""
        u = np.array(z, dtype=float) if self.vectors is None else self.vectors.T @ z
        rows = u.T  # a view: scaling its last axis scales u's rows
        rows *= np.sqrt(self.values)
        return u

    def precision_gram(self, *vectors: np.ndarray) -> np.ndarray:
        """Gram matrix V' sigma^{-1} V of ``vectors`` (the columns of V), read
        through the whitening: (W V)'(W V)."""
        white = self.whiten(np.column_stack(vectors))
        return white.T @ white

    def whitened(self) -> "PopulationSpec":
        """This population in the coordinates x = R^{-1} y: unit eigenvalues
        on the standard basis, so no p x p array, and the images R^{-1} of
        mu_n, mu_0 and ``ones``, read as Q (W [mu_n, mu_0, ones]), so no
        root is formed.  u' sigma^{-1} v is the Euclidean product of the
        images of u and v, and a sample R z + mu_n 1' is z + R^{-1} mu_n 1'
        there."""
        white = self.whiten(np.column_stack([self.mu_n, self.mu_0, self.ones]))
        mu_n, mu_0, ones = (white if self.vectors is None else self.vectors @ white).T
        return PopulationSpec(p=self.p, mu_n=mu_n, mu_0=mu_0, ones=ones,
                              values=np.ones(self.p), vectors=None)

    def rotated(self) -> "PopulationSpec":
        """This population in the coordinates u = Q' y of its eigenbasis: the
        eigenvalues on the standard basis and the images Q' of mu_n, mu_0
        and ``ones``, so sigma^{-1} forms keep their values.  A sample R z +
        mu_n 1' is :meth:`color` of z plus Q' mu_n 1' there.  On the
        standard basis the population is its own rotation."""
        if self.vectors is None:
            return self
        mu_n, mu_0, ones = (self.vectors.T
                            @ np.column_stack([self.mu_n, self.mu_0, self.ones])).T
        return PopulationSpec(p=self.p, mu_n=mu_n, mu_0=mu_0, ones=ones,
                              values=self.values, vectors=None)

    def frame(self, n: int) -> tuple["PopulationSpec", Callable[[np.ndarray], np.ndarray]]:
        """The frame that scores samples of size n from this population, and
        the map from a sample's p x n innovations z to the frame's sample
        less its mean, frame.mu_n 1'.  A frame is a population on the
        standard basis, so its sigma^{-1} forms are row scalings.

        Below p = n it is :meth:`whitened`, A = R^{-1}, with z itself.  Only
        sample-mean, olse, js, olse-oracle and olse-asymptotic run there: the
        other four raise InvalidDimensionsError for p <= n.  Each of the five
        is equivariant under y -> A y with mu_0 -> A mu_0, for any invertible
        A: its estimate is y_bar or a combination of y_bar and mu_0 whose
        weights read only S^{-1} or sigma^{-1} quadratic forms of y_bar, mu_0
        and mu_n, which A leaves unchanged (S -> A S A', sigma -> A sigma
        A').  So its (alpha, beta) do not change, its estimate is A times the
        original, and the sigma^{-1} loss is the frame's.  At or above p = n
        S^+ and the range projector are equivariant only for orthogonal A
        (S^+ -> A S^+ A'), S being singular, so it is :meth:`rotated`, A =
        Q', with :meth:`color` and Wang's direction mapped too.  Both maps
        act on the sample y, not on z, so they are exact for every
        innovation law."""
        if self.p < n:
            return self.whitened(), lambda z: z
        return self.rotated(), self.color


@dataclass(frozen=True, eq=False)
class _Factorization:
    cholesky: SpdFactor  # of S = B B' for p < n, of G = B'B for p >= n
    white_mean: np.ndarray  # y_bar whitened, once for every estimator
    scale: float  # trace(S), at least lam_max(S)


@dataclass(frozen=True, eq=False)
class SampleStats:
    """Sufficient statistics of one p x n sample y: its row means ``y_bar``
    and its reflected sample ``reflected``, ``B = y H[:, 1:] / sqrt(n) =
    (y[:, 1:] - m 1') / sqrt(n)``, with H the Householder reflection ``H e_1
    = -1/sqrt(n)`` and ``m = y_bar - (y_bar - y_1) / (sqrt(n) + 1)``.  Then
    ``B B' = S``, the sample covariance with divisor n (the scatter matrix of
    the James-Stein family is ``n * S``), formed without the cancellation of
    y y'/n - y_bar y_bar' when the means are large against the spread.

    The one factorization every estimator shares is built on first use and
    cached, as is a failure to build it, so each estimator that needs it
    fails once and no other does.  It is one Cholesky factor of one syrk of
    the reflected sample, whose pivot floor is the rank check: S of rank
    below min(p, n - 1) raises :class:`SingularSampleError`.  For p < n it
    factors ``B B' = S = L L'`` and reads Q = S^{-1} as ``(L^{-1} u)'(L^{-1}
    v)``.  For p >= n it factors ``G = B'B``, and ``Q = S^+ = B G^{-2} B'``: v
    is whitened as ``G^{-1} B' v`` by two triangular solves (no inverse is
    formed) and projected on the range of S as ``B G^{-1} B' v``.  It whitens
    y_bar once, so each later call whitens only its one new vector.  The
    factor's ``dim`` is the rank of S.

    ``scale`` is trace(S), read from the factored Gram: it bounds lam_max(S)
    from above, so that a vector v in the range of S has ``v'Qv >=
    |v|^2/scale``.
    """

    y_bar: np.ndarray
    reflected: np.ndarray
    p: int
    n: int

    def _factorize(self) -> _Factorization:
        b = self.reflected
        # one syrk on either side of p = n, so the factored matrix is exactly
        # symmetric; an entry of the sample too large to square overflows it,
        # and any overflowed entry makes the trace inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            gram = b @ b.T if self.p < self.n else b.T @ b
            scale = float(np.trace(gram))
        if not np.isfinite(scale):
            raise NonFiniteDataError("sample has an entry too large to square: trace(S) overflows")
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


def build_covariance(
    recipe: EigenRecipe, p: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (values, vectors) of a random covariance: the recipe's
    spectrum and Haar eigenvectors."""
    if p < 2:
        raise DimensionMismatchError(f"p must be >= 2, got {p}")
    return recipe.eigenvalues(p), haar_orthogonal(p, rng)


def draw_mean_vectors(
    gamma: float, p: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (true, target) mean pair for the bounded and growing regimes.

    gamma = 0: both vectors i.i.d. uniform on [-p^{-1/2}, p^{-1/2}], drawn
    independently.  gamma = 1: true mean entries are i.i.d. random signs and
    the target is the all-ones vector.
    """
    if p < 1:
        raise DimensionMismatchError(f"need p >= 1, got p = {p}")
    if gamma == 0:
        bound = p ** (-0.5)
        mu_n = rng.uniform(-bound, bound, size=p)
        mu_0 = rng.uniform(-bound, bound, size=p)
        return mu_n, mu_0
    if gamma == 1:
        mu_n = rng.integers(0, 2, size=p) * 2.0 - 1.0
        return mu_n, np.ones(p)
    raise ConfigError(f"gamma must be 0 or 1, got {gamma}")


def sample_stats(y: np.ndarray) -> SampleStats:
    """Row means and reflected sample of a p x n matrix (see
    :class:`SampleStats`), whose factorization is built on first use;
    rejects a non-finite mean."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DimensionMismatchError(f"expected a p x n matrix, got shape {y.shape}")
    p, n = y.shape
    if p < 1 or n < 2:
        raise DimensionMismatchError(f"need p >= 1 and n >= 2, got p = {p}, n = {n}")
    # a row mean is non-finite exactly when its row holds a NaN or an inf or
    # its sum overflows, so p values check the whole sample
    with np.errstate(over="ignore", invalid="ignore"):
        y_bar = y.mean(axis=1)
    if not np.isfinite(y_bar).all():
        raise NonFiniteDataError("sample has a NaN or infinite entry, or a row whose sum overflows")
    # the sign of H that keeps sqrt(n) - 1 out of the divisor
    root_n = np.sqrt(n)
    shift = y_bar - (y_bar - y[:, 0]) / (root_n + 1.0)
    reflected = y[:, 1:] - shift[:, None]
    reflected /= root_n
    return SampleStats(y_bar=y_bar, reflected=reflected, p=p, n=n)
