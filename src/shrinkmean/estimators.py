"""Mean-vector estimators.

Every estimator returns its coefficients on one basis of four p-vectors,
(y_bar, mu_0, P y_bar, 1): the sample mean, the target, its projection on
the range of the sample covariance and the all-ones vector.
:func:`evaluate` is the one place that composes an estimate from them.

The shrinkage family estimates the mean as ``alpha * y_bar + beta * mu_0``.
Its oracle, limit and bona fide weights all solve one 2x2 system, the
first-order conditions of the quadratic loss: ``gram @ (alpha, beta) = rhs``,
with ``gram`` the Gram of (y_bar, mu_0) in a precision metric and ``rhs``
its column against mu_n.  That column is known to the oracle (true
covariance and mean), taken in the limit p/n -> c, or estimated from the
sample alone (inverse sample covariance for p < n, its Moore-Penrose
pseudoinverse for p > n).  Each weight function returns ``(alpha, beta)``.

Four benchmarks are included: the (modified) James-Stein estimator for
p < n, its high-dimensional and positive-part variants for p > n, and the
unit-target shrinkage estimator of Wang et al.  The positive-part variant
has two registry entries, ``js-positive-part`` (the published (I + P) y_bar
display) and ``js-positive-part-conventional`` (the (I - P) y_bar form), so
one run can score both.

Every sample-based estimator reads the one covariance factorization that
its :class:`SampleStats` value carries (the Cholesky factor of S = BB' for
p < n, that of the reflected (n-1) x (n-1) Gram G = B'B for p > n, through
which S^+ is read), so a sample is factorized once however many estimators
run on it.  No function here solves against a covariance: the factorization
whitens y_bar once, and :meth:`SampleStats.mean_gram` or ``whiten`` whiten
one new vector per call (p > n: ``linalg.spd_solve`` against G).

The oracle and limit weights take a :class:`PopulationSpec` and read the
Gram of the mean vectors in its precision metric sigma^{-1} through
:meth:`PopulationSpec.precision_gram`: sigma is never factorized here, only
whitened by the population's eigenpairs.  The limit weights read only that
Gram G of (mu_n, mu_0) and c (:func:`limit_weights`); they are also the
centres of both weight CLTs, which :mod:`.asymptotics` reads from here.

:data:`ESTIMATORS` is the one table of estimator names that the Monte
Carlo harness and the backtester both dispatch through, and :func:`evaluate`
the one call they make.  :data:`NEEDS_POPULATION` names the entries that
read the true population, so the backtester takes only the others;
:data:`READS_TARGET` names those whose estimate depends on the target.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DimensionMismatchError,
    InvalidDimensionsError,
    NonFiniteDataError,
    ScopeError,
)
from .linalg import spd_factor  # noqa: F401  perfbench's tracer test reads it here
from .model import PopulationSpec, SampleStats

__all__ = [
    "ESTIMATORS",
    "NEEDS_POPULATION",
    "READS_TARGET",
    "evaluate",
    "oracle_intensities",
    "limit_intensities",
    "limit_weights",
    "bona_fide_intensities",
    "james_stein",
    "js_high_dim",
    "js_positive_part",
    "wang_estimator",
]

_REL_FLOOR = 1e-12  # degenerate-denominator threshold, relative to operand scale

#: An estimate's coefficients on the basis (y_bar, mu_0, P y_bar, 1).
Coefficients = tuple[float, float, float, float]


def _solve_weights(gram: np.ndarray, rhs: np.ndarray, message: str) -> tuple[float, float]:
    """Solve ``gram @ (alpha, beta) = rhs``; a :class:`DegenerateDenominatorError`
    with ``message`` when ``gram`` is singular relative to |g_yy g_00|, which
    no rescaling of y_bar or mu_0 moves."""
    (g_yy, g_y0), (_, g_00) = gram.tolist()
    r_y, r_0 = rhs.tolist()
    det = g_yy * g_00 - g_y0 * g_y0
    if abs(det) <= _REL_FLOOR * abs(g_yy * g_00):
        raise DegenerateDenominatorError(message)
    return (r_y * g_00 - g_y0 * r_0) / det, (g_yy * r_0 - g_y0 * r_y) / det


def oracle_intensities(y_bar: np.ndarray, pop: PopulationSpec) -> tuple[float, float]:
    """Loss-minimizing weights for one sample, using the true covariance.

    The system is the sigma^{-1} Gram of (y_bar, mu_0) against the right-hand
    side (y_bar' sigma^{-1} mu_n, mu_0' sigma^{-1} mu_n)."""
    gram = pop.precision_gram(np.asarray(y_bar, dtype=float), pop.mu_0, pop.mu_n)
    return _solve_weights(gram[:2, :2], gram[:2, 2],
                          "sample mean and target are collinear in the precision metric")


def limit_intensities(pop: PopulationSpec, c: float) -> tuple[float, float]:
    """Nonrandom limits of the oracle weights under p/n -> c: :func:`limit_weights`."""
    return limit_weights(pop.precision_gram(pop.mu_n, pop.mu_0), c)


def limit_weights(gram: np.ndarray, c: float) -> tuple[float, float]:
    """Limit weights from the sigma^{-1} Gram G of (mu_n, mu_0) and c.

    y_bar' sigma^{-1} y_bar tends to G_00 + c and every other entry of the
    oracle system to its G counterpart, so the system is (G + c e_0 e_0') w
    = G[:, 0]: the bona fide system below with kappa = c.  Its determinant
    is at least c mu_0' sigma^{-1} mu_0, so it rejects a target of no
    precision-metric energy, whatever the scale of mu_0.  Alpha lies in
    (0, 1) unless mu_n and mu_0 are parallel in the precision metric.
    """
    if not 0 < c < np.inf:  # a NaN c fails this too
        raise ScopeError(f"concentration c must be positive and finite, got {c}")
    gram = np.asarray(gram, dtype=float)
    return _solve_weights(gram + np.diag([c, 0.0]), gram[0],
                          "target vector has zero precision-metric energy, or lies along"
                          " mu_n at negligible c")


def _energy(quad: float, v: np.ndarray, stats: SampleStats, name: str) -> float:
    """Energy ``quad = v'Qv`` of ``name``, unless zero beside its in-range floor |v|^2/trace(S)."""
    if quad <= _REL_FLOOR * float(v @ v) / stats.factorization.scale:
        raise DegenerateDenominatorError(f"{name} lies outside the scatter range")
    return quad


def bona_fide_intensities(stats: SampleStats, mu_0: np.ndarray) -> tuple[float, float]:
    """Plug-in shrinkage weights from observable data only.

    With A the Gram of (y_bar, mu_0) in Q, the inverse sample covariance for
    p < n or its pseudoinverse S^+ for p > n (see :class:`SampleStats`), the
    system is A w = A[:, 0] - kappa e_0: kappa = p/(n-p) below p = n and
    1/(p/n - 1) above debiases y_bar'Q y_bar.  So alpha = 1 - kappa (A^{-1})_00
    and beta = -kappa (A^{-1})_10, unclipped: alpha may be negative in small
    samples.

    For p < n the raw weights are sqrt(n)-consistent for the limits of
    :func:`limit_intensities`: sqrt(n) (alpha - alpha_limit, beta -
    beta_limit) is asymptotically centered normal with the 2x2 covariance
    of :func:`shrinkmean.asymptotics.bona_fide_covariance`.  Alpha also
    carries a downward bias of order 1/n, about -0.01 at p=250, n=500:
    alpha = 1 - (p/(n-p)) / r with r the sample residual form of y_bar
    orthogonal to mu_0, and 1/r is convex (Jensen's inequality).
    """
    mu_0 = np.asarray(mu_0, dtype=float)
    p, n = stats.p, stats.n
    if p == n:
        raise InvalidDimensionsError("bona fide weights are undefined at p == n")
    if mu_0.shape != (p,):
        raise DimensionMismatchError("target vector length must equal p")
    if not np.isfinite(mu_0).all():
        raise NonFiniteDataError("target vector has a NaN or infinite entry")
    if p > n and n < 3:
        raise InvalidDimensionsError(f"the 2x2 precision Gram needs rank(S) = n - 1"
                                     f" >= 2, got p={p} n={n}")
    gram = stats.mean_gram(mu_0)
    _energy(gram[1, 1], mu_0, stats, "target vector")
    kappa = p / (n - p) if p < n else 1.0 / (p / n - 1.0)
    return _solve_weights(gram, gram[0] - [kappa, 0.0],
                          "sample mean and target are collinear in the sample precision metric")


def _js_statistic(stats: SampleStats) -> float:
    """The James-Stein family's statistic y_bar' (n S)^+ y_bar."""
    white = stats.factorization.white_mean
    return _energy(float(white @ white), stats.y_bar, stats, "sample mean") / stats.n


def james_stein(stats: SampleStats) -> Coefficients:
    """James-Stein estimator with estimated covariance, for n >= p + 4.

    Shrinks the sample mean toward zero by the factor
    ``1 - ((p-2)/(n-p-3)) / (y_bar' scatter^{-1} y_bar)``, with the
    scatter matrix ``n * s``: the coefficients (factor, 0, 0, 0).
    """
    p, n = stats.p, stats.n
    if p < 3 or n < p + 4:
        raise InvalidDimensionsError(f"requires n >= p + 4 and p >= 3, got p={p} n={n}")
    quad = _js_statistic(stats)
    return 1.0 - ((p - 2.0) / (n - p - 3.0)) / quad, 0.0, 0.0, 0.0


def js_high_dim(stats: SampleStats) -> Coefficients:
    """High-dimensional James-Stein estimator for p > n >= 3.

    Shrinks only the component of the sample mean inside the range of the
    scatter matrix ``n * s``, with coefficient a = 2(n-2)/(p-n+3) at its
    upper bound: y_bar - (a / quad) P y_bar, the coefficients
    (1, 0, -a/quad, 0).
    """
    p, n = stats.p, stats.n
    if not (p > n >= 3):
        raise InvalidDimensionsError(f"requires p > n >= 3, got p={p} n={n}")
    quad = _js_statistic(stats)
    a = 2.0 * (n - 2.0) / (p - n + 3.0)
    return 1.0, 0.0, -(a / quad), 0.0


def js_positive_part(stats: SampleStats, as_printed: bool = True) -> Coefficients:
    """Positive-part variant of the high-dimensional James-Stein estimator.

    The published display adds the in-range component to the sample mean,
    ``(I + P) y_bar``, with P the range projector; the conventional
    positive-part decomposition keeps the out-of-range component only,
    ``(I - P) y_bar``.  ``as_printed`` selects the sign of P y_bar: the
    registry entry ``js-positive-part`` is the published form (the default)
    and ``js-positive-part-conventional`` the other.  In both cases the
    clamped term ``max(0, 1 - ((n-2)/(p-n+3)) / (y_bar' scatter^+ y_bar)) *
    P y_bar`` is added: the coefficients (1, 0, +-1 + clamped, 0).
    """
    p, n = stats.p, stats.n
    if not (p > n >= 3):
        raise InvalidDimensionsError(f"requires p > n >= 3, got p={p} n={n}")
    quad = _js_statistic(stats)
    clamped = max(0.0, 1.0 - ((n - 2.0) / (p - n + 3.0)) / quad)
    return 1.0, 0.0, (1.0 if as_printed else -1.0) + clamped, 0.0


def wang_estimator(stats: SampleStats, direction: np.ndarray | None = None) -> Coefficients:
    """Unit-target shrinkage estimator of Wang et al. for p > n.

    Combines the sample mean and the all-ones direction 1 with coefficients
    z1..z4, pair sums of y_i' W y_j and 1'W y_i over the observations, with
    W = scatter^+ = S^+ / n: the coefficients ((z1 - z4)/d, 0, 0, z2 z3/d),
    d = z1 + z2 z4.  They close over the Gram (a_yy, a_y1, a_11) of
    (y_bar, 1) in Q = S^+, so only 1 is whitened here (y_bar already is).
    ``direction`` is 1 read in the sample's coordinates, None for the
    all-ones vector itself: for a sample Q'y, rotated by an orthogonal Q,
    it is Q'1, and the estimate is Q' times that of y.
    With H, B, G as in :class:`SampleStats`, H_1 = H[:, 1:], u = G^{-1}B'y_bar/sqrt(n):

    1. y = y_bar 1' + sqrt(n) B H_1', with H_1'1 = 0, H_1'H_1 = I, G^{-1}B'B = I;
    2. so the whitened observations are g = u 1' + H_1' (g_i'g_j = y_i'W y_j),
       with sum_k g_k = n u and sum_k |g_k|^2 = a_yy + n - 1;
    3. hence z1 = (a_yy - 1)/p, z2 = 1/p, z3 = a_y1/a_11 and
       z4 = (a_y1^2/a_11 - 1/(n-1))/p.

    The tests hold the literal double sums.
    """
    p, n = stats.p, stats.n
    if not (p > n >= 2):
        raise InvalidDimensionsError(f"requires p > n >= 2, got p={p} n={n}")

    ones = np.ones(p) if direction is None else np.asarray(direction, dtype=float)
    if ones.shape != (p,):
        raise DimensionMismatchError("direction length must equal p")
    gram = stats.mean_gram(ones)
    a_yy, a_y1 = float(gram[0, 0]), float(gram[0, 1])
    a_11 = _energy(float(gram[1, 1]), ones, stats, "ones vector")

    z1 = (a_yy - 1.0) / p
    z2 = 1.0 / p
    z3 = a_y1 / a_11
    z4 = (a_y1**2 / a_11 - 1.0 / (n - 1.0)) / p

    denom = z1 + z2 * z4
    scale = abs(z1) + abs(z2 * z4)
    if abs(denom) <= _REL_FLOOR * max(scale, 1e-300):
        raise DegenerateDenominatorError("shrinkage coefficient denominator vanishes")
    return (z1 - z4) / denom, 0.0, 0.0, z2 * z3 / denom


#: Every estimator by name, each a function of ``(stats, mu_0, pop)`` with
#: ``pop`` the population the sample was drawn from (None in a backtest) and,
#: when given, ``mu_0`` its target and ``pop.ones`` Wang's direction.  Each
#: returns its :data:`Coefficients` on (y_bar, mu_0, P y_bar, 1); the
#: target-free ones ignore mu_0.  The lambdas look the estimators up when
#: called, so rebinding a module name (as a tracer does) reaches every caller.
ESTIMATORS = {
    "sample-mean": lambda stats, mu_0, pop: (1.0, 0.0, 0.0, 0.0),
    "olse": lambda stats, mu_0, pop: (*bona_fide_intensities(stats, mu_0), 0.0, 0.0),
    "js": lambda stats, mu_0, pop: james_stein(stats),
    "js-high-dim": lambda stats, mu_0, pop: js_high_dim(stats),
    "js-positive-part": lambda stats, mu_0, pop: js_positive_part(stats, as_printed=True),
    "js-positive-part-conventional":
        lambda stats, mu_0, pop: js_positive_part(stats, as_printed=False),
    "wang": lambda stats, mu_0, pop: wang_estimator(stats, None if pop is None else pop.ones),
    "olse-asymptotic":
        lambda stats, mu_0, pop: (*limit_intensities(pop, stats.p / stats.n), 0.0, 0.0),
    "olse-oracle": lambda stats, mu_0, pop: (*oracle_intensities(stats.y_bar, pop), 0.0, 0.0),
}

#: The entries of :data:`ESTIMATORS` that need the true population.
NEEDS_POPULATION = frozenset({"olse-asymptotic", "olse-oracle"})

#: The entries of :data:`ESTIMATORS` outside :data:`NEEDS_POPULATION` that
#: read mu_0; every other such entry gives one estimate whatever the target.
READS_TARGET = frozenset({"olse"})


def evaluate(name: str, stats: SampleStats, mu_0: np.ndarray,
             pop: PopulationSpec | None = None) -> tuple[np.ndarray, Coefficients]:
    """The estimate of ``ESTIMATORS[name]`` on one sample and its coefficients
    on (y_bar, mu_0, P y_bar, 1), with 1 read as ``pop.ones`` when given.  The
    y_bar term comes first, then each later term whose coefficient is
    nonzero, in that order, so no basis vector is built that is not used."""
    coefficients = ESTIMATORS[name](stats, mu_0, pop)
    c_y, c_0, c_p, c_1 = coefficients
    estimate = c_y * stats.y_bar
    if c_0:
        estimate += c_0 * np.asarray(mu_0, dtype=float)
    if c_p:
        estimate += c_p * stats.projected_mean()
    if c_1:
        estimate += c_1 * (np.ones(stats.p) if pop is None else pop.ones)
    return estimate, coefficients
