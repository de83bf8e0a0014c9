"""Exception hierarchy for shrinkmean.

Every error deliberately raised by the package derives from
:class:`ShrinkmeanError` so callers (and the Monte Carlo harness, which
records estimator failures instead of aborting) can catch one base class.
:func:`reject_duplicates` is the one duplicate-entry check of the configs.
"""


class ShrinkmeanError(Exception):
    """Base class for all shrinkmean errors."""


class DimensionMismatchError(ShrinkmeanError):
    """Operand shapes are incompatible."""


class NotPositiveDefiniteError(ShrinkmeanError):
    """A matrix required to be symmetric positive definite is not."""


class InvalidRecipeError(ShrinkmeanError):
    """Eigenvalue recipe fractions do not sum to one or values are invalid."""


class UnsupportedGammaError(ShrinkmeanError):
    """Mean-vector drawing is only defined for norm-growth exponents 0 and 1."""


class DegenerateHessianError(ShrinkmeanError):
    """The 2x2 quadratic-loss Hessian is numerically singular."""


class DegenerateTargetError(ShrinkmeanError):
    """The target vector has (numerically) zero energy in the precision metric."""


class SingularSampleError(ShrinkmeanError):
    """The sample covariance matrix is not invertible although p < n."""


class EqualDimensionsError(ShrinkmeanError):
    """Bona fide weights are undefined at p == n."""


class InvalidDimensionsError(ShrinkmeanError):
    """An estimator was called outside its (p, n) validity region."""


class DegenerateDenominatorError(ShrinkmeanError):
    """A ratio denominator is zero relative to the scale of its operands."""


class UnsupportedConcentrationError(ShrinkmeanError):
    """The joint covariance of the bona fide weights requires p/n < 1."""


class MomentsDoNotExistError(ShrinkmeanError):
    """Requested distribution moments are undefined for these degrees of freedom."""


class TooFewSamplesError(ShrinkmeanError):
    """Normality diagnostics need at least 10 samples."""


class ParseError(ShrinkmeanError):
    """A text input (CSV or config) could not be parsed."""


class RaggedRowsError(ParseError):
    """CSV rows have inconsistent lengths."""


class ScopeError(ShrinkmeanError):
    """A requested quantity is outside the validity scope of its formula."""


class ConfigError(ShrinkmeanError):
    """A run configuration is invalid."""


def reject_duplicates(config: object, *names: str) -> None:
    """Raise :class:`ConfigError` when a listed tuple field of ``config``
    repeats an entry, which would run it twice and write duplicate rows."""
    for name in names:
        values = getattr(config, name)
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{name} repeats {value!r}")
