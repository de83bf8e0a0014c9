"""Exception hierarchy for shrinkmean: one class per failure condition.

Every error deliberately raised by the package derives from
:class:`ShrinkmeanError` so callers (and the Monte Carlo harness, which
records estimator failures instead of aborting) can catch one base class.
The command line prints each as one ``error:`` line and exits 2 for a
:class:`ConfigError`, :class:`ParseError` or :class:`ScopeError`, and 3 for
every other :class:`ShrinkmeanError`.
:func:`reject_duplicates` is the one duplicate-entry check of the configs.
"""


class ShrinkmeanError(Exception):
    """Base class for all shrinkmean errors."""


class DimensionMismatchError(ShrinkmeanError):
    """Operand shapes are incompatible, or a size is below its minimum."""


class NotPositiveDefiniteError(ShrinkmeanError):
    """A matrix required to be symmetric positive definite is not."""


class NonFiniteDataError(ShrinkmeanError):
    """A sample holds a NaN or infinite entry, or a row whose sum overflows."""


class SingularSampleError(ShrinkmeanError):
    """The sample covariance has rank below min(p, n - 1), on either side of p = n."""


class InvalidDimensionsError(ShrinkmeanError):
    """An estimator was called outside its (p, n) validity region, p = n included."""


class DegenerateDenominatorError(ShrinkmeanError):
    """A ratio denominator or a 2x2 weight system is singular relative to its entries."""


class TooFewSamplesError(ShrinkmeanError):
    """Normality diagnostics got fewer than 10 samples, as when failed
    replications leave too few; a requested replication count below 10 is
    a :class:`ConfigError` instead."""


class ParseError(ShrinkmeanError):
    """A returns CSV could not be read or parsed."""


class RaggedRowsError(ParseError):
    """CSV rows have inconsistent lengths."""


class ScopeError(ShrinkmeanError):
    """A c or a variance lies outside the range on which its formula is defined."""


class ConfigError(ShrinkmeanError):
    """A setting is invalid: a run config, recipe, innovation law, gamma or config file."""


def reject_duplicates(config: object, *names: str) -> None:
    """Raise :class:`ConfigError` when a listed tuple field of ``config``
    repeats an entry, which would run it twice and write duplicate rows."""
    for name in names:
        values = getattr(config, name)
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{name} repeats {value!r}")
