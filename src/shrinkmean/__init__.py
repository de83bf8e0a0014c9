"""Optimal linear shrinkage estimation for high-dimensional mean vectors.

The estimator combines the sample mean with a fixed target vector using
data-driven weights that minimize the precision-metric quadratic loss when
both the dimension and the sample size are large.  The package also ships
the classical benchmarks (James-Stein family, unit-target shrinkage), the
limiting moments needed for normality diagnostics, a reproducible Monte
Carlo harness and a rolling-window portfolio backtester.

``shrinkmean.<name>`` resolves any name in a submodule's ``__all__`` on
first use, so importing the package loads no submodule.
"""

import importlib

from .errors import ShrinkmeanError

__version__ = "0.1.0"

# a lookup loads every module listed before its name's own.  finance and
# harness both import the four listed first, and neither imports the other:
# finance comes first, so a backtest's names load no Monte Carlo thread pool,
# while a study's names load finance too (about 0.1 MB).  asymptotics, which
# only the qq command reads, comes last, so neither kind of name loads it
_SUBMODULES = ("linalg", "model", "estimators", "tables", "finance", "harness", "asymptotics")


def __getattr__(name: str):
    # looked up on every read and never stored here, so a name read while a
    # submodule global is patched reads the original once the patch is undone
    if name in _SUBMODULES:  # ``from shrinkmean import linalg`` loads linalg alone
        return importlib.import_module(f"{__name__}.{name}")
    for sub in _SUBMODULES:
        module = importlib.import_module(f"{__name__}.{sub}")
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    names = set(globals())
    for sub in _SUBMODULES:
        names.update(importlib.import_module(f"{__name__}.{sub}").__all__)
    return sorted(names)
