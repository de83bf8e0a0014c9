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

# lower layers first: a lookup loads the modules listed before its name's
# own, which that module imports anyway; asymptotics, which only the qq
# command reads, comes last, so a study's or a backtest's names load none of it
_SUBMODULES = ("linalg", "model", "estimators", "harness", "finance", "asymptotics")


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
