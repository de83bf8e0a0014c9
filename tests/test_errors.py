"""The error contract: every error the package raises on purpose is a
:class:`ShrinkmeanError` of the class that names its condition."""

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

from shrinkmean.asymptotics import standardize
from shrinkmean.errors import ConfigError, NotPositiveDefiniteError, ScopeError, ShrinkmeanError
from shrinkmean.estimators import limit_weights
from shrinkmean.linalg import spd_factor
from shrinkmean.model import InnovationLaw

SRC = Path(__file__).resolve().parents[1] / "src" / "shrinkmean"

#: (module, function, class) of the raises of a built-in class the package
#: keeps: the module ``__getattr__`` protocol wants AttributeError, a
#: ``_PARSERS`` parser reports a bad value by ValueError, and
#: ``load_returns_csv`` catches its own a few lines below the raise.
ALLOWED_BUILTIN_RAISES = {
    ("__init__", "__getattr__", "AttributeError"),
    ("cli", "_parse_bool", "ValueError"),
    ("finance", "load_returns_csv", "ValueError"),
}


def _builtin_raises(tree: ast.Module):
    """(enclosing function, class) of each ``raise`` of a built-in
    exception class by name in ``tree``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
            if isinstance(cls, type) and issubclass(cls, BaseException):
                found.append((function, exc.id))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_builtin_exception_is_raised_outside_the_allowlist():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    stray = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function, name in _builtin_raises(tree):
            if (path.stem, function, name) not in ALLOWED_BUILTIN_RAISES:
                stray.append(f"{path.name}: {function}: raise {name}")
    assert not stray, "\n".join(stray)


@pytest.mark.parametrize("call, cls, match", [
    (lambda: InnovationLaw("cauchy"), ConfigError, "unknown innovation law 'cauchy'"),
    (lambda: InnovationLaw.parse("t:x"), ConfigError, "could not convert string to float: 'x'"),
    (lambda: limit_weights(np.eye(2), 0.0), ScopeError, "c must be positive and finite"),
    (lambda: spd_factor(np.array([[1.0, 0.5], [0.0, 1.0]])), NotPositiveDefiniteError,
     "not symmetric"),
    (lambda: standardize(np.ones(3), 0.0, variance=0.0, rate=1.0), ScopeError,
     "variance must be positive and finite"),
], ids=["law-name", "law-df-text", "limit-c", "asymmetric-factor", "variance"])
def test_each_condition_raises_its_class(call, cls, match):
    with pytest.raises(ShrinkmeanError, match=match) as info:
        call()
    assert info.type is cls
