"""Per-function timing of a package, measured from outside it.

``Tracer`` replaces every module-global binding of each listed function,
in the package and all its loaded submodules, with one timing wrapper,
and puts the original objects back on exit. Rebinding every name matters
because modules import functions by name (``from .linalg import
pseudo_inverse``), so patching only the defining module would miss calls.

For each function the tracer counts calls, exceptions raised (``fail``)
and self time: the call's duration minus the time spent in wrapped
functions it called. A listed function that does not exist is reported in
``absent`` instead of failing the run, so the tracer keeps working when
later code renames or removes a layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    fail: int = 0


class Tracer:
    """Context manager that times the listed functions of ``package``.

    ``layers`` maps a submodule name (``"linalg"``) to the function names
    defined there. ``dim3_keys`` names functions whose first argument is a
    matrix; for a square one of size d, d**3 is added to ``dim3``.
    ``clock`` is replaceable so tests can drive time by hand.
    """

    def __init__(
        self,
        layers: dict[str, tuple[str, ...]],
        package: str = "shrinkmean",
        dim3_keys: tuple[str, ...] = (),
        clock=time.perf_counter,
    ):
        self.layers = layers
        self.package = package
        self.dim3_keys = frozenset(dim3_keys)
        self.clock = clock
        self.stats = {
            f"{mod}.{fn}": LayerStats() for mod, fns in layers.items() for fn in fns
        }
        self.absent: list[str] = []
        self.dim3 = 0
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()

    def reset(self) -> None:
        for key in self.stats:
            self.stats[key] = LayerStats()
        self.dim3 = 0

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _install(self) -> None:
        self.absent = []
        wrappers: dict[int, tuple[object, object]] = {}
        for mod_name, fns in self.layers.items():
            try:
                module = importlib.import_module(f"{self.package}.{mod_name}")
            except ImportError:
                module = None
            for fn in fns:
                key = f"{mod_name}.{fn}"
                original = getattr(module, fn, None)
                if not callable(original):
                    self.absent.append(key)
                    continue
                wrappers[id(original)] = (original, self._wrap(key, original))

        prefix = self.package + "."
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def _restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record_dim3(self, args, kwargs) -> None:
        matrix = args[0] if args else next(iter(kwargs.values()), None)
        shape = getattr(matrix, "shape", ())
        if len(shape) == 2 and shape[0] == shape[1]:
            self.dim3 += int(shape[0]) ** 3

    def _wrap(self, key: str, fn):
        clock = self.clock
        record_dim3 = key in self.dim3_keys

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record_dim3:
                self._record_dim3(args, kwargs)
            stack = self._stack()
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.stats[key].fail += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats = self.stats[key]
                stats.calls += 1
                stats.self_s += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper
