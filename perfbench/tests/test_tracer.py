"""Tracer: self time of nested calls, fail counts, restoration, absence."""

import importlib
import sys
import textwrap

import numpy as np
import pytest

from tracer import Tracer

PACKAGE = "tracer_fixture_pkg"

CORE = '''
CLOCK = [0.0]


def tick(dt):
    CLOCK[0] += dt


def inner(dt=2.0):
    tick(dt)
    return "inner"


def outer():
    tick(1.0)
    inner()
    tick(3.0)
    return "outer"


def boom():
    tick(5.0)
    raise RuntimeError("boom")


def calls_boom():
    tick(1.0)
    try:
        boom()
    except RuntimeError:
        pass
    tick(1.0)


def factor(a):
    tick(1.0)
'''

USER = '''
from .core import inner


def use_inner():
    return inner(4.0)
'''


@pytest.fixture
def pkg(tmp_path, monkeypatch):
    root = tmp_path / PACKAGE
    root.mkdir()
    (root / "__init__.py").write_text("from .core import inner, outer\n")
    (root / "core.py").write_text(textwrap.dedent(CORE))
    (root / "user.py").write_text(textwrap.dedent(USER))
    monkeypatch.syspath_prepend(str(tmp_path))
    package = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.user")
    yield package
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def make_tracer(pkg, layers=None, **kwargs):
    core = sys.modules[f"{PACKAGE}.core"]
    layers = layers or {"core": ("inner", "outer", "boom", "calls_boom", "factor")}
    return Tracer(layers, package=PACKAGE, clock=lambda: core.CLOCK[0], **kwargs)


def test_self_time_excludes_wrapped_children(pkg):
    core = sys.modules[f"{PACKAGE}.core"]
    with make_tracer(pkg) as tracer:
        assert core.outer() == "outer"
    outer, inner = tracer.stats["core.outer"], tracer.stats["core.inner"]
    assert (outer.calls, outer.self_s, outer.fail) == (1, 4.0, 0)
    assert (inner.calls, inner.self_s, inner.fail) == (1, 2.0, 0)


def test_every_module_binding_is_wrapped(pkg):
    user = sys.modules[f"{PACKAGE}.user"]
    with make_tracer(pkg) as tracer:
        user.use_inner()
        pkg.inner(1.0)
    inner = tracer.stats["core.inner"]
    assert (inner.calls, inner.self_s) == (2, 5.0)


def test_bindings_restored_after_exit(pkg):
    core = sys.modules[f"{PACKAGE}.core"]
    user = sys.modules[f"{PACKAGE}.user"]
    original = core.inner
    with make_tracer(pkg):
        assert core.inner is not original
        assert user.inner is core.inner is pkg.inner
    assert core.inner is original and user.inner is original and pkg.inner is original


def test_fail_counted_and_bindings_restored_when_call_raises(pkg):
    core = sys.modules[f"{PACKAGE}.core"]
    original = core.boom
    tracer = make_tracer(pkg)
    with pytest.raises(RuntimeError, match="boom"):
        with tracer:
            core.boom()
    boom = tracer.stats["core.boom"]
    assert (boom.calls, boom.self_s, boom.fail) == (1, 5.0, 1)
    assert core.boom is original


def test_caught_failure_of_a_child(pkg):
    core = sys.modules[f"{PACKAGE}.core"]
    with make_tracer(pkg) as tracer:
        core.calls_boom()
    parent, child = tracer.stats["core.calls_boom"], tracer.stats["core.boom"]
    assert (parent.calls, parent.self_s, parent.fail) == (1, 2.0, 0)
    assert (child.calls, child.self_s, child.fail) == (1, 5.0, 1)


def test_absent_functions_are_reported_not_fatal(pkg):
    core = sys.modules[f"{PACKAGE}.core"]
    layers = {"core": ("inner", "renamed_away"), "deleted_module": ("anything",)}
    with make_tracer(pkg, layers) as tracer:
        core.inner()
    assert tracer.absent == ["core.renamed_away", "deleted_module.anything"]
    assert tracer.stats["core.inner"].calls == 1
    assert tracer.stats["core.renamed_away"].calls == 0


def test_dim3_counts_square_matrix_arguments(pkg):
    core = sys.modules[f"{PACKAGE}.core"]
    with make_tracer(pkg, dim3_keys=("core.factor",)) as tracer:
        core.factor(np.zeros((3, 3)))
        core.factor(a=np.zeros((2, 2)))
        core.factor(np.zeros((2, 3)))
    assert tracer.dim3 == 27 + 8
    tracer.reset()
    assert tracer.dim3 == 0 and tracer.stats["core.factor"].calls == 0


def test_traces_calls_made_through_shrinkmean_imports():
    import shrinkmean
    from shrinkmean import estimators, linalg, model

    y = np.random.default_rng(1).standard_normal((5, 20))
    original = linalg.spd_factor
    with Tracer({"linalg": ("spd_factor", "pseudo_inverse")}) as tracer:
        estimators.bona_fide_intensities(model.sample_stats(y), np.ones(5))
        shrinkmean.spd_factor(np.eye(3))
    assert tracer.stats["linalg.spd_factor"].calls == 2
    assert tracer.stats["linalg.pseudo_inverse"].calls == 0
    assert estimators.spd_factor is original and shrinkmean.spd_factor is original
