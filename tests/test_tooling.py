import ast
import dataclasses
import importlib
import importlib.util
import re
import types
from collections import defaultdict
from pathlib import Path

import pytest

from mmlab.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "mmbench" / "tracing.py"


def _load_targets():
    # tracing.py imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("mmbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("modname, path, span", TARGETS,
                         ids=[span for _, _, span in TARGETS])
def test_trace_target_resolves(modname, path, span):
    # the benchmark's traced run wraps each target by this path; a rename or
    # deletion in mmlab would otherwise surface only there
    mod = importlib.import_module(modname)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        raw = getattr(mod, owner_name).__dict__[attr]
        if attr.startswith("from_"):
            assert isinstance(raw, classmethod)
            raw = raw.__func__
    else:
        raw = getattr(mod, attr)
    assert isinstance(raw, types.FunctionType)


SRC = ROOT / "src" / "mmlab"


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
def test_every_config_field_is_read(field):
    # no config knob that nothing reads: a setting with no reader outside
    # config.py belongs in a constant
    readers = [p.name for p in sorted(SRC.glob("*.py")) if p.name != "config.py"
               and re.search(rf"\.{field}\b", p.read_text(encoding="utf-8"))]
    assert readers, f"RunConfig.{field} is read nowhere in src/mmlab"


def _defaulted_parameters(tree):
    """(function name, parameter, index among a call's positional arguments,
    or None for a keyword-only one) for each defaulted parameter of a
    module-level function or a method; ``__init__`` goes by its class."""
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for scope in scopes:
        method = isinstance(scope, ast.ClassDef)
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = scope.name if method and fn.name == "__init__" else fn.name
            # a method's self or cls is bound, not passed
            bound = method and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list)
            args = fn.args.posonlyargs + fn.args.args
            for i in range(len(args) - len(fn.args.defaults), len(args)):
                yield name, args[i].arg, i - bound
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def _calls_by_name():
    """Every call in src/, tests/ and mmbench/, keyed by the called name."""
    calls = defaultdict(list)
    for top in ("src", "tests", "mmbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls[name].append(node)
    return calls


def _sets(call, param, index) -> bool:
    # a **mapping or *sequence argument may set anything
    return (any(k.arg in (None, param) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and len(call.args) > index))


def test_every_default_is_set_by_some_call():
    # the function-level twin of test_every_config_field_is_read: a
    # defaulted parameter that no call sets, by keyword or by position, has
    # one value and belongs in a constant.  Calls match by name alone, so
    # a parameter set only through a callback or a partial needs a call
    # spelled out somewhere
    calls = _calls_by_name()
    unset = [f"{path.stem}.{fn}({param})"
             for path in sorted(SRC.glob("*.py"))
             for fn, param, index in _defaulted_parameters(
                 ast.parse(path.read_text(encoding="utf-8")))
             if not any(_sets(call, param, index) for call in calls[fn])]
    assert not unset, f"no call sets the defaulted parameters {unset}"


MODULES = [f"mmlab.{p.stem}" for p in sorted(SRC.glob("*.py"))
           if p.stem != "__init__"]


@pytest.mark.parametrize("modname", MODULES)
def test_module_exports_resolve(modname):
    # a deletion must take its name out of __all__ too
    mod = importlib.import_module(modname)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{modname}.__all__ names undefined {missing}"


def test_package_imports_resolve():
    import mmlab
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source = importlib.import_module(f"mmlab.{node.module}")
            for alias in node.names:
                assert getattr(mmlab, alias.name) is getattr(source, alias.name)


@pytest.mark.parametrize("variant, counted", [("CD", "tau_vals"),
                                              ("CDstar", "sigma_vals")])
def test_cd_check_makes_one_coefficient_call_per_nprime(monkeypatch, variant,
                                                        counted):
    # the grid evaluator computes each N' row's coefficients in one call over
    # the whole t grid, and reads the Gauss rule from a constant; the
    # benchmark's traced tau_vals count rests on this
    import numpy as np

    from mmlab import coefficients, curvature
    from mmlab.experiments import cosh_family, smooth_density_pairs
    from mmlab.transport import WeightedOneDimSpace

    calls = defaultdict(int)
    for name in ("tau_vals", "sigma_vals"):
        def wrapper(*args, _name=name, _fn=getattr(coefficients, name)):
            calls[_name] += 1
            return _fn(*args)
        for mod in (coefficients, curvature):
            monkeypatch.setattr(mod, name, wrapper)

    def no_leggauss(order):
        raise AssertionError("leggauss called inside cd_check_1d")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_leggauss)
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 512)
    rho0, rho1 = smooth_density_pairs(space, 1, seed=4)[0]
    circle = WeightedOneDimSpace.from_density(
        "circle", 4.0, 256, lambda x: np.full_like(x, 0.25))
    arc0, arc1 = (r / (r.sum() * circle.h) for r in (rho0[::2], rho1[1::2]))
    for args, kwargs in (((space, rho0, rho1, 1.0, -1.0), {}),
                         ((circle, arc0, arc1, -0.5, -2.0), {"cut": 5})):
        calls.clear()
        rep = curvature.cd_check_1d(*args, variant=variant, **kwargs)
        assert len(rep.t_grid) == curvature.T_GRID_SIZE
        assert calls[counted] == len(rep.nprime_grid) == 4
        if variant == "CDstar":
            assert calls["tau_vals"] == 0


def test_obsdiam_sandwich_scores_witnesses_without_the_1d_entry(monkeypatch):
    # every witness goes through the row kernel in blocks; a per-witness
    # partial_diameter_1d call would bring back the loop, and the
    # benchmark's traced partial_diameter_1d count rests on this
    import numpy as np

    from mmlab import concentration
    from mmlab.core import FiniteMmSpace

    def no_1d(*args):
        raise AssertionError("partial_diameter_1d called inside obsdiam_sandwich")

    monkeypatch.setattr(concentration, "partial_diameter_1d", no_1d)
    rng = np.random.default_rng(3)
    space = FiniteMmSpace.from_points(rng.random((40, 2)),
                                      rng.dirichlet(np.ones(40)))
    sw = concentration.obsdiam_sandwich(space, space.weights, 0.2)
    assert 0.0 < sw.lower <= sw.upper
