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


def test_circle_cut_search_builds_no_plan(monkeypatch):
    # each cut is priced from the merge of its cell quantiles, after one
    # validation per density; a plan per cut validated both rolled
    # densities again, and was most of the benchmark's geodesic time
    import numpy as np

    from mmlab import transport

    calls = defaultdict(int)
    build = transport.MonotonePlan.build.__func__
    validate = transport.WeightedOneDimSpace.validate_density

    def counted_build(cls, *args, **kwargs):
        calls["build"] += 1
        return build(cls, *args, **kwargs)

    def counted_validate(self, rho):
        calls["validate"] += 1
        return validate(self, rho)

    monkeypatch.setattr(transport.MonotonePlan, "build",
                        classmethod(counted_build))
    monkeypatch.setattr(transport.WeightedOneDimSpace, "validate_density",
                        counted_validate)
    circle = transport.WeightedOneDimSpace.from_density(
        "circle", 4.0, 64, lambda x: 0.25 + 0.125 * np.cos(np.pi * x / 2.0))
    rho0 = circle.density
    _, cut = transport.w2_circle_quantile(circle, rho0, np.roll(rho0, 7))
    assert 0 <= cut < 64
    assert calls == {"validate": 2}


def test_circle_cut_search_neither_rolls_nor_unions(monkeypatch):
    # each cut reads a window of the doubled cell masses and the merge sorts
    # the two break arrays together; two rolled copies and a deduplicating
    # union per cut were a seventh of the search
    import numpy as np

    from mmlab import transport

    calls = defaultdict(int)
    for name in ("roll", "union1d"):
        def counted(*args, _name=name, _func=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    np.union1d(np.roll(np.arange(3), 1), [4])
    assert calls == {"roll": 1, "union1d": 1}
    calls.clear()
    circle = transport.WeightedOneDimSpace.from_density(
        "circle", 4.0, 64, lambda x: 0.25 + 0.125 * np.cos(np.pi * x / 2.0))
    rho0 = circle.density.copy()
    rho0[5:9] = 0.0
    rho0 /= rho0.sum() * circle.h
    rho1 = rho0[np.arange(64) - 7]
    _, cut = transport.w2_circle_quantile(circle, rho0, rho1)
    assert 0 <= cut < 64
    assert calls == {}


@pytest.mark.parametrize("model", ["cells", "atoms"])
def test_plan_is_one_merge_of_two_cell_quantiles(monkeypatch, model):
    # both models build their quantiles through from_cells, an atom being a
    # cell of zero length, and the plan keeps one merge of them that its
    # cost, its interpolant and its signed pieces all read
    import numpy as np

    from mmlab import transport

    calls = defaultdict(int)
    merge = transport._merge
    from_cells = transport.PiecewiseQuantile.from_cells.__func__

    def counted_merge(q0, q1):
        calls["merge"] += 1
        return merge(q0, q1)

    def counted_from_cells(cls, *args):
        calls["from_cells"] += 1
        return from_cells(cls, *args)

    monkeypatch.setattr(transport, "_merge", counted_merge)
    monkeypatch.setattr(transport.PiecewiseQuantile, "from_cells",
                        classmethod(counted_from_cells))
    space = transport.WeightedOneDimSpace.from_density(
        "segment", 4.0, 32, lambda x: 0.25 + 0.125 * np.cos(np.pi * x / 2.0))
    rho0 = space.density
    plan = transport.MonotonePlan.build(space, rho0, rho0[::-1], model=model)
    plan.sq_distance()
    plan.interpolate(0.5)
    plan.signed_pieces()
    assert calls == {"merge": 1, "from_cells": 2}


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


def test_transport_lps_share_one_solver_per_thread(monkeypatch):
    # linprog builds one _Highs per thread and passes it every later LP;
    # the benchmark's finite-lp time rests on this.  New options, here a
    # changed tolerance, build a new one
    import numpy as np

    from mmlab import transport
    from mmlab.core import FiniteMmSpace

    highs = transport._highs()
    built = []

    class CountingHighs:
        def __getattr__(self, name):
            return getattr(highs, name)

        def _Highs(self):
            built.append(1)
            return highs._Highs()

    counting = CountingHighs()
    monkeypatch.setattr(transport, "_highs", lambda: counting)
    rng = np.random.default_rng(8)

    def solve_one():
        n = int(rng.integers(1, 24))
        space = FiniteMmSpace.from_points(rng.random((n, 2)),
                                          rng.dirichlet(np.ones(n)))
        transport.w2_exact(space, rng.dirichlet(np.ones(n)),
                           rng.dirichlet(np.ones(n)))

    for _ in range(30):
        solve_one()
    assert len(built) == 1
    monkeypatch.setitem(transport._HIGHS_OPTIONS,
                        "primal_feasibility_tolerance", 1e-9)
    solve_one()
    solve_one()
    assert len(built) == 2


def test_every_private_function_has_a_caller_in_src():
    # a private function that only tests reach is a replaced path kept as
    # an oracle; the oracle belongs in tests/.  A reference by name (a call,
    # or a callback passed on) outside the function's own body counts
    defs, refs = [], defaultdict(int)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = set()
        for fn in ast.walk(tree):
            if (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.endswith("__")):
                defs.append(f"{path.stem}.{fn.name}")
                own |= {(id(n), fn.name) for n in ast.walk(fn)}
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and (id(node), name) not in own):
                refs[name] += 1
    unused = [d for d in defs if not refs[d.rpartition(".")[2]]]
    assert not unused, f"private functions with no caller in src/mmlab: {unused}"


def test_array_entry_checks_go_through_reject_entries():
    # an array check rejects its first bad entry, and names it, through
    # core._reject_entries; a hand-built argwhere or flatnonzero(~...)
    # search elsewhere is a second path to the same message
    core = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    helper = next(fn for fn in core.body if isinstance(fn, ast.FunctionDef)
                  and fn.name == "_reject_entries")
    inside = range(helper.lineno, helper.end_lineno + 1)
    found = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for k, line in enumerate(lines, 1):
            if (re.search(r"np\.argwhere\(|np\.flatnonzero\(~", line)
                    and not (path.name == "core.py" and k in inside)):
                found.append(f"{path.name}:{k}: {line.strip()}")
    assert not found, f"array checks built by hand: {found}"


def _template(node: ast.JoinedStr) -> str:
    # an f-string's text with each formatted value as {}
    return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                   for part in node.values)


def test_scalar_rule_checks_go_through_require():
    # a scalar rule raises "<name> <rule>, got <value>" through
    # core._require, and a negative-dimension rule passes InvalidDimension to
    # it; a message or an InvalidDimension built by hand elsewhere is a
    # second path to the same rejection
    core = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    helper = next(fn for fn in core.body if isinstance(fn, ast.FunctionDef)
                  and fn.name == "_require")
    inside = {id(n) for n in ast.walk(helper)}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if id(node) in inside:
                continue
            by_hand = (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "InvalidDimension"
            ) or (
                isinstance(node, ast.JoinedStr)
                and re.search(r"\bmust\b.*, got \{\}$", _template(node))
            )
            if by_hand:
                found.add(f"{path.name}:{node.lineno}")
    assert not found, f"scalar checks built by hand: {sorted(found)}"
