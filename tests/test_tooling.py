import ast
import dataclasses
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

from mmlab.config import RunConfig

TRACING = Path(__file__).resolve().parents[1] / "mmbench" / "tracing.py"


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


SRC = Path(__file__).resolve().parents[1] / "src" / "mmlab"


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
def test_every_config_field_is_read(field):
    # no config knob that nothing reads: a setting with no reader outside
    # config.py belongs in a constant
    readers = [p.name for p in sorted(SRC.glob("*.py")) if p.name != "config.py"
               and re.search(rf"\.{field}\b", p.read_text(encoding="utf-8"))]
    assert readers, f"RunConfig.{field} is read nowhere in src/mmlab"


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
