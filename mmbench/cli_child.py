"""A traced ``mmlab.cli`` process.

    python3 mmbench/cli_child.py OUT [mmlab arguments...]

Times ``import mmlab.cli`` in this fresh interpreter, counts the modules it
loads, installs the span wrappers and runs ``mmlab.cli.main`` on the
remaining arguments.  The per-layer aggregates go to OUT as JSON.  With no
mmlab arguments it only measures the import.
"""

import os
import sys
import time

_before = len(sys.modules)
_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_root, "src"))
_t0 = time.perf_counter()
import mmlab.cli  # noqa: E402

_import_ms = (time.perf_counter() - _t0) * 1000.0
_modules = len(sys.modules) - _before

import json  # noqa: E402

sys.path.insert(0, os.path.join(_root, "mmbench"))
import tracing  # noqa: E402


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    rc = 0
    if args:
        tracing.install(tracer)
        rc = mmlab.cli.main(args)
    doc = {"import_ms": _import_ms, "modules_loaded": _modules,
           "layers": tracer.aggregate()}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
