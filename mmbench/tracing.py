"""Spans around mmlab's public functions, installed from outside the program.

``install`` wraps each target once and rebinds the wrapper under every name
by which an imported ``mmlab`` module holds the original, so calls made from
inside the library are seen too.  Spans are kept in memory and written out
when the run ends.  A span's self time is its duration minus the durations
of the traced spans it directly contains.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name); the span name is the metric prefix
TARGETS = (
    ("mmlab.core", "FiniteMmSpace.__post_init__", "core.FiniteMmSpace"),
    ("mmlab.core", "FiniteMmSpace.from_json", "core.FiniteMmSpace.from_json"),
    ("mmlab.transport", "displacement_interpolate_1d",
     "transport.displacement_interpolate_1d"),
    ("mmlab.transport", "PiecewiseQuantile.from_cells",
     "transport.PiecewiseQuantile.from_cells"),
    ("mmlab.transport", "w2_quantile_1d", "transport.w2_quantile_1d"),
    ("mmlab.transport", "w2_circle_quantile", "transport.w2_circle_quantile"),
    ("mmlab.transport", "w2_exact", "transport.w2_exact"),
    ("mmlab.transport", "linprog", "transport.linprog"),
    ("mmlab.transport", "prokhorov_from_distances",
     "transport.prokhorov_from_distances"),
    ("mmlab.transport", "ky_fan", "transport.ky_fan"),
    ("mmlab.transport", "discretize", "transport.discretize"),
    ("mmlab.coefficients", "tau_vals", "coefficients.tau_vals"),
    ("mmlab.coefficients", "sigma_vals", "coefficients.sigma_vals"),
    ("mmlab.curvature", "cd_check_1d", "curvature.cd_check_1d"),
    ("mmlab.curvature", "cd_rhs", "curvature.cd_rhs"),
    ("mmlab.curvature", "renyi_entropy_1d", "curvature.renyi_entropy_1d"),
    ("mmlab.curvature", "kn_convexity_check", "curvature.kn_convexity_check"),
    ("mmlab.curvature", "entropy_inequality_suite",
     "curvature.entropy_inequality_suite"),
    ("mmlab.concentration", "partial_diameter_1d",
     "concentration.partial_diameter_1d"),
    ("mmlab.concentration", "obsdiam_sandwich", "concentration.obsdiam_sandwich"),
    ("mmlab.concentration", "separation", "concentration.separation"),
    ("mmlab.experiments", "cosh_family", "experiments.cosh_family"),
    ("mmlab.experiments", "build_counterexample",
     "experiments.build_counterexample"),
    ("mmlab.experiments", "counterexample_report",
     "experiments.counterexample_report"),
    ("mmlab.reporting", "atomic_write_text", "reporting.atomic_write_text"),
    ("mmlab.cli", "main", "cli.main"),
)

LINPROG_ITERATIONS = "transport.linprog.iterations"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.counters = defaultdict(int)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        counters = self.counters
        count_nit = name == "transport.linprog"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count_nit:
                counters[LINPROG_ITERATIONS] += int(result.nit)
            return result

        return traced

    def aggregate(self) -> dict:
        """{metric name: value}: calls, inclusive ms and self ms per span
        name, plus the counters."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(int)
        own = defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - inner
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = incl[name] / 1e6
            out[f"{name}.self_ms"] = own[name] / 1e6
        out.update(self.counters)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def _rebind(orig, wrapper) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname != "mmlab" and not modname.startswith("mmlab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every target whose module is imported."""
    for modname, path, name in TARGETS:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw))
        else:
            orig = getattr(mod, attr)
            _rebind(orig, tracer.wrap(name, orig))
