"""One benchmark process: set up a workload, then run its operations.

Started by ``run.py`` with a clean environment.  It prints ``READY`` when
set-up (imports, input generation, one warm-up operation) is done, then runs
operations in a closed loop (each starts when the previous one ends).  It
writes timings to OUT and each operation's outputs, as one JSON line, to
OUT with the suffix ``.outputs.jsonl``.  Outputs are checked by the parent,
which never imports mmlab.

    python3 mmbench/worker.py WORKLOAD SEED MODE ARG OUT [--trace]

MODE ``time`` runs operations while one more of the mean length still ends
within ARG seconds (at least one); ``count`` runs exactly ARG operations.
After each operation (for ``cli``, each command), and once before the
first, it times reference slices (``hostspeed.py``) for a tenth of the time
just spent, outside the operation's time, so the parent can read every time
at the reference host speed.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import inputs  # noqa: E402


def _import_mmlab():
    sys.path.insert(0, str(ROOT / "src"))
    import mmlab
    where = Path(mmlab.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(f"mmlab imported from {where}, not from {ROOT / 'src'}")
    return mmlab


def nprime_grid(N: float) -> list:
    """N' in {N, N/2, N/4}.  The default grid also holds N' = -0.1, where
    rounding of the endpoint entropies exceeds the default budget on some
    seeds (recorded as a FOUND line in CHANGES.md)."""
    return [N, N / 2.0, N / 4.0]


def _arr(x):
    return [float(v) for v in x]


# ---------------------------------------------------------------------------
# workloads: setup() builds program objects, op(k) runs bundle k % POOL and
# returns raw results; export() turns them into JSON after timing


class Workload:
    def warm_up(self):
        """Pay lazy imports and first-call costs before timing."""
        self.export(self.op(0))

    def take_slices(self) -> list:
        """Reference slices timed inside the last operation, if any."""
        return []


class Geodesic(Workload):
    def __init__(self, seed: int):
        self.mm = _import_mmlab()
        self.inp = inputs.geodesic(seed)

    def setup(self):
        mm = self.mm
        self.spaces = [mm.cosh_family(s["spec"]["K"], s["spec"]["N"],
                                      s["spec"]["lam"], s["spec"]["L"],
                                      s["spec"]["m"])
                       for s in self.inp["spaces"]]
        self.circles = [
            mm.WeightedOneDimSpace.from_density(
                "circle", c["length"], c["m"],
                lambda x, c=c: x * 0.0 + 1.0 / c["length"])
            for c in self.inp["circles"]]

    def op(self, k: int):
        mm = self.mm
        i = k % inputs.POOL
        res = []
        for space, item in zip(self.spaces, self.inp["spaces"]):
            spec, pair = item["spec"], item["pairs"][i]
            rep = mm.cd_check_1d(space, pair["rho0"], pair["rho1"],
                                 spec["K"], spec["N"],
                                 nprime_grid=nprime_grid(spec["N"]))
            rho_t = mm.displacement_interpolate_1d(space, pair["rho0"],
                                                   pair["rho1"], pair["t"])
            w2 = mm.w2_quantile_1d(space, pair["rho0"], pair["rho1"]).value
            res.append((rep, rho_t, w2))
        c = self.inp["circles"][i]
        value, cut = mm.w2_circle_quantile(self.circles[i], c["rho0"], c["rho1"])
        crep = mm.cd_check_1d(self.circles[i], c["rho0"], c["rho1"],
                              c["K"], c["N"], nprime_grid=nprime_grid(c["N"]),
                              cut=cut)
        return i, res, (value, cut, crep)

    @staticmethod
    def export(raw):
        i, res, (value, cut, crep) = raw
        return {"i": i,
                "spaces": [{"verdict": bool(rep.verdict),
                            "cells": [[c.t, c.nprime, c.lhs, c.rhs, c.rel_margin]
                                      for c in rep.cells],
                            "rho_t": _arr(rho_t), "w2": float(w2)}
                           for rep, rho_t, w2 in res],
                "circle": {"value": float(value), "cut": int(cut),
                           "verdict": bool(crep.verdict),
                           "report_cut": crep.cut}}


class Concentration(Workload):
    def __init__(self, seed: int):
        self.mm = _import_mmlab()
        self.inp = inputs.concentration(seed)

    def setup(self):
        c = self.inp["collapse"]
        self.collapse = self.mm.CounterexampleParams(
            K=c["K"], N=c["N"], n_list=tuple(c["n_list"]), m=c["m"],
            eps=c["eps"])

    def op(self, k: int):
        mm = self.mm
        i = k % inputs.POOL
        res = []
        for item in self.inp["bundles"][i]:
            s = item["spec"]
            space = mm.cosh_family(s["K"], s["N"], s["lam"], s["L"], s["m"])
            fin = mm.discretize(space)
            sep = mm.separation(fin, fin.weights, item["k0"], item["k1"])
            sw = mm.obsdiam_sandwich(fin, fin.weights, item["kappa"])
            pd = mm.partial_diameter(fin, fin.weights, 1.0 - item["kappa"])
            res.append((fin.weights, sep, sw, pd))
        rep = mm.counterexample_report(self.collapse)
        return i, res, rep

    @staticmethod
    def export(raw):
        i, res, rep = raw
        return {"i": i,
                "spaces": [{"weights": _arr(w), "sep": float(sep.value),
                            "sep_exact": bool(sep.exact),
                            "lower": float(sw.lower), "upper": float(sw.upper),
                            "upper_exact": bool(sw.upper_exact),
                            "pd": float(pd.value), "pd_exact": bool(pd.exact)}
                           for w, sep, sw, pd in res],
                "collapse": {"n": [int(v) for v in rep.column("n")],
                             "a_n": _arr(rep.column("a_n")),
                             "prokhorov": _arr(rep.column("prokhorov"))}}


class FiniteLp(Workload):
    def __init__(self, seed: int):
        self.mm = _import_mmlab()
        self.inp = inputs.finite_lp(seed)

    def setup(self):
        self.texts = [[inputs.space_json(s) for s in bundle]
                      for bundle in self.inp["bundles"]]

    def op(self, k: int):
        mm = self.mm
        i = k % inputs.POOL
        res = []
        for s, text in zip(self.inp["bundles"][i], self.texts[i]):
            space = mm.FiniteMmSpace.from_json(text)
            mu, nu, lam = s["mu"], s["nu"], s["lam"]
            w2 = [mm.w2_exact(space, a, b).value
                  for a, b in ((mu, nu), (nu, mu), (mu, lam), (nu, lam))]
            pk = mm.prokhorov(space, mu, nu)
            kf = mm.ky_fan(space.weights, s["f"], s["g"])
            suite = None
            if s["n"] <= inputs.SUITE_MAX_N:
                suite = mm.entropy_inequality_suite(
                    space, inputs.SUITE_TRIALS, seed=s["suite_seed"])
            res.append((w2, pk, kf, suite))
        return i, res

    @staticmethod
    def export(raw):
        i, res = raw
        return {"i": i,
                "spaces": [{"w2": [float(v) for v in w2], "prokhorov": float(pk),
                            "kyfan": float(kf),
                            "suite": None if suite is None else {
                                "passes": dict(suite.passes),
                                "failures": len(suite.failures),
                                "trials": suite.trials}}
                           for w2, pk, kf, suite in res]}


class Cli(Workload):
    """Fresh ``python -m mmlab.cli`` processes, one after another."""

    def __init__(self, seed: int, scratch: Path, traced: bool):
        self.inp = inputs.cli(seed)
        self.scratch = scratch
        self.trace_dir = scratch / "cli-trace" if traced else None
        self.children = 0
        self.slices = []

    def setup(self):
        d = self.scratch
        d.mkdir(parents=True, exist_ok=True)
        if self.trace_dir is not None:
            self.trace_dir.mkdir(exist_ok=True)
        inp = self.inp
        sp = inp["space"]

        def put(name, doc):
            (d / name).write_text(json.dumps(doc), encoding="utf-8")

        (d / "space.json").write_text(inputs.space_json(sp), encoding="utf-8")
        put("mu.json", {"weights": sp["mu"].tolist()})
        put("nu.json", {"weights": sp["nu"].tolist()})
        put("emu.json", {"weights": inp["entropy"]["mu"].tolist()})
        put("enu.json", {"weights": inp["entropy"]["nu"].tolist()})
        put("kw.json", {"weights": inp["kyfan"]["weights"].tolist()})
        put("kf.json", {"values": inp["kyfan"]["f"].tolist()})
        put("kg.json", {"values": inp["kyfan"]["g"].tolist()})
        put("conv.json", {"values": inp["convexity"]["f"].tolist()})
        cv, sh, cx, lm = (inp["convexity"], inp["sinh"], inp["collapse"],
                          inp["lemma"])
        self.commands = [
            ["entropy", "--mu", "emu.json", "--nu", "enu.json",
             "--nprime", repr(inp["entropy"]["nprime"])],
            ["kyfan", "--weights", "kw.json", "--f", "kf.json", "--g", "kg.json"],
            ["w2", "--space", "space.json", "--mu", "mu.json", "--nu", "nu.json"],
            ["prokhorov", "--space", "space.json", "--mu", "mu.json",
             "--nu", "nu.json"],
            ["convexity", "--f", "conv.json", "--K", repr(cv["K"]),
             "--N", repr(cv["N"]), "--h", repr(cv["h"])],
            ["sinh-example", "--K", repr(sh["K"]), "--N", repr(sh["N"])],
            ["counterexample", "--K", repr(cx["K"]), "--N", repr(cx["N"]),
             "--n-list", ",".join(str(n) for n in cx["n_list"]),
             "--M", str(cx["m"]), "--eps", repr(cx["eps"])],
            ["lemma-suite", "--n", str(lm["n"]), "--trials", str(lm["trials"]),
             "--seed", str(lm["seed"])],
        ]

    def warm_up(self):
        """One call warms the page cache; each operation starts fresh
        interpreters, so nothing else carries over."""
        self._call(self.commands[0], "warm")

    def _call(self, cmd, outdir: str) -> None:
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "mmlab.cli"]
        else:
            self.children += 1
            argv = [sys.executable, str(BENCH / "cli_child.py"),
                    str(self.trace_dir / f"{self.children}.json")]
        res = subprocess.run(argv + cmd + ["--out", outdir], cwd=self.scratch,
                             stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"mmlab {' '.join(cmd)} exited {res.returncode}: "
                               f"{res.stderr.decode(errors='replace').strip()}")

    def op(self, k: int):
        """Reference slices follow every command, not only the bundle: a
        bundle is eight interpreters and seconds long, and the host's speed
        can change within it."""
        outdir = f"op{k}"
        for cmd in self.commands:
            t0 = time.perf_counter()
            self._call(cmd, outdir)
            self.slices += hostspeed.slices_for(time.perf_counter() - t0)
        return outdir

    def take_slices(self) -> list:
        got, self.slices = self.slices, []
        return got

    def export(self, outdir):
        return {"files": {p.name: p.read_text(encoding="utf-8")
                          for p in sorted((self.scratch / outdir).iterdir())}}

    def child_traces(self) -> list:
        if self.trace_dir is None:
            return []
        return [json.loads(p.read_text(encoding="utf-8"))
                for p in sorted(self.trace_dir.glob("*.json"))]


def make(workload: str, seed: int, scratch: Path, traced: bool):
    if workload == "cli":
        return Cli(seed, scratch, traced)
    return {"geodesic": Geodesic, "concentration": Concentration,
            "finite-lp": FiniteLp}[workload](seed)


def main(argv) -> int:
    workload, seed, mode, arg, out = argv[:5]
    traced = "--trace" in argv[5:]
    seed = int(seed)
    scratch = Path(out).parent / f"{workload}-scratch"
    w = make(workload, seed, scratch, traced)
    tracer = None
    if traced and workload != "cli":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    w.setup()
    try:
        w.warm_up()
    except Exception as e:  # the timed operations fail the same way
        sys.stderr.write(f"warm-up failed: {type(e).__name__}: {e}\n")
    print("READY", flush=True)

    budget = float(arg)
    durations, failed = [], 0
    calib = hostspeed.slices_for(1.0)
    # outputs go to disk as each operation ends, so memory does not grow
    # with the number of operations a run completes
    with open(Path(out).with_suffix(".outputs.jsonl"), "w",
              encoding="utf-8") as sink:
        start = time.perf_counter()
        k = 0
        while True:
            t0 = time.perf_counter()
            try:
                raw = w.op(k)
            except Exception as e:  # counted as a failed operation
                sys.stderr.write(f"operation {k} failed: "
                                 f"{type(e).__name__}: {e}\n")
                raw = None
                failed += 1
            inner = w.take_slices()
            durations.append(time.perf_counter() - t0 - sum(inner))
            sink.write(json.dumps(None if raw is None else w.export(raw)) + "\n")
            raw = None
            calib += inner or hostspeed.slices_for(durations[-1])
            k += 1
            if mode == "count":
                if k >= int(budget):
                    break
            elif (time.perf_counter() - start) * (k + 1) / k > budget:
                break  # one more operation of the mean length would overrun

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    doc = {"durations": durations, "calib": calib, "attempted": k,
           "failed": failed,
           "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    if tracer is not None:
        doc["layers"] = tracer.aggregate()
        tracer.dump(Path(out).with_suffix(".spans.jsonl"))
    elif workload == "cli" and traced:
        doc["children"] = w.child_traces()
    Path(out).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
