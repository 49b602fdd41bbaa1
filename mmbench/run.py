"""mm-lab benchmark: run one workload from a seed, check it, print metrics.

    python3 mmbench/run.py --workload geodesic --seed 0 --seconds 18 --trace 0

Run from the root of a source checkout (the directory holding ``src/mmlab``
and ``BENCHMARK.json``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics.  Three fresh worker processes
run one after another; each sets up, then runs operations in a closed loop
for a third of ``--seconds``.  ``setup_s`` is the median of their three
times from spawn to the end of the warm-up.  Every time is read at the
reference host speed: it is scaled by ``hostspeed.factor`` of all the
reference slices timed in the run, by this process before each spawn and by
the workers between operations.  The line above the JSON gives the wall
times as measured and the factor.

``--trace 1`` gives the per-layer metrics.  A fixed number of operations
runs once untraced and once traced, so counts repeat exactly, and the table
printed above the JSON line shows the tracing overhead.

This process never imports mmlab; it only spawns workers and checks their
outputs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("geodesic", "concentration", "finite-lp", "cli")
WORKERS = 3
# operations per traced run: fixed, so that counts repeat exactly
TRACE_OPS = {"geodesic": 8, "concentration": 3, "finite-lp": 8, "cli": 2}
IMPORT_PROBES = 3
WORKER_TIMEOUT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def clean_env() -> dict:
    """Environment of every child: one BLAS/OpenMP thread, fixed hash seed,
    the checkout's sources first on the path, no MMLAB_THREADS (it enters
    report bytes)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("MMLAB_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def byte_compile() -> None:
    for d in (ROOT / "src", BENCH):
        if not compileall.compile_dir(str(d), quiet=1):
            raise SystemExit(f"byte-compiling {d} failed")


def run_worker(workload, seed, mode, arg, out: Path, env, traced=False):
    """Start a worker; return its time from spawn to READY and its result,
    with this process's reference slices from just before the spawn added to
    the worker's own under ``calib``."""
    before = hostspeed.slices_for(2.0)
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
            mode, str(arg), str(out)] + (["--trace"] if traced else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline().strip() == "READY"
    ready_s = time.perf_counter() - t0
    try:
        proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{workload} worker timed out")
    if not ready or proc.returncode != 0:
        raise SystemExit(f"{workload} worker exited with code {proc.returncode}")
    doc = json.loads(out.read_text(encoding="utf-8"))
    with open(out.with_suffix(".outputs.jsonl"), encoding="utf-8") as fh:
        doc["outputs"] = [json.loads(line) for line in fh]
    doc["calib"] = before + doc["calib"]
    return ready_s, doc


def check_outputs(workload: str, seed: int, outputs: list) -> list:
    return checks.check(workload, inputs.GENERATORS[workload](seed), outputs)


def end_to_end(args, env, scratch: Path) -> dict:
    """The timed window is split evenly over WORKERS fresh processes, so a
    process that happens to run slow moves the result by a share only;
    each worker's spawn-to-READY time is one set-up sample."""
    share = args.seconds / WORKERS
    setups, docs = [], []
    for k in range(WORKERS):
        ready, doc = run_worker(args.workload, args.seed, "time", share,
                                scratch / f"run{k}.json", env)
        setups.append(ready)
        docs.append(doc)
    outputs = [o for d in docs for o in d["outputs"]]
    fails = check_outputs(args.workload, args.seed, outputs)
    durations = [t for d in docs for t in d["durations"]]
    calib = [t for d in docs for t in d["calib"]]
    elapsed = sum(durations)
    f = hostspeed.factor(calib)
    metrics = {
        "ops_per_s": (len(durations) / (elapsed * f), "1/s"),
        "op_p50_ms": (statistics.median(durations) * f * 1000.0, "ms"),
        "setup_s": (statistics.median(setups) * f, "s"),
        "peak_rss_mb": (max(d["peak_rss_mb"] for d in docs), "MB"),
    }
    return {"fails": fails, "attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs), "metrics": metrics,
            "note": f"{len(durations)} ops in {elapsed:.2f} s wall over "
                    f"{WORKERS} workers; wall op p50 "
                    f"{statistics.median(durations) * 1000.0:.1f} ms; wall "
                    f"set-up {', '.join(f'{s:.3f}' for s in setups)} s; "
                    f"{len(calib)} reference slices, median "
                    f"{statistics.median(calib) * 1000.0:.2f} ms, "
                    f"factor {f:.4f}"}


def import_probe(env, scratch: Path):
    """Median time of ``import mmlab.cli`` in fresh interpreters, and the
    number of modules it loads (the same in every probe)."""
    times, counts = [], set()
    for k in range(IMPORT_PROBES):
        out = scratch / f"probe{k}.json"
        subprocess.run([sys.executable, str(BENCH / "cli_child.py"), str(out)],
                       cwd=ROOT, env=env, check=True, timeout=60,
                       stdin=subprocess.DEVNULL)
        doc = json.loads(out.read_text(encoding="utf-8"))
        times.append(doc["import_ms"])
        counts.add(doc["modules_loaded"])
    if len(counts) != 1:
        raise SystemExit(f"import loaded different module counts: {counts}")
    return statistics.median(times), counts.pop()


def per_layer(args, env, scratch: Path, spec: dict) -> dict:
    n_ops = TRACE_OPS[args.workload]
    _, plain = run_worker(args.workload, args.seed, "count", n_ops,
                          scratch / "plain.json", env)
    _, traced = run_worker(args.workload, args.seed, "count", n_ops,
                           scratch / "traced.json", env, traced=True)
    fails = check_outputs(args.workload, args.seed, plain["outputs"])
    fails += check_outputs(args.workload, args.seed, traced["outputs"])
    layers = dict(traced.get("layers", {}))
    for child in traced.get("children", []):
        for name, value in child["layers"].items():
            layers[name] = layers.get(name, 0) + value
    import_ms, modules = import_probe(env, scratch)
    layers["cli.import_ms"] = import_ms
    layers["cli.modules_loaded"] = modules
    metrics = {m["name"]: (layers.get(m["name"], 0), m["unit"])
               for m in spec["per_layer"]}
    # each rate at the reference speed, as the run measured it then
    rate_plain = n_ops / (sum(plain["durations"])
                          * hostspeed.factor(plain["calib"]))
    rate_traced = n_ops / (sum(traced["durations"])
                           * hostspeed.factor(traced["calib"]))
    lines = [f"{args.workload}: {n_ops} operations, untraced "
             f"{rate_plain:.4f} ops/s, traced {rate_traced:.4f} ops/s, "
             f"tracing overhead {100.0 * (rate_plain / rate_traced - 1.0):+.1f}%"]
    width = max(len(m) for m in metrics)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<{width}}  {value:>14.4f} {unit}")
    (BENCH / "results").mkdir(exist_ok=True)
    spans = scratch / "traced.spans.jsonl"
    if spans.exists():
        shutil.copy(spans, BENCH / "results" /
                    f"spans-{args.workload}-{args.seed}.jsonl")
    return {"fails": fails, "attempted": traced["attempted"],
            "failed": traced["failed"], "metrics": metrics,
            "note": "\n".join(lines)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mmlab" / "__init__.py").is_file():
        print(f"error: no mmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    byte_compile()
    env = clean_env()
    scratch = BENCH / "scratch" / f"run-{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    try:
        if args.trace:
            res = per_layer(args, env, scratch, spec)
        else:
            res = end_to_end(args, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(res["note"])
    for msg in res["fails"][:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not res["fails"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
