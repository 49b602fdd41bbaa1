"""Reference figures: repeated end-to-end runs and one traced run per workload.

    python3 mmbench/figures.py --runs 10 --first-seed 1 [--workloads cli,...]

For each workload it runs ``run.py`` once per seed (first-seed, first-seed+1,
...), then prints, for every end-to-end metric, the median, the first and
third quartiles (``statistics.quantiles(n=4)``) and their distance as a
share of the median, the share of failed operations, and whether every run
was correct.  ``--traced`` adds one ``--trace 1`` run per workload on the
first seed and prints its table.  Raw results go to
``mmbench/results/figures-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int):
    res = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                          workload, "--seed", str(seed), "--seconds",
                          str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {res.returncode}: "
                         f"{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], res.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--traced", action="store_true")
    args = p.parse_args()
    seconds = spec["run_seconds"]
    raw = {}
    for w in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            doc, note, err = run_once(w, seed, seconds, 0)
            runs.append({"seed": seed, "note": note, **doc})
            if err.strip():
                print(err.strip(), file=sys.stderr)
        raw[w] = {"runs": runs}
        print(f"{w}: {args.runs} runs of {seconds} s, all correct: "
              f"{all(r['correct'] for r in runs)}, failed/attempted: "
              f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"  {m['name']:<12} median {med:12.4f} {m['unit']:<4} "
                  f"quartiles {q1:12.4f} {q3:12.4f}  spread "
                  f"{(q3 - q1) / med:.3f} (bound {m['bound']})")
        if args.traced:
            doc, table, _ = run_once(w, args.first_seed, seconds, 1)
            raw[w]["traced"] = doc
            print("\n".join(table))
        sys.stdout.flush()
    out = BENCH / "results" / f"figures-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
