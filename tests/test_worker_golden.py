"""The outputs of the benchmark's ``geodesic`` operations, pinned.

``mmbench/worker.py geodesic S count 8`` runs the eight operation bundles
of seed S once each: CD checks, interpolants and W2 values on two cosh
controls, and a circle cut search with the CD check at its cut.  For
S = 0-3 the golden file holds each outputs file's SHA-256 and its values,
beside a stamp of the interpreter, numpy, scipy and the CPU that made them.
On a matching stamp the test compares bit for bit; on another it compares
every float within 4 ulps and every cut, verdict and count exactly.

A change that moves a value on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_worker_golden.py

and lists the moved values in CHANGES.md.
"""

import gzip
import hashlib
import importlib.util
import json
import math
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "geodesic_worker.json.gz"
BENCH_RUN = ROOT / "mmbench" / "run.py"
SEEDS = (0, 1, 2, 3)
OPS = 8
ULPS = 4


def stamp() -> dict:
    """What the bits of the outputs depend on beyond the source."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpu": cpu}


def _bench_run():
    # run.py imports only the standard library and mmbench's own modules
    spec = importlib.util.spec_from_file_location("mmbench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_worker(seed: int, out_dir: Path) -> bytes:
    """The outputs file of one ``geodesic`` worker run, in the benchmark's
    child environment.  The worker names that file by replacing the
    suffix of OUT, so OUT holds no dot."""
    out = out_dir / f"geodesic_{seed}"
    subprocess.run([sys.executable, str(ROOT / "mmbench" / "worker.py"),
                    "geodesic", str(seed), "count", str(OPS), str(out)],
                   cwd=ROOT, env=_bench_run().clean_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=300)
    return out.with_suffix(".outputs.jsonl").read_bytes()


def parse(data: bytes) -> list:
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def mismatch(got, ref, ulps, path="") -> str | None:
    """Where ``got`` leaves ``ref``: floats by more than ``ulps`` ulps of
    the larger, anything else (bools, ints, keys, lengths) at all."""
    if isinstance(ref, float) and isinstance(got, float):
        if got == ref or (math.isnan(got) and math.isnan(ref)):
            return None
        if math.isfinite(got) and math.isfinite(ref) and (
                abs(got - ref) <= ulps * np.spacing(max(abs(got), abs(ref)))):
            return None
        return f"{path}: {got!r} against {ref!r}"
    if type(got) is not type(ref):
        return f"{path}: {got!r} against {ref!r}"
    if isinstance(ref, dict):
        if got.keys() != ref.keys():
            return f"{path}: keys {sorted(got)} against {sorted(ref)}"
        items = ((k, got[k], ref[k]) for k in ref)
    elif isinstance(ref, list):
        if len(got) != len(ref):
            return f"{path}: length {len(got)} against {len(ref)}"
        items = ((i, g, r) for i, (g, r) in enumerate(zip(got, ref)))
    else:
        return None if got == ref else f"{path}: {got!r} against {ref!r}"
    for key, g, r in items:
        where = mismatch(g, r, ulps, f"{path}[{key!r}]")
        if where:
            return where
    return None


def load_golden() -> dict:
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def test_mismatch_counts_ulps_and_names_the_place():
    x = 0.1
    near, far = x + 4 * np.spacing(x), x + 5 * np.spacing(x)
    assert mismatch([x, 1, True], [x, 1, True], 0) is None
    assert mismatch({"a": [near]}, {"a": [x]}, ULPS) is None
    assert (mismatch({"a": [near]}, {"a": [x]}, 0)
            == f"['a'][0]: {near!r} against {x!r}")
    assert mismatch([far], [x], ULPS) == f"[0]: {far!r} against {x!r}"
    assert mismatch({"cut": 3}, {"cut": 4}, ULPS) == "['cut']: 3 against 4"
    assert mismatch([True], [False], ULPS) is not None
    assert mismatch([1.0], [1], ULPS) is not None
    assert mismatch([math.inf], [math.inf], 0) is None
    assert mismatch([math.inf], [1e308], ULPS) is not None


@pytest.mark.parametrize("seed", SEEDS)
def test_geodesic_worker_outputs_are_pinned(seed, tmp_path):
    golden = load_golden()
    ref = golden["seeds"][str(seed)]
    data = run_worker(seed, tmp_path)
    got = parse(data)
    assert len(got) == OPS
    same = golden["stamp"] == stamp()
    # the same builds on the same CPU give every bit, others ULPS ulps
    where = mismatch(got, ref["outputs"], 0 if same else ULPS)
    assert where is None, f"{where}; stamp {stamp()}, golden {golden['stamp']}"
    if same:
        assert hashlib.sha256(data).hexdigest() == ref["sha256"]


def write_golden() -> None:
    seeds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            data = run_worker(seed, Path(tmp))
            seeds[str(seed)] = {"sha256": hashlib.sha256(data).hexdigest(),
                                "outputs": parse(data)}
    doc = {"worker": f"mmbench/worker.py geodesic S count {OPS}",
           "stamp": stamp(), "seeds": seeds}
    GOLDEN.parent.mkdir(exist_ok=True)
    # mtime 0 keeps the file's bytes a function of its content
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(
            fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True).encode("utf-8"))


if __name__ == "__main__":
    write_golden()
