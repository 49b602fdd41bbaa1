"""The benchmark's own tests.

Each workload's real outputs, made by the worker on a seed other than the
default, must pass every check; the same outputs with one value moved just
past its tolerance must be rejected, with the message of the check that
owns that tolerance.  Run from the repository root:

    python3 -m pytest -q mmbench/tests
"""

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 3


def worker_outputs(tmp_path_factory, workload: str, ops: int) -> list:
    out = tmp_path_factory.mktemp(workload) / "out.json"
    subprocess.run([sys.executable, str(BENCH / "worker.py"), workload,
                    str(SEED), "count", str(ops), str(out)],
                   cwd=ROOT, env=run.clean_env(), check=True, timeout=170,
                   stdout=subprocess.DEVNULL)
    lines = out.with_suffix(".outputs.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def rejected(workload: str, outputs: list, needle: str) -> bool:
    fails = checks.check(workload, inputs.GENERATORS[workload](SEED), outputs)
    return any(needle in f for f in fails)


# ---------------------------------------------------------------------------
# geodesic


@pytest.fixture(scope="module")
def geodesic(tmp_path_factory):
    return worker_outputs(tmp_path_factory, "geodesic", 1)


def test_geodesic_passes(geodesic):
    assert checks.check("geodesic", inputs.geodesic(SEED), geodesic) == []


def _endpoint(out):
    return next(c for c in out["spaces"][0]["cells"] if c[0] == 0.0)


def test_geodesic_rejects(geodesic):
    inp = inputs.geodesic(SEED)
    i = geodesic[0]["i"]

    def moved(edit):
        outs = copy.deepcopy(geodesic)
        edit(outs[0])
        return outs

    assert rejected("geodesic", moved(
        lambda o: o["spaces"][0].update(verdict=False)), "cosh control")
    assert rejected("geodesic", moved(
        lambda o: _endpoint(o).__setitem__(4, 2.0 * checks.ENDPOINT_REL)),
        "margin")
    assert rejected("geodesic", moved(
        lambda o: _endpoint(o).__setitem__(
            2, _endpoint(o)[2] * (1.0 + 2.0 * checks.ENDPOINT_REL))), "entropy")
    assert rejected("geodesic", moved(
        lambda o: o["spaces"][1].update(
            w2=o["spaces"][1]["w2"] * (1.0 + 2.0 * checks.W2_QUANTILE_REL))),
        "w2_quantile_1d")
    assert rejected("geodesic", moved(
        lambda o: o["spaces"][0].update(
            rho_t=[v * (1.0 + 2.0 * checks.MASS_TOL)
                   for v in o["spaces"][0]["rho_t"]])), "interpolant mass")

    # the smallest translation of rho_t that moves the W2 gap past h
    item = inp["spaces"][0]
    spec, pair = item["spec"], item["pairs"][i]
    length = 2.0 * spec["L"]
    h = length / spec["m"]
    rho_t = np.asarray(geodesic[0]["spaces"][0]["rho_t"])
    ref = checks.w2_cells(length, pair["rho0"] * h, pair["rho1"] * h)
    for shift in list(range(1, 40)) + list(range(-1, -40, -1)):
        shifted = np.roll(rho_t, shift)
        gap = abs(checks.w2_cells(length, pair["rho0"] * h, shifted * h)
                  - pair["t"] * ref)
        if gap > h:
            break
    else:
        pytest.fail("no translation moves the gap past h")
    assert rejected("geodesic", moved(
        lambda o: o["spaces"][0].update(rho_t=shifted.tolist())), "> h")

    c = inp["circles"][i]
    hc = c["length"] / c["m"]
    w1 = checks.circle_w1(c["length"], c["rho0"] * hc, c["rho1"] * hc)
    assert rejected("geodesic", moved(lambda o: o["circle"].update(
        value=w1 * (1.0 - 2.0 * checks.ROUND_REL))), "below circle W1")
    assert rejected("geodesic", moved(lambda o: o["circle"].update(
        value=c["k"] * hc * (1.0 + 2.0 * checks.ROUND_REL))), "rotation cost")
    assert rejected("geodesic", moved(lambda o: o["circle"].update(
        report_cut=o["circle"]["cut"] + 1)), "reported as")
    assert rejected("geodesic", moved(lambda o: o["circle"].update(
        verdict=False)), "flat-circle")


# ---------------------------------------------------------------------------
# concentration


@pytest.fixture(scope="module")
def concentration(tmp_path_factory):
    return worker_outputs(tmp_path_factory, "concentration", 1)


def test_concentration_passes(concentration):
    inp = inputs.concentration(SEED)
    assert checks.check("concentration", inp, concentration) == []


def test_concentration_rejects(concentration):
    inp = inputs.concentration(SEED)
    i = concentration[0]["i"]
    item = inp["bundles"][i][1]
    spec = item["spec"]
    h = 2.0 * spec["L"] / spec["m"]
    span = (spec["m"] - 1) * h
    res = concentration[0]["spaces"][1]
    x = (np.arange(spec["m"]) + 0.5) * h
    pd_ref = checks.window_scan(x, res["weights"], 1.0 - item["kappa"])

    def moved(**kw):
        outs = copy.deepcopy(concentration)
        outs[0]["spaces"][1].update(kw)
        return outs

    w = list(res["weights"])
    w[0] += 2e-10 * max(w)
    assert rejected("concentration", moved(weights=w), "weights")
    bound = checks.cd_separation_bound(spec["K"], spec["N"], item["k0"],
                                       item["k1"])
    assert rejected("concentration", moved(sep=bound + 1.01 * h), "separation")
    half = 0.5 * item["kappa"]
    bound = checks.cd_separation_bound(spec["K"], spec["N"], half, half)
    upper = bound + 1.01 * h
    assert rejected("concentration", moved(upper=upper), "sandwich upper")
    assert rejected("concentration", moved(
        lower=res["upper"] + 2.0 * checks.ROUND_REL * span), "sandwich lower")
    assert rejected("concentration", moved(
        pd=pd_ref + 2.0 * checks.ROUND_REL * span), "partial diameter")

    refs = checks.collapse_refs(inp["collapse"])
    n_last = inp["collapse"]["n_list"][-1]
    _, eps_star, tol = refs[n_last]
    outs = copy.deepcopy(concentration)
    outs[0]["collapse"]["prokhorov"][-1] = eps_star - 1.01 * tol
    assert rejected("concentration", outs, "pole-tail fixed point")
    outs = copy.deepcopy(concentration)
    outs[0]["collapse"]["a_n"][0] *= 1.0 + 2e-6
    assert rejected("concentration", outs, "quadrature")


# ---------------------------------------------------------------------------
# finite-lp


@pytest.fixture(scope="module")
def finite(tmp_path_factory):
    return worker_outputs(tmp_path_factory, "finite-lp", 1)


def test_finite_lp_passes(finite):
    assert checks.check("finite-lp", inputs.finite_lp(SEED), finite) == []


def test_finite_lp_rejects(finite):
    inp = inputs.finite_lp(SEED)
    bundle = inp["bundles"][finite[0]["i"]]
    cube = next(j for j, s in enumerate(bundle) if s["n"] > inputs.SUITE_MAX_N)
    suite = next(j for j, s in enumerate(bundle) if s["n"] <= inputs.SUITE_MAX_N)

    def moved(j, edit):
        outs = copy.deepcopy(finite)
        edit(outs[0]["spaces"][j])
        return outs

    def set_w2(k, value):
        return lambda r: r["w2"].__setitem__(k, value)

    r = finite[0]["spaces"][cube]
    assert rejected("finite-lp", moved(
        cube, set_w2(1, r["w2"][0] + 2.0 * checks.W2_SYM_TOL)), "asymmetric")
    assert rejected("finite-lp", moved(
        cube, set_w2(2, r["w2"][0] + r["w2"][3] + 2.0 * checks.W2_TRI_TOL)),
        "triangle")
    s = bundle[cube]
    w1 = checks.transport_lp(s["dist"], s["mu"], s["nu"])
    low = w1 - 2.0 * checks.LP_TOL
    assert rejected("finite-lp", moved(
        cube, lambda o: o["w2"].__setitem__(slice(0, 2), [low, low])),
        "pi^2 <= W1 <= W2")
    for j in (suite, cube):
        pk = finite[0]["spaces"][j]["prokhorov"]
        assert rejected("finite-lp", moved(j, lambda o: o.update(
            prokhorov=pk + 2.0 * checks.PROKHOROV_TOL)), "max-flow")
        kf = finite[0]["spaces"][j]["kyfan"]
        assert rejected("finite-lp", moved(j, lambda o: o.update(
            kyfan=math.nextafter(kf, 2.0))), "level scan")
    assert rejected("finite-lp", moved(
        suite, lambda o: o["suite"].update(failures=1)), "entropy suite")


# ---------------------------------------------------------------------------
# cli


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    return worker_outputs(tmp_path_factory, "cli", 2)


def test_cli_passes(cli):
    assert checks.check("cli", inputs.cli(SEED), cli) == []


def _edit_report(outs, prefix: str, edit):
    """Apply one edit to the named JSON report of every bundle, keeping the
    bundles byte-identical so only the reference check can trip."""
    for out in outs:
        name = next(f for f in out["files"]
                    if f.endswith(".json") and f.rsplit("-", 1)[0] == prefix)
        doc = json.loads(out["files"][name])
        edit(doc)
        out["files"][name] = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return outs


def test_cli_rejects(cli):
    inp = inputs.cli(SEED)

    def moved(prefix, edit):
        return _edit_report(copy.deepcopy(cli), prefix, edit)

    def scale(key, factor):
        return lambda d: d.update({key: d[key] * factor})

    outs = copy.deepcopy(cli)
    name = next(iter(outs[1]["files"]))
    outs[1]["files"][name] += " "
    assert rejected("cli", outs, "differ in bytes")
    assert rejected("cli", moved("entropy", scale(
        "value", 1.0 + 2.0 * checks.ROUND_REL)), "cli entropy")
    assert rejected("cli", moved("kyfan", lambda d: d.update(
        value=math.nextafter(d["value"], 2.0))), "cli kyfan")
    assert rejected("cli", moved("w2", lambda d: d.update(
        value=math.sqrt(d["value"] ** 2 + 2.0 * checks.LP_TOL))), "cli w2")
    assert rejected("cli", moved("prokhorov", lambda d: d.update(
        value=d["value"] + 2.0 * checks.PROKHOROV_TOL,
        box_upper=2.0 * (d["value"] + 2.0 * checks.PROKHOROV_TOL))),
        "cli prokhorov")
    cv = inp["convexity"]
    _, tol = checks.convexity_min_residual(cv["f"], cv["K"], cv["N"], cv["h"])
    assert rejected("cli", moved("convexity", lambda d: d.update(
        min_residual=d["min_residual"] + 2.0 * tol)), "cli convexity")

    def bump_volume(d):
        row = next(r for r in d["rows"] if r[0] == "volume" and r[2] == 1.0)
        row[3] += 2e-7

    assert rejected("cli", moved("sinh-example", bump_volume), "sinh volume")
    refs = checks.collapse_refs(inp["collapse"])

    def move_collapse(d):
        _, eps_star, tol = refs[d["rows"][0][0]]
        d["rows"][0][d["columns"].index("prokhorov")] = eps_star + 1.01 * tol

    assert rejected("cli", moved("counterexample", move_collapse),
                    "pole-tail fixed point")
    assert rejected("cli", moved("lemma-suite", lambda d: d["rows"][0].__setitem__(
        1, d["rows"][0][1] - 1)), "lemma-suite")


# ---------------------------------------------------------------------------
# references and tracing


def test_references_on_known_cases():
    # uniform to a translate by s on a long segment: W2 = s
    m, length = 64, 4.0
    m0 = np.zeros(m)
    m0[10:20] = 0.1
    assert checks.w2_cells(length, m0, np.roll(m0, 5)) == pytest.approx(
        5 * length / m, rel=1e-12)
    # flat circle of length L, uniform against all mass on one cell of
    # width h: W1 = (L - h) / 4
    u = np.full(m, 1.0 / m)
    d = np.zeros(m)
    d[0] = 1.0
    assert checks.circle_w1(length, u, d) == pytest.approx(
        (length - length / m) / 4.0, rel=1e-12)
    # one unit of mass moved by 0.25 with tolerance-free max-flow
    dist = np.array([[0.0, 0.25], [0.25, 0.0]])
    assert checks.max_flow_prokhorov(dist, np.array([1.0, 0.0]),
                                     np.array([0.0, 1.0])) == 0.25
    assert checks.ky_fan_scan(np.full(4, 0.25), np.zeros(4),
                              np.array([0.0, 0.1, 0.2, 0.9])) == 0.25


def test_tracer_self_time():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    inner_t = tracer.wrap("m.inner", inner)

    def outer():
        inner_t()
        inner_t()
        time.sleep(0.01)

    tracer.wrap("m.outer", outer)()
    agg = tracer.aggregate()
    assert agg["m.inner.calls"] == 2 and agg["m.outer.calls"] == 1
    assert agg["m.outer.ms"] >= agg["m.inner.ms"] + 9.0
    assert agg["m.outer.self_ms"] == pytest.approx(
        agg["m.outer.ms"] - agg["m.inner.ms"], abs=1e-6)


def test_host_speed_factor():
    ref = hostspeed.REF_SLICE_S
    # a host at half the reference speed halves every scaled time
    assert hostspeed.factor([2 * ref, 2 * ref, 9 * ref]) == pytest.approx(0.5)
    got = hostspeed.slices_for(0.5)
    assert got and sum(got) >= hostspeed.SHARE * 0.5
    assert len(hostspeed.slices_for(0.0)) == 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "mmbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results",
                                                  "scratch"))
    res = subprocess.run([sys.executable, "mmbench/run.py", "--workload",
                          "geodesic", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=170)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
