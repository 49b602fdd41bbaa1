import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmlab.cli
from mmlab import transport
from mmlab.config import RunConfig
from mmlab.core import FiniteMmSpace
from mmlab.reporting import params_hash
from mmlab.transport import WeightedOneDimSpace


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "mmlab.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture()
def inputs(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.random((5, 2))
    space = FiniteMmSpace.from_points(pts, rng.dirichlet(np.ones(5)))
    space_path = tmp_path / "space.json"
    space_path.write_text(space.to_json())
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(json.dumps({"weights": list(space.weights)}))
    circle = WeightedOneDimSpace.from_density(
        "circle", 8.0, 128, lambda x: np.full_like(x, 1.0 / 8.0))
    circle_path = tmp_path / "circle.json"
    circle_path.write_text(circle.to_json())
    return {"space": space_path, "mu": mu_path, "circle": circle_path,
            "tmp": tmp_path}


def test_w2_same_measure_exits_zero(inputs):
    out = inputs["tmp"] / "reports"
    res = run_cli("w2", "--space", str(inputs["space"]),
                  "--mu", str(inputs["mu"]), "--nu", str(inputs["mu"]),
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "w2: 0.0" in res.stdout
    report = json.loads(next(out.glob("w2-*.json")).read_text())
    assert report["value"] == 0.0
    assert report["metadata"]["params"]["mu"] == str(inputs["mu"])


def test_cd_check_flat_circle_fails_with_witness(inputs):
    out = inputs["tmp"] / "reports"
    res = run_cli("cd-check", "--space", str(inputs["circle"]),
                  "--K", "1", "--N", "-1", "--out", str(out))
    assert res.returncode == 1, res.stdout + res.stderr
    assert "FAIL" in res.stdout
    assert "min relative margin" in res.stdout
    doc = json.loads(next(out.glob("cd-check-*.json")).read_text())
    assert doc["verdict"] is False
    assert any(not c["ok"] for c in doc["cells"])


def test_cd_check_flat_circle_passes_zero_curvature(inputs):
    out = inputs["tmp"] / "reports"
    res = run_cli("cd-check", "--space", str(inputs["circle"]),
                  "--K", "0", "--N", "-1", "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr


def test_w2_solver_fault_is_not_an_input_error(tmp_path, monkeypatch, capsys):
    # valid Dirichlet(0.3) masses on which an LP plan without rounding misses
    # the coupling's marginal tolerance (by 2.3e-9 against 1e-9): the
    # certified solve reports its bracket and exits 0
    rng = np.random.default_rng(0)
    space = FiniteMmSpace.from_points(rng.random((64, 3)), np.full(64, 1 / 64))
    paths = {"space": tmp_path / "space.json", "mu": tmp_path / "mu.json",
             "nu": tmp_path / "nu.json"}
    paths["space"].write_text(space.to_json())
    for name in ("mu", "nu"):
        weights = rng.dirichlet(0.3 * np.ones(64))
        paths[name].write_text(json.dumps({"weights": list(weights)}))
    argv = ["w2", *(f"--{k}={v}" for k, v in paths.items()),
            "--out", str(tmp_path / "reports")]
    res = run_cli(*argv)
    assert res.returncode == 0, res.stderr
    doc = json.loads(next((tmp_path / "reports").glob("w2-*.json")).read_text())
    assert doc["lower"] <= doc["value"] ** 2 + 1e-14
    assert doc["value"] ** 2 <= doc["upper"] + 1e-14
    assert doc["dual_gap"] == abs(doc["upper"] - doc["lower"])
    # a failed certification is exit 1, never an input error
    solve = transport.linprog

    def failing(*args, **kwargs):  # a plan that is not optimal
        res = solve(*args, **kwargs)
        res.x = np.full_like(res.x, 1.0 / res.x.size)
        return res

    monkeypatch.setattr(transport, "linprog", failing)
    assert mmlab.cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("check failed")


def test_usage_errors_exit_two(inputs):
    res = run_cli("w2", "--space", str(inputs["space"]),
                  "--mu", str(inputs["mu"]))
    assert res.returncode == 2  # missing --nu
    res = run_cli("w2", "--space", "missing.json",
                  "--mu", str(inputs["mu"]), "--nu", str(inputs["mu"]))
    assert res.returncode == 2
    assert "--space" in res.stderr
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_non_finite_weight_is_named(inputs):
    # json reads NaN and Infinity; the message names the first such entry
    bad = inputs["tmp"] / "bad.json"
    bad.write_text('{"weights": [0.25, 0.25, NaN, 0.5, Infinity]}')
    res = run_cli("w2", "--space", str(inputs["space"]), "--mu", str(bad),
                  "--nu", str(inputs["mu"]), "--out", str(inputs["tmp"] / "r"))
    assert res.returncode == 2, res.stdout + res.stderr
    assert "weights[2] = nan" in res.stderr
    assert not (inputs["tmp"] / "r").exists()


@pytest.mark.parametrize("command", ["cd-check", "entropy", "bm-check"])
def test_nan_dimension_exits_two(inputs, command):
    flags = {
        "cd-check": ["--space", str(inputs["circle"]), "--K", "1", "--N", "nan"],
        "entropy": ["--mu", str(inputs["mu"]), "--nu", str(inputs["mu"]),
                    "--nprime", "nan"],
        "bm-check": ["--space", str(inputs["circle"]), "--a0", "0.5,1.5",
                     "--a1", "2,3", "--t", "0.5", "--K", "1", "--N", "nan"],
    }[command]
    res = run_cli(command, *flags, "--out", str(inputs["tmp"] / "r"))
    assert res.returncode == 2, res.stdout + res.stderr
    assert "must be negative" in res.stderr
    assert not (inputs["tmp"] / "r").exists()


BAD_SCALARS = {
    "cd-check-K": (["cd-check", "--space", "{circle}", "--K", "nan", "--N", "-1"],
                   "K must be finite"),
    "bm-check-K": (["bm-check", "--space", "{circle}", "--a0", "0.5,1.5",
                    "--a1", "2,3", "--t", "0.5", "--K", "nan", "--N", "-1"],
                   "K must be finite"),
    "convexity-K": (["convexity", "--f", "{f}", "--K", "nan", "--N", "-2",
                     "--h", "0.01"], "K must be finite"),
    "cosh-family-K": (["cosh-family", "--K", "nan", "--N", "-1", "--lam", "1",
                       "--L", "3", "--M", "128"], "K must be finite"),
    "counterexample-K": (["counterexample", "--K", "nan", "--N", "-1",
                          "--n-list", "1", "--M", "512"], "K must be finite"),
    "sep-k0": (["sep", "--space", "{space}", "--k0", "nan", "--k1", "0.3"],
               "mass thresholds must be positive"),
    "obsdiam-kappa": (["obsdiam", "--space", "{space}", "--kappa", "nan"],
                      "kappa must be positive"),
    "convexity-h-zero": (["convexity", "--f", "{f}", "--K", "1", "--N", "-2",
                          "--h", "0"], "h must be positive"),
    "convexity-h-nan": (["convexity", "--f", "{f}", "--K", "1", "--N", "-2",
                         "--h", "nan"], "h must be positive"),
    "convexity-h-negative": (["convexity", "--f", "{f}", "--K", "1", "--N",
                              "-2", "--h", "-0.01"], "h must be positive"),
    "sinh-example-C": (["sinh-example", "--K", "1", "--N", "-1",
                        "--C-list", "nan"], "C must be positive"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCALARS))
def test_bad_scalar_input_exits_two(inputs, case):
    # each of these passed, failed as a check (exit 1) or named the wrong
    # input on a NaN or a nonpositive step
    x = np.arange(-3.0, 3.0, 1e-2)
    f_path = inputs["tmp"] / "f.json"
    f_path.write_text(json.dumps({"values": list(2.0 * np.log(np.cosh(x)))}))
    paths = {"circle": inputs["circle"], "space": inputs["space"], "f": f_path}
    argv, message = BAD_SCALARS[case]
    res = run_cli(*(a.format(**paths) for a in argv),
                  "--out", str(inputs["tmp"] / "r"))
    assert res.returncode == 2, res.stdout + res.stderr
    assert message in res.stderr
    assert not (inputs["tmp"] / "r").exists()


# inputs that ended in a traceback (exit 1), in a failed check, or ran with
# the flag ignored; each must be an input error naming what is wrong
BAD_SIZES = {
    "kyfan-nan": (["kyfan", "--weights", "{w}", "--f", "{f_nan}", "--g", "{g}"],
                  "f[1] = nan"),
    "kyfan-inf-both": (["kyfan", "--weights", "{w}", "--f", "{f_inf}",
                        "--g", "{f_inf}"], "f[1] = inf"),
    "kyfan-inf-lone": (["kyfan", "--weights", "{w}", "--f", "{f_inf}",
                        "--g", "{g}"], "f[1] = inf"),
    "cosh-family-M": (["cosh-family", "--K", "1", "--N", "-1", "--lam", "1",
                       "--L", "3", "--M", "0"], "m must be at least 1"),
    "cosh-family-L": (["cosh-family", "--K", "1", "--N", "-1", "--lam", "1",
                       "--L", "0"], "L must be positive and finite"),
    "cosh-family-lam": (["cosh-family", "--K", "1", "--N", "-1", "--lam", "inf",
                         "--L", "3"], "lam must be positive and finite"),
    "thm4-verify-M": (["thm4-verify", "--M", "0"], "m must be at least 1"),
    "thm4-verify-L0": (["thm4-verify", "--L0", "0"],
                       "L must be positive and finite"),
    "counterexample-D": (["counterexample", "--K", "-1", "--N", "-1",
                          "--n-list", "1", "--M", "256", "--D", "inf"],
                         "D must be finite"),
    "counterexample-D-text": (["counterexample", "--K", "-1", "--N", "-1",
                               "--D", "abc"], "--D: expected a number or auto"),
    "lemma-suite-trials-zero": (["lemma-suite", "--trials", "0", "--n", "4"],
                                "n_trials must be at least 1, got 0"),
    "lemma-suite-trials-negative": (["lemma-suite", "--trials", "-1", "--n", "4"],
                                    "n_trials must be at least 1, got -1"),
    "cd-check-t-points-negative": (["cd-check", "--space", "{segment}", "--K",
                                    "1", "--N", "-1", "--t-points", "-1"],
                                   "--t-points must be at least 1"),
    "cd-check-t-points-zero": (["cd-check", "--space", "{segment}", "--K", "1",
                                "--N", "-1", "--t-points", "0"],
                               "--t-points must be at least 1"),
    "cd-check-cut-on-segment": (["cd-check", "--space", "{segment}", "--K", "1",
                                 "--N", "-1", "--cut", "3"],
                                "cut = 3 on a segment"),
    # just past the cap, so that the unbounded grid of a huge radius is
    # never asked for where the cap is missing
    "sinh-example-R": (["sinh-example", "--K", "1", "--N", "-1",
                        "--R-list", "1,2049"], "radii[1] = 2049.0 needs"),
    "sinh-example-R-negative": (["sinh-example", "--K", "1", "--N", "-1",
                                 "--R-list=-2,-1"], "radii[0] = -2.0"),
}


@pytest.mark.parametrize("case", sorted(BAD_SIZES))
def test_bad_size_input_exits_two(tmp_path, capsys, case):
    docs = {"w": {"weights": [0.5, 0.5]}, "f_nan": {"values": [0.0, math.nan]},
            "f_inf": {"values": [0.0, math.inf]}, "g": {"values": [0.0, 0.0]}}
    paths = {}
    for key, doc in docs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))  # json writes NaN, Infinity
    paths["segment"] = tmp_path / "segment.json"
    paths["segment"].write_text(WeightedOneDimSpace.from_density(
        "segment", 4.0, 64, lambda x: np.full_like(x, 0.25)).to_json())
    argv, message = BAD_SIZES[case]
    out = tmp_path / "r"
    code = mmlab.cli.main([a.format(**paths) for a in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("doc, key", [
    ({"n_exact_separation": 20}, "n_exact_separation"),
    ({"tolerances": {"structural": 1e-12, "mass_1d": 1e-3}}, "tolerances"),
    ({"sed": 1}, "sed"),
])
def test_config_rejects_unknown_keys(inputs, doc, key):
    # a removed or misspelt setting must not be ignored silently
    cfg_path = inputs["tmp"] / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    res = run_cli("entropy", "--mu", str(inputs["mu"]), "--nu", str(inputs["mu"]),
                  "--nprime", "-1", "--config", str(cfg_path),
                  "--out", str(inputs["tmp"] / "r"))
    assert res.returncode == 2, res.stdout + res.stderr
    assert key in res.stderr
    assert not (inputs["tmp"] / "r").exists()


@pytest.mark.parametrize("doc, key", [
    ({"seed": "abc"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"cd_budget_c1": "x"}, "cd_budget_c1"),
    ({"cd_budget_c1": False}, "cd_budget_c1"),
    ({"cd_budget_c2": math.nan}, "cd_budget_c2"),
    ({"cd_budget_c2": math.inf}, "cd_budget_c2"),
    ({"cd_budget_c2": None}, "cd_budget_c2"),
])
def test_config_rejects_bad_values(inputs, doc, key):
    # a config value of the wrong type is an input error, not a traceback
    cfg_path = inputs["tmp"] / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    res = run_cli("entropy", "--mu", str(inputs["mu"]), "--nu", str(inputs["mu"]),
                  "--nprime", "-1", "--config", str(cfg_path),
                  "--out", str(inputs["tmp"] / "r"))
    assert res.returncode == 2, res.stdout + res.stderr
    assert f"config key {key}" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (inputs["tmp"] / "r").exists()


def test_config_accepts_valid_values():
    cfg = RunConfig.from_dict({"seed": 7, "cd_budget_c1": 2, "cd_budget_c2": 0.5})
    assert (cfg.seed, cfg.cd_budget_c1, cfg.cd_budget_c2) == (7, 2, 0.5)


def test_config_budget_is_applied(inputs):
    cfg_path = inputs["tmp"] / "cfg.json"
    cfg_path.write_text(json.dumps({"cd_budget_c1": 0.5}))
    out = inputs["tmp"] / "r"
    res = run_cli("cd-check", "--space", str(inputs["circle"]), "--K", "0",
                  "--N", "-1", "--config", str(cfg_path), "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    budget = json.loads(next(out.glob("cd-check-*.json")).read_text())["budget"]
    assert budget["c1"] == 0.5
    assert budget["tol"] == 0.5 * budget["h"]


def test_entropy_and_sep_commands(inputs, tmp_path):
    out = tmp_path / "r"
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps({"weights": [1.0, 0.0, 0.0, 0.0, 0.0]}))
    res = run_cli("entropy", "--mu", str(inputs["mu"]), "--nu", str(nu),
                  "--nprime", "-1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    value = float(res.stdout.split()[1])  # a plain float, as elsewhere
    doc = json.loads(next(out.glob("entropy-*.json")).read_text())
    assert doc["value"] == value
    res = run_cli("sep", "--space", str(inputs["space"]),
                  "--k0", "0.3", "--k1", "0.3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    res = run_cli("obsdiam", "--space", str(inputs["space"]),
                  "--kappa", "0.4", "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads(next(out.glob("obsdiam-*.json")).read_text())
    assert doc["lower"] <= doc["upper"] + 1e-9


def test_convexity_command(tmp_path):
    x = np.arange(-3.0, 3.0, 1e-2)
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps({"values": list(2.0 * np.log(np.cosh(x)))}))
    res = run_cli("convexity", "--f", str(f_path), "--K", "1", "--N", "-2",
                  "--h", "0.01", "--out", str(tmp_path / "r"))
    assert res.returncode == 0, res.stdout + res.stderr


def test_kyfan_command(tmp_path):
    (tmp_path / "w.json").write_text(json.dumps({"weights": [0.3, 0.7]}))
    (tmp_path / "f.json").write_text(json.dumps({"values": [2.0, 0.0]}))
    (tmp_path / "g.json").write_text(json.dumps({"values": [0.0, 0.0]}))
    res = run_cli("kyfan", "--weights", str(tmp_path / "w.json"),
                  "--f", str(tmp_path / "f.json"),
                  "--g", str(tmp_path / "g.json"),
                  "--out", str(tmp_path / "r"))
    assert res.returncode == 0
    assert "0.3" in res.stdout


def test_counterexample_pipeline_and_determinism(tmp_path):
    args = ["counterexample", "--K", "-1", "--N", "-1", "--D", "auto",
            "--n-list", "1,2,4", "--M", "512", "--seed", "7"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    res1 = run_cli(*args, "--out", str(out1))
    assert res1.returncode == 0, res1.stdout + res1.stderr
    res2 = run_cli(*args, "--out", str(out2))
    assert res2.returncode == 0
    csv1 = next(out1.glob("counterexample-*.csv")).read_bytes()
    csv2 = next(out2.glob("counterexample-*.csv")).read_bytes()
    assert csv1 == csv2
    json1 = next(out1.glob("counterexample-*.json")).read_bytes()
    json2 = next(out2.glob("counterexample-*.json")).read_bytes()
    assert json1 == json2
    header = csv1.decode().splitlines()[0]
    assert header.startswith("n,a_n,conv_min_residual")


def test_cosh_family_and_bm_collapse_chain(tmp_path):
    out = tmp_path / "r"
    space_file = tmp_path / "cosh.json"
    res = run_cli("cosh-family", "--K", "1", "--N", "-1", "--lam", "1",
                  "--L", "3", "--M", "128", "--out-space", str(space_file),
                  "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    assert space_file.exists()
    res = run_cli("bm-collapse", "--space", str(space_file),
                  "--a0", "0.5,1.5", "--a1", "4.5,5.5", "--t", "0.5",
                  "--K-list", "1,10,100,1000", "--N", "-1",
                  "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr


def test_lemma_suite_command(tmp_path):
    res = run_cli("lemma-suite", "--n", "6", "--trials", "30",
                  "--seed", "3", "--out", str(tmp_path / "r"))
    assert res.returncode == 0, res.stdout + res.stderr


def test_config_file_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 123, "cd_budget_c2": 0.07}))
    res = run_cli("lemma-suite", "--n", "5", "--trials", "10",
                  "--config", str(cfg_path), "--out", str(tmp_path / "r"))
    assert res.returncode == 0, res.stderr
    doc = json.loads(next((tmp_path / "r").glob("lemma-suite-*.json")).read_text())
    assert doc["metadata"]["config"]["seed"] == 123
    assert doc["metadata"]["config"]["cd_budget_c2"] == 0.07


def test_bm_check_command(tmp_path):
    res = run_cli("cosh-family", "--K", "1", "--N", "-1", "--lam", "1",
                  "--L", "3", "--M", "128",
                  "--out-space", str(tmp_path / "s.json"),
                  "--out", str(tmp_path / "r"))
    assert res.returncode == 0
    res = run_cli("bm-check", "--space", str(tmp_path / "s.json"),
                  "--a0", "0.5,1.5", "--a1", "4.0,5.0", "--t", "0.5",
                  "--K", "1", "--N", "-1", "--out", str(tmp_path / "r"))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "pass" in res.stdout


def _report_command(name, inputs):
    tmp = inputs["tmp"]
    if name == "cd-check":
        return [name, "--space", str(inputs["circle"]), "--K", "0", "--N", "-1"]
    if name == "convexity":
        x = np.arange(-3.0, 3.0, 1e-2)
        f_path = tmp / "f.json"
        f_path.write_text(json.dumps({"values": list(2.0 * np.log(np.cosh(x)))}))
        return [name, "--f", str(f_path), "--K", "1", "--N", "-2", "--h", "0.01"]
    if name == "cosh-family":
        return [name, "--K", "1", "--N", "-1", "--lam", "1", "--L", "3",
                "--M", "64"]
    if name == "w2":
        return [name, "--space", str(inputs["space"]), "--mu", str(inputs["mu"]),
                "--nu", str(inputs["mu"])]
    # uniform planar points whose obsdiam witnesses hit a rounding corner
    rng = np.random.default_rng(1)
    n = int(rng.integers(3, 7))
    planar = tmp / "planar.json"
    planar.write_text(FiniteMmSpace.from_points(rng.random((n, 2)),
                                                np.full(n, 1.0 / n)).to_json())
    return [name, "--space", str(planar), "--kappa", "0.05"]


@pytest.mark.parametrize("name", ["cd-check", "convexity", "cosh-family", "w2",
                                  "obsdiam"])
def test_report_does_not_depend_on_out(inputs, name):
    cmd = _report_command(name, inputs)
    bundles = []
    for outdir in (inputs["tmp"] / "a", inputs["tmp"] / "b" / "deeper"):
        res = run_cli(*cmd, "--out", str(outdir))
        assert res.returncode == 0, res.stdout + res.stderr
        bundles.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert bundles[0] == bundles[1]
    # cosh-family also leaves its space file, an input and not a report
    reports = [n for n in bundles[0] if not n.startswith("cosh-space-")]
    assert len(reports) == 1 and reports[0].rsplit("-", 1)[0] == name
    meta = json.loads(bundles[0][reports[0]])["metadata"]
    assert reports[0] == f"{name}-{params_hash(meta['params'])}.json"
    assert "output_dir" not in meta["config"] and "seed" in meta["config"]


# ---------------------------------------------------------------------------
# import boundary: commands that solve no LP start without scipy, and the
# first LP loads HiGHS's extension alone, not scipy.optimize

SRC = Path(__file__).resolve().parents[1] / "src"
HIGHS = "scipy.optimize._highspy._core"


def loaded_after(code, *modules):
    """Which of ``modules`` ``code``, run in a fresh interpreter, leaves
    loaded, in order."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-c",
         code + f"\nimport sys\nprint(*[m in sys.modules for m in {modules!r}])"],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stdout + res.stderr
    return [v == "True" for v in res.stdout.split()[-len(modules):]]


def scipy_loaded_after(code):
    """Whether ``code``, run in a fresh interpreter, leaves scipy loaded."""
    return loaded_after(code, "scipy") == [True]


@pytest.mark.parametrize("module", ["mmlab", "mmlab.cli"])
def test_import_loads_no_scipy(module):
    assert not scipy_loaded_after(f"import {module}")


def test_only_lp_commands_load_scipy(inputs):
    tmp = inputs["tmp"]
    (tmp / "w.json").write_text(json.dumps({"weights": [0.3, 0.7]}))
    (tmp / "f.json").write_text(json.dumps({"values": [2.0, 0.0]}))
    (tmp / "g.json").write_text(json.dumps({"values": [0.0, 0.0]}))
    out = str(tmp / "r")
    # more than 12 atoms on both sides: Prokhorov takes the max-flow
    rng = np.random.default_rng(3)
    big = FiniteMmSpace.from_points(rng.random((16, 2)),
                                    rng.dirichlet(np.ones(16)))
    (tmp / "big.json").write_text(big.to_json())
    for name in ("p", "q"):
        (tmp / f"{name}.json").write_text(
            json.dumps({"weights": list(rng.dirichlet(np.ones(16)))}))
    no_lp = [
        ["entropy", "--mu", str(inputs["mu"]), "--nu", str(inputs["mu"]),
         "--nprime", "-1", "--out", out],
        ["kyfan", "--weights", str(tmp / "w.json"), "--f", str(tmp / "f.json"),
         "--g", str(tmp / "g.json"), "--out", out],
        # Prokhorov against the two-atom limit takes Hall's formula
        ["counterexample", "--K", "-1", "--N", "-1", "--n-list", "1,2",
         "--M", "256", "--out", out],
        ["prokhorov", "--space", str(tmp / "big.json"), "--mu",
         str(tmp / "p.json"), "--nu", str(tmp / "q.json"), "--out", out],
    ]
    code = "import mmlab.cli\n" + "".join(
        f"assert mmlab.cli.main({argv!r}) == 0\n" for argv in no_lp)
    assert not scipy_loaded_after(code)
    w2 = ["w2", "--space", str(inputs["space"]), "--mu", str(inputs["mu"]),
          "--nu", str(inputs["mu"]), "--out", out]
    lemmas = ["lemma-suite", "--n", "5", "--trials", "10", "--out", out]
    for argv in (w2, lemmas):
        run = f"import mmlab.cli\nassert mmlab.cli.main({argv!r}) == 0\n"
        assert loaded_after(run, HIGHS, "scipy.optimize", "scipy.linalg") == [
            True, False, False]
