"""Command-line front end: one subcommand per solver or experiment.

Inputs are JSON documents (schemas in the README); outputs are JSON/CSV
reports written atomically into the output directory.  Exit codes: 0 when
the computation succeeds and any verdict passes, 1 on a failed check or
solver certification, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .concentration import obsdiam_sandwich, separation
from .config import RunConfig, default_config
from .core import (
    FiniteMmSpace,
    _require,
    float_array,
    json_field,
    json_object,
    prob_weights,
)
from .curvature import (
    cd_check_1d,
    bm_check,
    entropy_inequality_suite,
    kn_convexity_check,
    renyi_entropy,
)
from .errors import (
    ConvexityViolation,
    MmLabError,
    QuadratureNonConvergent,
    SolverFailure,
    ValidationError,
)
from .reporting import (
    ExperimentReport,
    atomic_write_text,
    params_hash,
    write_report,
)
from .transport import (
    WeightedOneDimSpace,
    ky_fan,
    prokhorov,
    w2_exact,
)

# every other library error is an input error
_INPUT_ERRORS = (MmLabError, json.JSONDecodeError, FileNotFoundError, KeyError)
_CHECK_ERRORS = (SolverFailure, ConvexityViolation, QuadratureNonConvergent)


def _read(path: str, flag: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ValidationError(f"{flag}: cannot read {path}: {e}") from e


def _load_doc(path: str, flag: str) -> dict:
    try:
        return json_object(_read(path, flag), f"{flag}: document")
    except json.JSONDecodeError as e:
        raise ValidationError(f"{flag}: invalid JSON in {path}: {e}") from e


def _load_space(cls, path: str):
    text = _read(path, "--space")
    try:
        return cls.from_json(text)
    except (ValidationError, json.JSONDecodeError) as e:
        raise ValidationError(f"--space: {e}") from e


def _load_weights(path: str, flag: str) -> np.ndarray:
    return prob_weights(json_field(_load_doc(path, flag), "weights",
                                   float_array, f"{flag}: document"))


def _load_values(path: str, flag: str) -> np.ndarray:
    return json_field(_load_doc(path, flag), "values", float_array,
                      f"{flag}: document")


def _load_density(path: str, flag: str, space: WeightedOneDimSpace) -> np.ndarray:
    doc = _load_doc(path, flag)
    what = f"{flag}: document"
    if "density" in doc:
        rho = json_field(doc, "density", float_array, what)
    elif "log_density" in doc:
        rho = np.exp(json_field(doc, "log_density", float_array, what))
    else:
        raise ValidationError(f"{flag}: document must contain 'density' or "
                              "'log_density'")
    if rho.size != space.m:
        raise ValidationError(f"{flag}: {rho.size} samples for grid of {space.m}")
    return rho


def _csv_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as e:
        raise ValidationError(f"{flag}: expected comma-separated numbers: {e}") from e


def _csv_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as e:
        raise ValidationError(f"{flag}: expected comma-separated integers: {e}") from e


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else default_config()
    return cfg if args.seed is None else cfg.replace(seed=args.seed)


def _flags_of(args) -> dict:
    # reports are location independent: the output directory never enters
    return {k: v for k, v in vars(args).items()
            if k not in ("func", "out") and v is not None}


def _experiment(rep: ExperimentReport, ok: bool):
    return rep.name, rep, ok, f"{rep.name}: {'pass' if ok else 'FAIL'}"


def _default_density_pair(space: WeightedOneDimSpace):
    """Deterministic translate pair; on circles the supports sit inside the
    first half-arc so the monotone geodesic needs no cut."""
    x = space.grid
    length = space.total_length
    if space.kind == "circle":
        lo, hi = 0.02 * length, 0.46 * length
        window = (x >= lo) & (x <= hi)
        width = 0.04 * length
        c0, c1 = 0.12 * length, 0.36 * length
        rho0 = np.where(window, np.exp(-((x - c0) / width) ** 2) + 1e-6, 0.0)
        rho1 = np.where(window, np.exp(-((x - c1) / width) ** 2) + 1e-6, 0.0)
    else:
        width = 0.08 * length
        c0, c1 = 0.3 * length, 0.7 * length
        rho0 = np.exp(-((x - c0) / width) ** 2) + 1e-6
        rho1 = np.exp(-((x - c1) / width) ** 2) + 1e-6
    rho0 /= rho0.sum() * space.h
    rho1 /= rho1.sum() * space.h
    return rho0, rho1


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (report name, document or
# ExperimentReport, verdict, summary line); main writes the report


def _cmd_w2(args, cfg):
    space = _load_space(FiniteMmSpace, args.space)
    mu = _load_weights(args.mu, "--mu")
    nu = _load_weights(args.nu, "--nu")
    rep = w2_exact(space, mu, nu)
    return ("w2", {"value": rep.value, "dual_gap": rep.dual_gap,
                   "lower": rep.lower, "upper": rep.upper,
                   "iterations": rep.iterations, "method": rep.method}, True,
            f"w2: {rep.value!r} (dual gap {rep.dual_gap:.2e})")


def _cmd_prokhorov(args, cfg):
    space = _load_space(FiniteMmSpace, args.space)
    mu = _load_weights(args.mu, "--mu")
    nu = _load_weights(args.nu, "--nu")
    val = prokhorov(space, mu, nu)
    return ("prokhorov", {"value": val, "box_upper": 2.0 * val}, True,
            f"prokhorov: {val!r}")


def _cmd_kyfan(args, cfg):
    w = _load_weights(args.weights, "--weights")
    f = _load_values(args.f, "--f")
    g = _load_values(args.g, "--g")
    val = ky_fan(w, f, g)
    return "kyfan", {"value": val}, True, f"kyfan: {val!r}"


def _cmd_entropy(args, cfg):
    mu = _load_weights(args.mu, "--mu")
    nu = _load_weights(args.nu, "--nu")
    val = renyi_entropy(mu, nu, args.nprime)
    return ("entropy", {"value": val, "nprime": args.nprime}, True,
            f"entropy: {val!r}")


def _cmd_sep(args, cfg):
    space = _load_space(FiniteMmSpace, args.space)
    res = separation(space, space.weights, args.k0, args.k1)
    return ("sep", dataclasses.asdict(res), True,
            f"sep: {res.value!r} ({res.method})")


def _cmd_obsdiam(args, cfg):
    space = _load_space(FiniteMmSpace, args.space)
    sw = obsdiam_sandwich(space, space.weights, args.kappa, config=cfg)
    return ("obsdiam", dataclasses.asdict(sw), True,
            f"obsdiam: [{sw.lower!r}, {sw.upper!r}]")


def _cmd_cd_check(args, cfg):
    space = _load_space(WeightedOneDimSpace, args.space)
    if args.rho0 and args.rho1:
        rho0 = _load_density(args.rho0, "--rho0", space)
        rho1 = _load_density(args.rho1, "--rho1", space)
    elif args.rho0 or args.rho1:
        raise ValidationError("--rho0 and --rho1 must be given together")
    else:
        rho0, rho1 = _default_density_pair(space)
    _require(args.t_points is None or args.t_points >= 1, "--t-points",
             "must be at least 1", args.t_points)
    t_grid = (None if args.t_points is None
              else np.linspace(0.0, 1.0, args.t_points))
    nprimes = _csv_floats(args.nprimes, "--nprimes") if args.nprimes else None
    rep = cd_check_1d(space, rho0, rho1, args.K, args.N, t_grid, nprimes,
                      args.variant, cut=args.cut, config=cfg)
    return ("cd-check", dataclasses.asdict(rep), rep.verdict,
            f"cd-check [{rep.variant}]: {'pass' if rep.verdict else 'FAIL'}, "
            f"min relative margin {rep.min_rel_margin!r} at t={rep.worst_t!r}, "
            f"N'={rep.worst_nprime!r}")


def _cmd_bm_check(args, cfg):
    space = _load_space(WeightedOneDimSpace, args.space)
    a0 = _csv_floats(args.a0, "--a0")
    a1 = _csv_floats(args.a1, "--a1")
    if len(a0) != 2 or len(a1) != 2:
        raise ValidationError("--a0/--a1 must be lo,hi pairs")
    res = bm_check(space, a0, a1, args.t, args.K, args.N)
    return ("bm-check", {"lhs": res.lhs, "rhs": res.rhs, "margin": res.margin,
                         "ok": res.ok, "a_t": list(res.a_t),
                         "masses": list(res.masses)}, res.ok,
            f"bm-check: {'pass' if res.ok else 'FAIL'} margin {res.margin!r}")


def _cmd_convexity(args, cfg):
    f = _load_values(args.f, "--f")
    rep = kn_convexity_check(f, args.K, args.N, args.h, periodic=args.periodic)
    return ("convexity", dataclasses.asdict(rep), rep.verdict,
            f"convexity: {'pass' if rep.verdict else 'FAIL'} min residual "
            f"{rep.min_residual!r} (tol {rep.tol!r})")


def _cmd_counterexample(args, cfg):
    try:
        D = None if args.D == "auto" else float(args.D)
    except ValueError as e:
        raise ValidationError(f"--D: expected a number or auto: {e}") from e
    params = experiments.CounterexampleParams(
        K=args.K, N=args.N, D=D,
        n_list=tuple(_csv_ints(args.n_list, "--n-list")),
        m=args.m, eps=args.eps)
    rep = experiments.counterexample_report(params)
    return _experiment(rep, rep.metadata["all_convexity_pass"]
                       and rep.metadata["all_mass_bounded"])


def _cmd_cosh_family(args, cfg):
    space = experiments.cosh_family(args.K, args.N, args.lam, args.L, args.M)
    # the space file is an input for the 1D commands, not a report
    out_space = Path(args.out_space) if args.out_space else (
        Path(args.out) / f"cosh-space-{params_hash(_flags_of(args))}.json")
    atomic_write_text(out_space, space.to_json() + "\n")
    return ("cosh-family", {"certified": True, "space_file": out_space.name,
                            "grid_size": space.m, "h": space.h}, True,
            f"cosh-family: certified, space {out_space}")


def _cmd_sinh_example(args, cfg):
    rep = experiments.sinh_example_report(
        args.K, args.N,
        C_list=_csv_floats(args.C_list, "--C-list"),
        R_list=_csv_floats(args.R_list, "--R-list"))
    return _experiment(rep, rep.metadata["all_convexity_pass"]
                       and rep.metadata["order_ratios_ok"]
                       and rep.metadata["all_divergent"])


def _cmd_bm_collapse(args, cfg):
    space = _load_space(WeightedOneDimSpace, args.space)
    rep = experiments.bm_collapse_sweep(
        space, _csv_floats(args.a0, "--a0"), _csv_floats(args.a1, "--a1"),
        args.t, _csv_floats(args.K_list, "--K-list"), args.N)
    return _experiment(rep, rep.metadata["rhs_strictly_decreasing"])


def _cmd_verify_bounds(args, cfg):
    rep = experiments.verify_separation_bounds(
        K_list=_csv_floats(args.K_list, "--K-list"),
        kappas=_csv_floats(args.kappas, "--kappas"),
        N=args.N, lam0=args.lam0, L0=args.L0, m=args.m, slack=args.slack,
        config=cfg)
    return _experiment(rep, rep.metadata["all_sep_bounded"]
                       and rep.metadata["scaling_within_10pct"])


def _cmd_lemma_suite(args, cfg):
    if args.space:
        space = _load_space(FiniteMmSpace, args.space)
    else:
        rng = np.random.default_rng(cfg.seed)
        pts = rng.random((args.n, 3))
        space = FiniteMmSpace.from_points(pts, rng.dirichlet(np.ones(args.n)))
    nprimes = _csv_floats(args.nprimes, "--nprimes")
    suite = entropy_inequality_suite(space, args.trials, nprimes, seed=cfg.seed)
    rep = ExperimentReport(
        name="lemma-suite",
        columns=["check", "passes", "trials"],
        metadata={"params": {"nprimes": nprimes},
                  "failures": list(suite.failures)},
    )
    for check, count in sorted(suite.passes.items()):
        rep.add(check=check, passes=count, trials=suite.trials)
    return _experiment(rep, suite.all_passed)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="reports",
                        help="output directory for reports (default: reports)")
    common.add_argument("--config", help="JSON file with run configuration")
    common.add_argument("--seed", type=int, help="seed recorded in reports")

    p = argparse.ArgumentParser(prog="mmlab",
                                description="numerics for metric measure spaces")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, help_, **flags):
        sp = sub.add_parser(name, parents=[common], help=help_)
        for fname, kw in flags.items():
            sp.add_argument(fname, **kw)
        sp.set_defaults(func=func)
        return sp

    add("w2", _cmd_w2, "exact quadratic transport distance",
        **{"--space": dict(required=True), "--mu": dict(required=True),
           "--nu": dict(required=True)})
    add("prokhorov", _cmd_prokhorov, "Prokhorov distance on a common space",
        **{"--space": dict(required=True), "--mu": dict(required=True),
           "--nu": dict(required=True)})
    add("kyfan", _cmd_kyfan, "Ky Fan distance between two functions",
        **{"--weights": dict(required=True), "--f": dict(required=True),
           "--g": dict(required=True)})
    add("entropy", _cmd_entropy, "relative entropy with negative exponent",
        **{"--mu": dict(required=True), "--nu": dict(required=True),
           "--nprime": dict(required=True, type=float)})
    add("sep", _cmd_sep, "separation distance of the space measure",
        **{"--space": dict(required=True), "--k0": dict(required=True, type=float),
           "--k1": dict(required=True, type=float)})
    add("obsdiam", _cmd_obsdiam, "observable-diameter sandwich",
        **{"--space": dict(required=True),
           "--kappa": dict(required=True, type=float)})
    add("cd-check", _cmd_cd_check, "entropy-convexity check on a 1D space",
        **{"--space": dict(required=True), "--K": dict(required=True, type=float),
           "--N": dict(required=True, type=float),
           "--rho0": dict(), "--rho1": dict(),
           "--variant": dict(default="CD", choices=["CD", "CDstar"]),
           "--t-points": dict(type=int, dest="t_points"),
           "--nprimes": dict(), "--cut": dict(type=int)})
    add("bm-check", _cmd_bm_check, "interval Brunn-Minkowski margin",
        **{"--space": dict(required=True), "--a0": dict(required=True),
           "--a1": dict(required=True), "--t": dict(required=True, type=float),
           "--K": dict(required=True, type=float),
           "--N": dict(required=True, type=float)})
    add("convexity", _cmd_convexity, "convexity residual check",
        **{"--f": dict(required=True), "--K": dict(required=True, type=float),
           "--N": dict(required=True, type=float),
           "--h": dict(required=True, type=float),
           "--periodic": dict(action="store_true")})
    add("counterexample", _cmd_counterexample, "collapsing circle pipeline",
        **{"--K": dict(required=True, type=float),
           "--N": dict(required=True, type=float),
           "--D": dict(default="auto"),
           "--n-list": dict(default="1,2,4,8,16,32,64", dest="n_list"),
           "--M": dict(default=2048, type=int, dest="m"),
           "--eps": dict(default=0.2, type=float)})
    add("cosh-family", _cmd_cosh_family, "certified positive-control space",
        **{"--K": dict(required=True, type=float),
           "--N": dict(required=True, type=float),
           "--lam": dict(required=True, type=float),
           "--L": dict(required=True, type=float),
           "--M": dict(default=512, type=int),
           "--out-space": dict(dest="out_space")})
    add("sinh-example", _cmd_sinh_example, "double-exponential line example",
        **{"--K": dict(required=True, type=float),
           "--N": dict(required=True, type=float),
           "--C-list": dict(default="0.1,1,10", dest="C_list"),
           "--R-list": dict(default="1,2,4,8", dest="R_list")})
    add("bm-collapse", _cmd_bm_collapse, "Brunn-Minkowski curvature sweep",
        **{"--space": dict(required=True), "--a0": dict(required=True),
           "--a1": dict(required=True), "--t": dict(required=True, type=float),
           "--K-list": dict(required=True, dest="K_list"),
           "--N": dict(required=True, type=float)})
    add("thm4-verify", _cmd_verify_bounds, "separation bounds on scaled controls",
        **{"--K-list": dict(default="1,4,16", dest="K_list"),
           "--kappas": dict(default="0.05,0.1,0.2,0.4"),
           "--N": dict(default=-1.0, type=float),
           "--lam0": dict(default=1.0, type=float),
           "--L0": dict(default=3.0, type=float),
           "--M": dict(default=512, type=int, dest="m"),
           "--slack": dict(default=0.02, type=float)})
    add("lemma-suite", _cmd_lemma_suite, "randomized entropy inequality suite",
        **{"--space": dict(), "--n": dict(default=8, type=int),
           "--trials": dict(default=200, type=int),
           "--nprimes": dict(default="-0.5,-1,-3")})
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        name, rep, ok, line = args.func(args, cfg)
        params = _flags_of(args)
        if isinstance(rep, ExperimentReport):
            # the experiment's resolved values win over the flag strings
            rep.metadata["params"] = {**params, **rep.metadata["params"]}
            _, out = rep.write(args.out, cfg)
        else:
            out = write_report(args.out, name, rep, params, cfg)
        print(f"{line} -> {out}")
        return 0 if ok else 1
    except _CHECK_ERRORS as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
