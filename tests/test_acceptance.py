"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `ACCEPTANCE <k>: PASS/FAIL` line (run pytest with -s to
see them inline; failures carry the same detail in the assertion message).
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mmlab.coefficients import tau, tau_vals
from mmlab.config import default_config
from mmlab.core import FiniteMmSpace
from mmlab.curvature import bm_check, cd_check_1d, entropy_inequality_suite
from mmlab.experiments import (
    CounterexampleParams,
    calibrate_cd_budget,
    cosh_family,
    counterexample_report,
    sinh_example_report,
    smooth_density_pairs,
    bm_collapse_sweep,
    verify_separation_bounds,
    two_point_midpoint_gap,
)
from mmlab.transport import (
    WeightedOneDimSpace,
    discretize,
    w2_exact,
    w2_quantile_1d,
)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


# ---------------------------------------------------------------------------
# 1. transport correctness


def test_criterion_1_transport_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    sym_worst = 0.0
    tri_worst = 0.0
    rel_worst = 0.0
    for i in range(200):
        n = int(rng.integers(2, 13))
        if i % 2 == 0:
            pts = rng.random((n, 3))
            space = FiniteMmSpace.from_points(pts, rng.dirichlet(np.ones(n)))
            seg = None
        else:
            L = float(rng.uniform(1.0, 6.0))
            seg = WeightedOneDimSpace.from_density(
                "segment", L, n,
                lambda x: np.full_like(x, 1.0 / L))
            space = discretize(seg)
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        lam = rng.dirichlet(np.ones(n))
        d_mn = w2_exact(space, mu, nu).value
        d_nm = w2_exact(space, nu, mu).value
        sym_worst = max(sym_worst, abs(d_mn - d_nm))
        d_ml = w2_exact(space, mu, lam).value
        d_nl = w2_exact(space, nu, lam).value
        tri_worst = max(tri_worst, d_ml - (d_mn + d_nl))
        if seg is not None:
            rho0 = mu / seg.h
            rho1 = nu / seg.h
            qt = w2_quantile_1d(seg, rho0, rho1, model="atoms").value
            rel_worst = max(rel_worst, abs(qt - d_mn) / max(d_mn, 1e-12))
    elapsed = time.perf_counter() - t0
    ok = sym_worst <= 1e-10 and tri_worst <= 1e-9 and rel_worst <= 1e-9 \
        and elapsed < 60.0
    detail = (f"200 instances: symmetry {sym_worst:.2e} (<=1e-10), triangle "
              f"{tri_worst:.2e} (<=1e-9), quantile rel {rel_worst:.2e} "
              f"(<=1e-9), {elapsed:.1f}s (<60s)")
    assert ok, report(1, ok, detail)
    report(1, ok, detail)


# ---------------------------------------------------------------------------
# 2. coefficient identities


def test_criterion_2_coefficient_identities():
    t0 = time.perf_counter()
    Ks = np.linspace(0.1, 10.0, 10)
    Ns = np.linspace(-5.0, -0.1, 10)
    thetas = np.linspace(0.0, 5.0, 10)
    flat_worst = 0.0
    half_worst = 0.0
    for N in Ns:
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            vals = tau_vals(0.0, float(N), t, thetas)
            flat_worst = max(flat_worst, float(np.max(np.abs(vals - t))))
        for K in Ks:
            for th in thetas:
                got = float(tau(float(K), float(N), 0.5, float(th)))
                closed = 0.5 * math.cosh(
                    0.5 * th * math.sqrt(K / (1.0 - N))) ** (1.0 / N - 1.0)
                half_worst = max(half_worst, abs(got - closed))
    elapsed = time.perf_counter() - t0
    ok = flat_worst <= 1e-12 and half_worst <= 1e-12 and elapsed < 5.0
    detail = (f"1000-cell grid: flat identity {flat_worst:.2e}, midpoint "
              f"closed form {half_worst:.2e} (<=1e-12), {elapsed:.1f}s (<5s)")
    assert ok, report(2, ok, detail)
    report(2, ok, detail)


# ---------------------------------------------------------------------------
# 3. entropy inequality suite


def test_criterion_3_entropy_lemma_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    total = {"pushforward": 0, "conditioning": 0,
             "partition_entropy": 0, "partition_w2": 0}
    failures = []
    trials_per_space = 100
    for s in range(10):
        n = int(rng.integers(4, 11))
        pts = rng.random((n, 3))
        space = FiniteMmSpace.from_points(pts, rng.dirichlet(np.ones(n)))
        suite = entropy_inequality_suite(space, trials_per_space,
                                         (-0.5, -1.0, -3.0), seed=1000 + s)
        for k in total:
            total[k] += suite.passes[k]
        failures.extend(suite.failures)
    elapsed = time.perf_counter() - t0
    ok = all(v == 1000 for v in total.values()) and elapsed < 60.0
    detail = (f"1000 trials/check at 1e-9: {total}, "
              f"{len(failures)} failures, {elapsed:.1f}s (<60s)")
    assert ok, report(3, ok, detail) + f" first failures: {failures[:3]}"
    report(3, ok, detail)


# ---------------------------------------------------------------------------
# 4. positive CD control


def test_criterion_4_positive_cd_control():
    t0 = time.perf_counter()
    c1, c2 = calibrate_cd_budget(K=1.0, N=-1.0, lam=1.0, L=3.0,
                                 resolutions=(256, 512), n_pairs=8, seed=40)
    cfg = default_config().replace(cd_budget_c1=c1, cd_budget_c2=c2)
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 512)
    tol = c1 * space.h + c2 * space.h ** 2
    worst = math.inf
    all_pass = True
    for rho0, rho1 in smooth_density_pairs(space, 50, seed=41):
        rep = cd_check_1d(space, rho0, rho1, 1.0, -1.0,
                          t_grid=np.linspace(0.0, 1.0, 9),
                          nprime_grid=[-1.0, -0.5, -0.1], config=cfg)
        worst = min(worst, rep.min_rel_margin)
        all_pass &= rep.verdict
    rng = np.random.default_rng(42)
    bm_ok = True
    for _ in range(20):
        lo0 = rng.uniform(0.0, 4.0)
        lo1 = rng.uniform(0.0, 4.0)
        a0 = (lo0, lo0 + rng.uniform(0.2, 1.8))
        a1 = (lo1, lo1 + rng.uniform(0.2, 1.8))
        res = bm_check(space, a0, a1, float(rng.uniform(0.0, 1.0)), 1.0, -1.0)
        bm_ok &= res.ok
    elapsed = time.perf_counter() - t0
    ok = all_pass and worst >= -tol and bm_ok and elapsed < 300.0
    detail = (f"50 pairs x 9 t x 3 N': min rel margin {worst:.2e} >= -tol(h) "
              f"= {-tol:.2e} (c1={c1:.2e}, c2={c2:.2e}); 20 interval pairs "
              f"{'pass' if bm_ok else 'FAIL'}; {elapsed:.1f}s (<300s)")
    assert ok, report(4, ok, detail)
    report(4, ok, detail)


# ---------------------------------------------------------------------------
# 5. separation bounds on scaled controls


def test_criterion_5_bound_verification():
    t0 = time.perf_counter()
    rep = verify_separation_bounds(K_list=(1.0, 4.0, 16.0),
                            kappas=(0.05, 0.1, 0.2, 0.4), N=-1.0,
                            lam0=1.0, L0=3.0, m=512, slack=0.02)
    elapsed = time.perf_counter() - t0
    ok = (rep.metadata["all_sep_bounded"]
          and rep.metadata["scaling_within_10pct"] and elapsed < 300.0)
    ratios = [r[2] / r[3] for r in rep.rows]
    detail = (f"12 rows, sep/bound in [{min(ratios):.3f}, {max(ratios):.3f}] "
              f"(slack 2%), scaling within 10%: "
              f"{rep.metadata['scaling_within_10pct']}, {elapsed:.1f}s (<300s)")
    assert ok, report(5, ok, detail)
    report(5, ok, detail)


# ---------------------------------------------------------------------------
# 6. collapsing circle pipeline


@pytest.fixture(scope="module")
def collapse_run():
    t0 = time.perf_counter()
    params = CounterexampleParams(K=-1.0, N=-1.0,
                                  n_list=(1, 2, 4, 8, 16, 32, 64), m=2048,
                                  eps=0.2)
    rep = counterexample_report(params)
    return rep, params, time.perf_counter() - t0


def test_criterion_6a_convexity(collapse_run):
    rep, _, elapsed = collapse_run
    ok = rep.metadata["all_convexity_pass"] and elapsed < 180.0
    detail = (f"convexity pass for n in {rep.column('n')}; pipeline "
              f"{elapsed:.1f}s (<180s)")
    assert ok, report("6a", ok, detail)
    report("6a", ok, detail)


def test_criterion_6b_mass_bound(collapse_run):
    rep, _, _ = collapse_run
    final = rep.metadata["final_mass_outside"]
    ok = rep.metadata["all_mass_bounded"] and final < 0.05
    detail = (f"mass outside eps=0.2 bounded rowwise, final {final:.4f} "
              f"(<0.05)")
    assert ok, report("6b", ok, detail)
    report("6b", ok, detail)


def collapse_verdict(a_col, dp_col, box_col, refs, r):
    """Hold the reported Prokhorov column against the continuum fixed point.

    Each row must match eps*_n within the grid shift h/2 + delta_n and stay
    under 2r/a_n plus that shift; box_upper is twice the distance.  a_n must
    grow like sqrt(n) (ratio sqrt(2) per doubling on the last three rows),
    which drives the bound, and so the distance, to 0.
    """
    dp = np.asarray(dp_col, dtype=float)
    a = np.asarray(a_col, dtype=float)
    diffs = [abs(p - ref.eps_star) for p, ref in zip(dp, refs)]
    worst = int(np.argmax([d - ref.tol for d, ref in zip(diffs, refs)]))
    headroom = min(ref.bound + ref.tol - p for p, ref in zip(dp, refs))
    ratios = a[1:] / a[:-1]
    decreasing = bool(np.all(np.diff(dp) < 0))
    ok = (decreasing
          and all(d <= ref.tol for d, ref in zip(diffs, refs))
          and headroom >= 0.0
          and all(abs(b - 2.0 * p) <= 1e-12 for b, p in zip(box_col, dp))
          and all(abs(x / ref.a_n - 1.0) <= 1e-6 for x, ref in zip(a, refs))
          and bool(np.all(ratios > 1.0))
          and bool(np.all(np.abs(ratios[-3:] - math.sqrt(2.0)) <= 1e-2)))
    detail = (f"prokhorov decreasing: {decreasing}, worst |dp - eps*| "
              f"{diffs[worst]:.2e} (<= h/2 + delta = {refs[worst].tol:.2e}), "
              f"min 2r/a_n + tol - dp {headroom:.2e} (>= 0), a_2n/a_n on "
              f"last rows {', '.join(f'{x:.4f}' for x in ratios[-3:])} "
              f"(sqrt 2 +- 1e-2); final dp*a_n/(2r) = "
              f"{dp[-1] * a[-1] / (2.0 * r):.4f}")
    return ok, detail


def test_criterion_6c_prokhorov_collapse(collapse_run, pole_tail_ref):
    rep, params, _ = collapse_run
    refs = [pole_tail_ref(params, n) for n in params.n_list]
    a_col, dp_col = rep.column("a_n"), rep.column("prokhorov")
    ok, detail = collapse_verdict(a_col, dp_col, rep.column("box_upper"),
                                  refs, params.r)
    ok = ok and rep.metadata["prokhorov_decreasing"]
    assert ok, report("6c", ok, detail)
    # the check must be sharp enough to notice the final distance moving by
    # 5e-3, which is outside h/2 + delta at the last row
    for shift in (-5e-3, 5e-3):
        moved = list(dp_col[:-1]) + [dp_col[-1] + shift]
        box = [2.0 * p for p in moved]
        assert not collapse_verdict(a_col, moved, box, refs, params.r)[0], shift
    report("6c", ok, detail)


def test_criterion_6d_two_point_gap(collapse_run):
    _, params, _ = collapse_run
    res = two_point_midpoint_gap(params.D)
    expect = (math.sqrt(0.5) - 0.5) * params.D
    ok = abs(res.min_gap - expect) <= 1e-6
    detail = (f"gap {res.min_gap:.8f} vs (sqrt(.5)-.5)D = {expect:.8f} "
              f"(|diff| <= 1e-6) at q = {res.q_opt}")
    assert ok, report("6d", ok, detail)
    report("6d", ok, detail)


# ---------------------------------------------------------------------------
# 7. line example and curvature sweep


def test_criterion_7_appendix_examples():
    t0 = time.perf_counter()
    rep = sinh_example_report(1.0, -1.0, C_list=(0.1, 1.0, 10.0),
                              R_list=(1.0, 2.0, 4.0, 8.0))
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 512)
    sweep = bm_collapse_sweep(space, (0.5, 1.5), (4.5, 5.5), 0.5,
                              [1.0, 10.0, 100.0, 1000.0, 10000.0], -1.0)
    elapsed = time.perf_counter() - t0
    ok = (rep.metadata["all_convexity_pass"] and rep.metadata["order_ratios_ok"]
          and rep.metadata["all_divergent"]
          and sweep.metadata["rhs_strictly_decreasing"]
          and sweep.metadata["final_rhs_over_lhs"] < 1e-3
          and elapsed < 120.0)
    detail = (f"convexity at h=1e-2,1e-3 with order ratios ok; divergence for "
              f"C=0.1,1,10; sweep decreasing with final rhs/lhs "
              f"{sweep.metadata['final_rhs_over_lhs']:.2e} (<1e-3); "
              f"{elapsed:.1f}s (<120s)")
    assert ok, report(7, ok, detail)
    report(7, ok, detail)


# ---------------------------------------------------------------------------
# 8. determinism


def test_criterion_8_determinism(tmp_path):
    cmds = [
        ["counterexample", "--K", "-1", "--N", "-1", "--D", "auto",
         "--n-list", "1,2,4", "--M", "512", "--seed", "11"],
        ["thm4-verify", "--K-list", "1,4", "--kappas", "0.1,0.3",
         "--M", "128", "--seed", "11"],
        ["sinh-example", "--K", "1", "--N", "-1", "--seed", "11"],
        ["lemma-suite", "--n", "6", "--trials", "40", "--seed", "11"],
    ]
    digests = []
    for run in ("run1", "run2"):
        outdir = tmp_path / run
        for cmd in cmds:
            res = subprocess.run(
                [sys.executable, "-m", "mmlab.cli", *cmd, "--out", str(outdir)],
                capture_output=True, text=True)
            assert res.returncode == 0, (cmd, res.stdout, res.stderr)
        blobs = {p.name: p.read_bytes()
                 for p in sorted(outdir.glob("*.csv"))}
        blobs |= {p.name: p.read_bytes() for p in sorted(outdir.glob("*.json"))}
        digests.append(blobs)
    ok = digests[0] == digests[1] and len(digests[0]) >= 8
    detail = (f"{len(digests[0])} report files byte-identical across two runs: "
              f"{ok}")
    assert ok, report(8, ok, detail)
    report(8, ok, detail)
