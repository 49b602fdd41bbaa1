"""Output checks, computed apart from the program.

Nothing here imports mmlab.  Every check compares an output with a
reference the benchmark computes itself from the seeded inputs (quantile
integrals, closed forms, window scans, an integer max-flow, quadrature), or
with a property the method must have.  Each tolerance says where its margin
comes from.  ``check(workload, inputs, outputs)`` returns a list of failure
messages; an empty list means every output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.optimize import brentq, linprog
from scipy.sparse.csgraph import maximum_flow

import inputs

EPS = np.finfo(float).eps

# W2 symmetry, the triangle inequality and W2 against a quantile integral
# (relative), at the tolerances acceptance criterion 1 pins
W2_SYM_TOL = 1e-10
W2_TRI_TOL = 1e-9
W2_QUANTILE_REL = 1e-9
# both sides of the CD inequality at t = 0 and t = 1 are the same endpoint
# entropy; they differ by the rounding of m-term sums (m <= 512)
ENDPOINT_REL = 1e-10
# the interpolant's cell masses telescope to 1; rounding of ~2m additions
MASS_TOL = 1e-12
# Prokhorov: the program accepts F_k >= 1 - d_k - 1e-9 (tolerances.entropy)
PROKHOROV_TOL = 1e-9
# reference LPs by HiGHS at its default feasibility and optimality
# tolerances (1e-7), on costs below 3
LP_TOL = 1e-6
# relative rounding between two exact evaluations of the same quantity
ROUND_REL = 1e-12


class Failures(list):
    def expect(self, ok, msg: str) -> None:
        if not ok:
            self.append(msg)


# ---------------------------------------------------------------------------
# one-dimensional references


def _quantile(edges, masses):
    """Cumulative breaks and a function Q(u, piece) of the quantile of a
    piecewise-constant density; each positive cell is one affine piece."""
    pos = masses > 0
    cum = np.concatenate([[0.0], np.cumsum(masses[pos])])
    cum /= cum[-1]
    lo, hi = edges[:-1][pos], edges[1:][pos]

    def q(u, piece):
        width = cum[piece + 1] - cum[piece]
        return lo[piece] + (u - cum[piece]) / width * (hi[piece] - lo[piece])

    return cum, q


def w2_cells(length: float, m0, m1) -> float:
    """Exact W2 between two piecewise-constant densities on [0, length],
    given as cell masses on the same uniform grid.

    Between consecutive points of the union of the two CDF breakpoints both
    quantile functions are affine, so each piece integrates exactly."""
    edges = np.linspace(0.0, length, np.size(m0) + 1)
    c0, q0 = _quantile(edges, np.asarray(m0, dtype=float))
    c1, q1 = _quantile(edges, np.asarray(m1, dtype=float))
    u = np.union1d(c0, c1)
    a, b = u[:-1], u[1:]
    mid = 0.5 * (a + b)
    p0 = np.clip(np.searchsorted(c0, mid) - 1, 0, c0.size - 2)
    p1 = np.clip(np.searchsorted(c1, mid) - 1, 0, c1.size - 2)
    da = q0(a, p0) - q1(a, p1)
    db = q0(b, p0) - q1(b, p1)
    return math.sqrt(max(float(np.sum((b - a) / 3.0 * (da * da + da * db + db * db))), 0.0))


def transport_lp(cost, wa, wb) -> float:
    """Optimal transport cost on a finite space by HiGHS, as an LP written
    apart from the program's."""
    sa, sb = np.flatnonzero(wa > 0), np.flatnonzero(wb > 0)
    na, nb = sa.size, sb.size
    cost = np.asarray(cost)[np.ix_(sa, sb)].ravel()
    rows = np.concatenate([np.repeat(np.arange(na), nb),
                           na + np.tile(np.arange(nb), na)])
    cols = np.concatenate([np.arange(na * nb), np.arange(na * nb)])
    A = sparse.csr_matrix((np.ones(2 * na * nb), (rows, cols)),
                          shape=(na + nb, na * nb))
    res = linprog(cost, A_eq=A, b_eq=np.concatenate([wa[sa], wb[sb]]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


def circle_w1(length: float, m0, m1) -> float:
    """W1 on the circle (Cabrelli-Molter): min over c of the integral of
    |F0 - F1 - c|, with c the Lebesgue median of F0 - F1.

    F0 - F1 is linear on each cell, so for fixed c each cell integrates in
    closed form; the median is found by bisection on the convex objective's
    subgradient."""
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    h = length / m0.size
    G = np.concatenate([[0.0], np.cumsum(m0 / m0.sum() - m1 / m1.sum())])
    a0, b0 = G[:-1], G[1:]

    def below(c: float) -> float:
        a, b = a0 - c, b0 - c
        frac = np.where(a * b < 0, np.where(a < 0, a, b) / (a - b) *
                        np.where(a < 0, 1.0, -1.0), np.where(a + b < 0, 1.0, 0.0))
        return float(frac.sum() * h)

    lo, hi = float(G.min()), float(G.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid) < 0.5 * length:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    a, b = a0 - c, b0 - c
    same = a * b >= 0
    den = np.where(same, 1.0, np.abs(a - b))
    part = np.where(same, np.abs(a + b) / 2.0, (a * a + b * b) / (2.0 * den))
    return float(part.sum() * h)


def renyi(mu, nu, nprime: float) -> float:
    """sum (nu_i/mu_i)^(1 - 1/N') mu_i over the support of mu."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    pos = mu > 0
    return float(np.sum((nu[pos] / mu[pos]) ** (1.0 - 1.0 / nprime) * mu[pos]))


def cd_separation_bound(K: float, N: float, k0: float, k1: float) -> float:
    """Closed-form separation bound for CD(K, N), K > 0 > N."""
    mean = 0.5 * (k0 ** (1.0 / N) + k1 ** (1.0 / N))
    arg = mean ** (-N / (1.0 - N))
    return 2.0 * math.sqrt((1.0 - N) / K) * math.acosh(arg)


def window_scan(x, w, alpha: float, mass_tol: float = 1e-12) -> float:
    """Smallest x-width of a window holding mass >= alpha, over all O(m^2)
    windows of the sorted points."""
    order = np.argsort(x, kind="stable")
    xs = np.asarray(x, dtype=float)[order]
    cum = np.concatenate([[0.0], np.cumsum(np.asarray(w, dtype=float)[order])])
    mass = cum[None, 1:] - cum[:-1, None]        # window [i, j], j >= i
    width = xs[None, :] - xs[:, None]
    ok = (mass >= alpha - mass_tol) & (width >= 0)
    return float(width[ok].min())


# ---------------------------------------------------------------------------
# finite-space references


def max_flow_prokhorov(dist, wa, wb) -> float:
    """Prokhorov distance with the close-mass function F computed by an
    integer max-flow on masses counted in units of 1/UNIT.

    F_k is the largest coupling mass on pairs within d_k; the distance is
    the first d_k with F_k >= 1 - d_k, or the crossing 1 - F_{k-1} of the
    previous constant piece if that is smaller."""
    ca = np.rint(np.asarray(wa) * inputs.UNIT).astype(np.int64)
    cb = np.rint(np.asarray(wb) * inputs.UNIT).astype(np.int64)
    if ca.sum() != inputs.UNIT or cb.sum() != inputs.UNIT:
        raise ValueError("masses are not multiples of 1/UNIT")
    sa, sb = np.flatnonzero(ca), np.flatnonzero(cb)
    d = np.asarray(dist, dtype=float)[np.ix_(sa, sb)]
    na, nb = sa.size, sb.size
    src, snk = na + nb, na + nb + 1
    cands = np.unique(np.concatenate([[0.0], d.ravel()]))

    def F(k: int) -> float:
        ii, jj = np.nonzero(d <= cands[k])
        rows = np.concatenate([np.full(na, src), ii, na + np.arange(nb)])
        cols = np.concatenate([np.arange(na), na + jj, np.full(nb, snk)])
        caps = np.concatenate([ca[sa], np.full(ii.size, inputs.UNIT), cb[sb]])
        g = sparse.csr_matrix((caps.astype(np.int32), (rows, cols)),
                              shape=(na + nb + 2, na + nb + 2))
        return maximum_flow(g, src, snk).flow_value / inputs.UNIT

    def feasible(k: int) -> bool:
        return F(k) >= 1.0 - cands[k]

    if feasible(0):
        return 0.0
    lo, hi = 0, cands.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return float(min(cands[hi], 1.0 - F(hi - 1)))


def ky_fan_scan(w, f, g) -> float:
    """Smallest candidate eps (0, a gap level, or the mass above a level)
    with mass(|f - g| > eps) <= eps, each candidate checked directly."""
    w = np.asarray(w, dtype=float)
    gaps = np.abs(np.asarray(f, dtype=float) - np.asarray(g, dtype=float))
    cands = {0.0, *gaps.tolist()}
    cands |= {float(w[gaps > lvl].sum()) for lvl in list(cands)}
    return min(e for e in cands if float(w[gaps > e].sum()) <= e)


# ---------------------------------------------------------------------------
# collapsing circle: continuum pole-tail fixed point


def pole_tail(K: float, N: float, m: int, n: int):
    """(a_n, eps*_n, h/2 + delta_n) for softness n on the circle family at
    the admissibility floor D = pi sqrt((N-1)/K), by quadrature of the
    closed-form density a_n^{N'} F_n(sin(t/r))^{N'}.

    Reflection symmetry splits the pole-neighbourhood mass evenly, so the
    Prokhorov distance to the two-atom limit is the fixed point of the
    pole-tail mass.  delta_n is the total-variation gap between the
    normalised midpoint cell masses and the exact cell integrals (16-point
    Gauss-Legendre per cell; cells are at most a fifth of the peak width)."""
    npr = N - 1.0
    D = math.pi * math.sqrt((N - 1.0) / K)
    r = D / math.pi
    quarter = D / 2.0

    def profile(t):
        x = n * np.sin(np.asarray(t) / r)
        return (np.logaddexp(x, -x) / n) ** npr

    breaks = [c * r / n for c in (1, 4, 16) if c * r / n < quarter]

    def integral(a, b):
        inner = [p for p in breaks if a < p < b]
        return quad(profile, a, b, points=inner or None, limit=200,
                    epsabs=0.0, epsrel=1e-12)[0]

    q_mass = integral(0.0, quarter)
    a_n = (4.0 * q_mass) ** (-1.0 / npr)
    eps_star = brentq(lambda e: integral(e, quarter) / q_mass - e,
                      1e-12, quarter, xtol=1e-14)
    h = 2.0 * D / m
    k = m // 4
    gx, gw = np.polynomial.legendre.leggauss(16)
    left = np.arange(k)[:, None] * h
    nodes = left + 0.5 * h * (gx[None, :] + 1.0)
    exact = (profile(nodes) * gw[None, :]).sum(axis=1) * 0.5 * h
    exact /= 4.0 * q_mass
    mid = profile((np.arange(k) + 0.5) * h)
    mid /= 4.0 * mid.sum()
    delta = 2.0 * float(np.abs(mid - exact).sum())
    return a_n, eps_star, h / 2.0 + delta


def check_collapse(fails: Failures, where: str, params: dict, rows: dict,
                   refs: dict) -> None:
    dp = rows["prokhorov"]
    fails.expect(list(rows["n"]) == list(params["n_list"]),
                 f"{where}: softness column {rows['n']}")
    fails.expect(all(b < a for a, b in zip(dp, dp[1:])),
                 f"{where}: prokhorov column not decreasing: {dp}")
    for n, a_n, p in zip(rows["n"], rows["a_n"], dp):
        ref_a, eps_star, tol = refs[n]
        fails.expect(abs(a_n / ref_a - 1.0) <= 1e-6,
                     f"{where}: a_{n} = {a_n!r} vs quadrature {ref_a!r} "
                     f"(rel 1e-6)")
        fails.expect(abs(p - eps_star) <= tol,
                     f"{where}: prokhorov at n={n} is {p!r}, pole-tail fixed "
                     f"point {eps_star!r}, tolerance h/2 + delta = {tol:.3e}")


def collapse_refs(params: dict) -> dict:
    return {n: pole_tail(params["K"], params["N"], params["m"], n)
            for n in params["n_list"]}


# ---------------------------------------------------------------------------
# workloads


def check_geodesic(inp: dict, outputs: list) -> Failures:
    fails = Failures()
    refs = {}
    for k, out in enumerate(outputs):
        if out is None:
            continue
        i = out["i"]
        for s, (item, res) in enumerate(zip(inp["spaces"], out["spaces"])):
            where = f"op {k} space {s}"
            spec, pair = item["spec"], item["pairs"][i]
            m, length = spec["m"], 2.0 * spec["L"]
            h = length / m
            if (s, i) not in refs:
                mu = np.exp(inputs.cosh_log_density(spec)) * h
                m0, m1 = pair["rho0"] * h, pair["rho1"] * h
                refs[(s, i)] = (mu, w2_cells(length, m0, m1))
            mu, w2_ref = refs[(s, i)]
            fails.expect(res["verdict"], f"{where}: cosh control CD check failed")
            for t, nprime, lhs, rhs, rel in res["cells"]:
                if t not in (0.0, 1.0):
                    continue
                rho = pair["rho0"] if t == 0.0 else pair["rho1"]
                ent = renyi(mu, rho * h, nprime)
                fails.expect(abs(rel) <= ENDPOINT_REL,
                             f"{where}: margin {rel!r} at t={t}, N'={nprime} "
                             f"(both sides are the endpoint entropy)")
                fails.expect(abs(lhs - ent) <= ENDPOINT_REL * ent,
                             f"{where}: entropy {lhs!r} at t={t}, N'={nprime} "
                             f"vs {ent!r}")
            fails.expect(abs(res["w2"] - w2_ref) <= W2_QUANTILE_REL * max(w2_ref, 1e-12),
                         f"{where}: w2_quantile_1d {res['w2']!r} vs exact "
                         f"quantile integral {w2_ref!r}")
            rho_t = np.asarray(res["rho_t"])
            mass_t = rho_t * h
            fails.expect(bool(np.all(rho_t >= 0.0))
                         and abs(float(mass_t.sum()) - 1.0) <= MASS_TOL,
                         f"{where}: interpolant mass {float(mass_t.sum())!r}")
            w2_t = w2_cells(length, pair["rho0"] * h, mass_t)
            gap = abs(w2_t - pair["t"] * w2_ref)
            fails.expect(gap <= h,
                         f"{where}: |W2(rho0, rho_t) - t W2(rho0, rho1)| = "
                         f"{gap:.3e} > h = {h:.3e} (resampling moves mass "
                         f"within one cell)")
        c = inp["circles"][i]
        res = out["circle"]
        where = f"op {k} circle"
        h = c["length"] / c["m"]
        if ("circle", i) not in refs:
            refs[("circle", i)] = circle_w1(c["length"], c["rho0"] * h,
                                            c["rho1"] * h)
        w1 = refs[("circle", i)]
        fails.expect(w1 <= res["value"] * (1.0 + ROUND_REL),
                     f"{where}: W2 {res['value']!r} below circle W1 {w1!r}")
        fails.expect(res["value"] <= c["k"] * h * (1.0 + ROUND_REL),
                     f"{where}: W2 {res['value']!r} above rotation cost "
                     f"{c['k'] * h!r}")
        fails.expect(0 <= res["cut"] < c["m"] and res["report_cut"] == res["cut"],
                     f"{where}: cut {res['cut']} reported as {res['report_cut']}")
        fails.expect(res["verdict"], f"{where}: flat-circle CD check failed "
                     f"at cut {res['cut']}")
    return fails


def check_concentration(inp: dict, outputs: list) -> Failures:
    fails = Failures()
    refs = {}
    collapse = None
    for k, out in enumerate(outputs):
        if out is None:
            continue
        i = out["i"]
        for s, (item, res) in enumerate(zip(inp["bundles"][i], out["spaces"])):
            where = f"op {k} space {s}"
            spec = item["spec"]
            K, N = spec["K"], spec["N"]
            h = 2.0 * spec["L"] / spec["m"]
            x = (np.arange(spec["m"]) + 0.5) * h
            w = np.asarray(res["weights"])
            if (i, s) not in refs:
                w_ref = np.exp(inputs.cosh_log_density(spec)) * h
                refs[(i, s)] = (w_ref / w_ref.sum(),
                                window_scan(x, w, 1.0 - item["kappa"]))
            w_ref, pd_ref = refs[(i, s)]
            fails.expect(float(np.max(np.abs(w - w_ref))) <= 1e-10 * float(w_ref.max()),
                         f"{where}: discretised weights differ from the cosh "
                         f"cell masses")
            # atoms sit within h/2 of the continuum mass they carry, so any
            # gap between two sets moves by at most h
            bound = cd_separation_bound(K, N, item["k0"], item["k1"])
            fails.expect(res["sep_exact"] and res["sep"] <= bound + h,
                         f"{where}: separation {res['sep']!r} above the "
                         f"CD({K:.3f},{N:.3f}) bound {bound!r} + h")
            half = 0.5 * item["kappa"]
            bound = cd_separation_bound(K, N, half, half)
            fails.expect(res["upper"] <= bound + h,
                         f"{where}: sandwich upper {res['upper']!r} above the "
                         f"bound {bound!r} + h")
            span = float(x[-1] - x[0])
            fails.expect(res["lower"] <= res["upper"] + ROUND_REL * span,
                         f"{where}: sandwich lower {res['lower']!r} above "
                         f"upper {res['upper']!r}")
            # the program measures widths in line-embedding coordinates
            # |x_i - x_a|, the scan in grid coordinates: rounding of the span
            fails.expect(res["pd_exact"]
                         and abs(res["pd"] - pd_ref) <= ROUND_REL * span,
                         f"{where}: partial diameter {res['pd']!r} vs window "
                         f"scan {pd_ref!r}")
        if collapse is None:
            collapse = collapse_refs(inp["collapse"])
        check_collapse(fails, f"op {k} collapse", inp["collapse"],
                       out["collapse"], collapse)
    return fails


def _finite_refs(s: dict) -> dict:
    mu, nu = s["mu"], s["nu"]
    dist = s["dist"]
    off = ~np.eye(s["n"], dtype=bool)
    return {"prokhorov": max_flow_prokhorov(dist, mu, nu),
            "tv": 0.5 * float(np.abs(mu - nu).sum()),
            "d_min": float(dist[off].min()),
            "w1": transport_lp(dist, mu, nu),
            "kyfan": ky_fan_scan(s["weights"], s["f"], s["g"])}


def check_finite_space(fails: Failures, where: str, s: dict, res: dict,
                       ref: dict) -> None:
    d_mn, d_nm, d_ml, d_nl = res["w2"]
    fails.expect(abs(d_mn - d_nm) <= W2_SYM_TOL,
                 f"{where}: W2 asymmetric {d_mn!r} vs {d_nm!r}")
    fails.expect(d_ml <= d_mn + d_nl + W2_TRI_TOL,
                 f"{where}: triangle inequality {d_ml!r} > {d_mn!r} + {d_nl!r}")
    pk = res["prokhorov"]
    fails.expect(abs(pk - ref["prokhorov"]) <= PROKHOROV_TOL,
                 f"{where}: prokhorov {pk!r} vs max-flow {ref['prokhorov']!r}")
    tv = ref["tv"]
    fails.expect(min(tv, ref["d_min"]) - PROKHOROV_TOL <= pk <= tv + PROKHOROV_TOL,
                 f"{where}: prokhorov {pk!r} outside [min(TV, d_min), TV] "
                 f"with TV = {tv!r}")
    fails.expect(pk * pk <= ref["w1"] + LP_TOL and ref["w1"] <= d_mn + LP_TOL,
                 f"{where}: pi^2 <= W1 <= W2 fails: {pk * pk!r}, "
                 f"{ref['w1']!r}, {d_mn!r}")
    fails.expect(res["kyfan"] == ref["kyfan"],
                 f"{where}: ky_fan {res['kyfan']!r} vs level scan {ref['kyfan']!r}")
    suite = res["suite"]
    if suite is not None:
        fails.expect(suite["failures"] == 0
                     and all(v == suite["trials"] for v in suite["passes"].values()),
                     f"{where}: entropy suite {suite}")


def check_finite_lp(inp: dict, outputs: list) -> Failures:
    fails = Failures()
    refs = {}
    for k, out in enumerate(outputs):
        if out is None:
            continue
        i = out["i"]
        for j, (s, res) in enumerate(zip(inp["bundles"][i], out["spaces"])):
            if (i, j) not in refs:
                refs[(i, j)] = _finite_refs(s)
            check_finite_space(fails, f"op {k} space {j} (n={s['n']})", s, res,
                               refs[(i, j)])
    return fails


CLI_REPORTS = ("entropy", "kyfan", "w2", "prokhorov", "convexity",
               "sinh-example", "counterexample", "lemma-suite")


def _report(files: dict, name: str) -> dict:
    found = [f for f in files
             if f.endswith(".json") and f.rsplit("-", 1)[0] == name]
    if len(found) != 1:
        raise KeyError(f"expected one {name} report, found {found}")
    return json.loads(files[found[0]])


def convexity_min_residual(f, K: float, N: float, h: float):
    """(min residual, rounding bound) of Hess exp(-f/N) + (K/N) exp(-f/N) by
    central differences; the stencil rounds by about 4 eps |g| / h^2, and
    the bound allows twice that."""
    g = np.exp(-np.asarray(f, dtype=float) / N)
    res = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (h * h) + (K / N) * g[1:-1]
    return float(res.min()), 8.0 * EPS * float(np.abs(g).max()) / (h * h)


def sinh_volume(K: float, N: float, C: float, R: float) -> float:
    """log of the integral of exp(-C x^2 + (N-1) a sinh x) over [-R, R]."""
    a = math.sqrt(0.25 - K / (N - 1.0))

    def logf(x):
        return -C * x * x + (N - 1.0) * a * math.sinh(x)

    top = max(logf(-R), logf(R), logf(0.0))
    val = quad(lambda x: math.exp(logf(x) - top), -R, R, limit=200,
               epsabs=0.0, epsrel=1e-12)[0]
    return top + math.log(val)


def check_cli_reports(fails: Failures, inp: dict, files: dict) -> None:
    sp = inp["space"]
    rep = _report(files, "entropy")
    e = inp["entropy"]
    ref = renyi(e["mu"], e["nu"], e["nprime"])
    fails.expect(abs(rep["value"] - ref) <= ROUND_REL * ref,
                 f"cli entropy {rep['value']!r} vs {ref!r}")
    kf = inp["kyfan"]
    ref = ky_fan_scan(kf["weights"], kf["f"], kf["g"])
    rep = _report(files, "kyfan")
    fails.expect(rep["value"] == ref, f"cli kyfan {rep['value']!r} vs scan {ref!r}")
    rep = _report(files, "w2")
    ref = transport_lp(sp["dist"] ** 2, sp["mu"], sp["nu"])
    fails.expect(abs(rep["value"] ** 2 - ref) <= LP_TOL,
                 f"cli w2 {rep['value']!r} vs reference LP {math.sqrt(ref)!r}")
    rep = _report(files, "prokhorov")
    ref = max_flow_prokhorov(sp["dist"], sp["mu"], sp["nu"])
    fails.expect(abs(rep["value"] - ref) <= PROKHOROV_TOL
                 and rep["box_upper"] == 2.0 * rep["value"],
                 f"cli prokhorov {rep['value']!r} vs max-flow {ref!r}")
    cv = inp["convexity"]
    rep = _report(files, "convexity")
    ref, tol = convexity_min_residual(cv["f"], cv["K"], cv["N"], cv["h"])
    fails.expect(rep["verdict"] is True and abs(rep["min_residual"] - ref) <= tol,
                 f"cli convexity {rep['min_residual']!r} vs {ref!r} "
                 f"(verdict {rep['verdict']})")
    sh = inp["sinh"]
    rep = _report(files, "sinh-example")
    meta = rep["metadata"]
    fails.expect(meta["all_convexity_pass"] and meta["order_ratios_ok"]
                 and meta["all_divergent"], f"cli sinh-example flags {meta}")
    a = math.sqrt(0.25 - sh["K"] / (sh["N"] - 1.0))
    volumes = {}
    for section, key, x, value, extra, ok in rep["rows"]:
        if section == "convexity":
            xs = np.arange(-5.0, 5.0 + x / 2.0, x)
            f = -(sh["N"] - 1.0) * a * np.sinh(xs)
            ref, tol = convexity_min_residual(f, sh["K"], sh["N"] - 1.0, x)
            fails.expect(abs(value - ref) <= tol,
                         f"cli sinh convexity at h={x}: {value!r} vs {ref!r}")
        elif section == "volume":
            volumes.setdefault(key, []).append((x, value))
    for key, rows in volumes.items():
        C = float(key.split("=", 1)[1])
        logs = [v for _, v in rows]
        # the divergence verdict: the last doubling of R grows the damped
        # mass by at least the configured factor 1.5
        fails.expect(logs[-1] - logs[-2] >= math.log(1.5),
                     f"cli sinh volume {key} does not diverge: {logs}")
        for R, value in rows:
            if R <= 2.0:
                # Simpson at h = 1/256; where the integrand carries its mass
                # for R <= 2 its log slope stays below about 10 per unit, so
                # the relative error is near (10 h)^4 / 180, about 1e-8
                ref = sinh_volume(sh["K"], sh["N"], C, R)
                fails.expect(abs(value - ref) <= 1e-7,
                             f"cli sinh volume {key} R={R}: {value!r} vs {ref!r}")
    rep = _report(files, "counterexample")
    cols = rep["columns"]
    rows = {c: [r[cols.index(c)] for r in rep["rows"]]
            for c in ("n", "a_n", "prokhorov")}
    check_collapse(fails, "cli counterexample", inp["collapse"], rows,
                   collapse_refs(inp["collapse"]))
    rep = _report(files, "lemma-suite")
    fails.expect(rep["metadata"]["failures"] == []
                 and all(r[1] == r[2] == inp["lemma"]["trials"]
                         for r in rep["rows"]) and len(rep["rows"]) == 4,
                 f"cli lemma-suite rows {rep['rows']}")


def check_cli(inp: dict, outputs: list) -> Failures:
    fails = Failures()
    done = [o for o in outputs if o is not None]
    for k, out in enumerate(done):
        names = sorted(f.rsplit("-", 1)[0] for f in out["files"]
                       if f.endswith(".json"))
        fails.expect(names == sorted(CLI_REPORTS), f"op {k}: reports {names}")
    fails.expect(len(done) >= 2, "fewer than two bundles to compare")
    for k, out in enumerate(done[1:], start=1):
        fails.expect(out["files"] == done[0]["files"],
                     f"op {k}: reports differ in bytes from op 0")
    if done and not fails:
        try:
            check_cli_reports(fails, inp, done[0]["files"])
        except (KeyError, ValueError, IndexError, TypeError) as e:
            fails.append(f"cli report unreadable: {type(e).__name__}: {e}")
    return fails


CHECKS = {"geodesic": check_geodesic, "concentration": check_concentration,
          "finite-lp": check_finite_lp, "cli": check_cli}


def check(workload: str, inp: dict, outputs: list) -> Failures:
    return CHECKS[workload](inp, outputs)
