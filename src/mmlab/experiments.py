"""End-to-end pipelines: the circle collapse family, certified positive
controls, the two-point midpoint obstruction, the sinh line example, and the
large-curvature Brunn-Minkowski sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import f_softabs
from .concentration import (
    cd_separation_bound,
    levy_bound_sequence,
    obsdiam_sandwich,
    separation,
)
from .config import MASS_1D_TOL, QUADRATURE_REL_TOL, RunConfig, default_config
from .core import _check_dimension, _check_finite, _require
from .curvature import (
    bm_check,
    cd_check_1d,
    convexity_order_study,
    kn_convexity_check,
    volume_growth_probe,
)
from .errors import ConvexityViolation, QuadratureNonConvergent, ValidationError
from .reporting import ExperimentReport
from .transport import (
    WeightedOneDimSpace,
    discretize,
    interval_mass,
    prokhorov_from_distances,
)

__all__ = [
    "CounterexampleParams",
    "build_counterexample",
    "counterexample_report",
    "two_point_midpoint_gap",
    "TwoPointGap",
    "cosh_family",
    "smooth_density_pairs",
    "calibrate_cd_budget",
    "sinh_example_report",
    "bm_collapse_sweep",
    "verify_separation_bounds",
]


# ---------------------------------------------------------------------------
# circle collapse family


@dataclass(frozen=True)
class CounterexampleParams:
    """Parameters of the collapsing circle family.

    The circle has circumference 2 D (so diameter D); the admissibility
    floor D >= pi sqrt((N-1)/K) is enforced at construction, and K, N and
    D must be finite.  ``n_list``
    are softness indices of the smoothed absolute value, ``m`` the grid
    size, ``eps`` the pole-neighbourhood radius used in the mass columns.
    """

    K: float = -1.0
    N: float = -1.0
    D: float | None = None
    n_list: tuple = (1, 2, 4, 8, 16, 32, 64)
    m: int = 2048
    eps: float = 0.2

    def __post_init__(self):
        _check_finite(self.K)
        _check_finite(self.N, "N")
        if self.D is not None:
            _check_finite(self.D, "D")
        _require(self.K < 0, "K", "must be negative", self.K)
        _check_dimension(self.N)
        d_min = math.pi * math.sqrt((self.N - 1.0) / self.K)
        if self.D is None:
            object.__setattr__(self, "D", d_min)
        _require(self.D >= d_min - 1e-12, "D",
                 f"must be at least the admissible floor {d_min}", self.D)
        _require(self.m >= 256, "m", "must be at least 256", self.m)
        _require(0.0 < self.eps < self.D / 2.0, "eps", "must lie in (0, D/2)",
                 self.eps)

    @property
    def nprime(self) -> float:
        return self.N - 1.0

    @property
    def r(self) -> float:
        return self.D / math.pi

    @property
    def kappa(self) -> float:
        return self.K / self.nprime


def _pole_profile(params: CounterexampleParams, n: int, t: np.ndarray) -> np.ndarray:
    """F_n(sin(t / r)) along arclength t on the circle of circumference 2D."""
    return f_softabs(float(n), np.sin(t / params.r))


def build_counterexample(params: CounterexampleParams, n: int):
    """Circle space with density proportional to the profile to the power
    N' = N - 1, together with the normaliser a_n.

    a_n is computed with the periodic midpoint rule under doubling until the
    relative change drops below ``QUADRATURE_REL_TOL``; the density then
    integrates to 1 on the declared grid (the rule is spectrally accurate
    for this analytic density).
    """
    npr = params.nprime
    length = 2.0 * params.D

    def integral(m: int) -> float:
        h = length / m
        t = (np.arange(m) + 0.5) * h
        return float(np.sum(_pole_profile(params, n, t) ** npr) * h)

    m = params.m
    declared = prev = integral(m)
    converged = None
    for _ in range(12):
        m *= 2
        cur = integral(m)
        if abs(cur - prev) <= QUADRATURE_REL_TOL * abs(cur):
            converged = cur
            break
        prev = cur
    if converged is None:
        raise QuadratureNonConvergent(
            f"normaliser quadrature stalled at {m} points"
        )
    grid_mass = declared / converged
    if abs(grid_mass - 1.0) > MASS_1D_TOL:
        raise QuadratureNonConvergent(
            f"grid size {params.m} too coarse for softness {n}: "
            f"declared-rule mass off by {abs(grid_mass - 1.0):.2e}"
        )
    a_n = converged ** (-1.0 / npr)
    h = length / params.m
    grid = (np.arange(params.m) + 0.5) * h
    log_density = npr * (math.log(a_n)
                         + np.log(_pole_profile(params, n, grid)))
    space = WeightedOneDimSpace("circle", length, log_density)
    return space, a_n


def _mass_outside_poles(space: WeightedOneDimSpace, D: float, eps: float) -> float:
    return (interval_mass(space, eps, D - eps)
            + interval_mass(space, D + eps, 2.0 * D - eps))


def counterexample_report(params: CounterexampleParams) -> ExperimentReport:
    """Per-index diagnostics of the collapsing family.

    Columns: convexity certification of the density exponent at modulus
    K/N', the mass outside the eps-neighbourhood of the two poles together
    with its closed-form bound, the Prokhorov distance to the two-atom
    limit measure, and the implied box-distance upper bound.

    By the symmetry of the density the pole neighbourhoods hold equal mass,
    so the ``prokhorov`` column is the fixed point of the pole-tail mass,
    tail(eps) = eps, evaluated on the grid.  Since F_n(x) > |x| the tail is
    at most 4 r^2 / (a_n^2 eps), which bounds the continuum fixed point by
    2r / a_n with r = D / pi; the distance therefore decays like 1/a_n.
    """
    rep = ExperimentReport(
        name="counterexample",
        columns=["n", "a_n", "conv_min_residual", "conv_tol", "conv_pass",
                 "mass_outside", "mass_bound", "mass_pass",
                 "prokhorov", "box_upper"],
        metadata={"params": {"K": params.K, "N": params.N, "D": params.D,
                             "n_list": list(params.n_list), "m": params.m,
                             "eps": params.eps}},
    )
    D, eps, npr = params.D, params.eps, params.nprime
    poles = np.array([0.0, D])
    for n in params.n_list:
        space, a_n = build_counterexample(params, n)
        conv = kn_convexity_check(-space.log_density, params.K, npr, space.h,
                                  periodic=True)
        mass_out = _mass_outside_poles(space, D, eps)
        bound = a_n ** npr * math.sin(eps / params.r) ** npr * (2.0 * D - 4.0 * eps)
        circ = space.total_length
        gaps = np.abs(space.grid[:, None] - poles[None, :])
        dist = np.minimum(gaps, circ - gaps)
        w = space.cell_masses
        dp = prokhorov_from_distances(dist, w / w.sum(), np.array([0.5, 0.5]))
        rep.add(n=int(n), a_n=float(a_n),
                conv_min_residual=conv.min_residual, conv_tol=conv.tol,
                conv_pass=conv.verdict,
                mass_outside=mass_out, mass_bound=bound,
                mass_pass=bool(mass_out <= bound + 1e-12),
                prokhorov=dp, box_upper=2.0 * dp)
    a_col = rep.column("a_n")
    mass_col = rep.column("mass_outside")
    dp_col = rep.column("prokhorov")
    rep.metadata.update({
        "a_n_increasing": bool(np.all(np.diff(a_col) > 0)),
        "mass_decreasing": bool(np.all(np.diff(mass_col) < 0)),
        "prokhorov_decreasing": bool(np.all(np.diff(dp_col) < 0)),
        "all_convexity_pass": all(rep.column("conv_pass")),
        "all_mass_bounded": all(rep.column("mass_pass")),
        "final_mass_outside": mass_col[-1],
        "final_prokhorov": dp_col[-1],
        "final_box_upper": 2.0 * dp_col[-1],
    })
    return rep


# ---------------------------------------------------------------------------
# two-point midpoint obstruction


@dataclass(frozen=True)
class TwoPointGap:
    """Best-achievable deviation from the midpoint equations on a two-point
    space of diameter D; a positive value certifies that no transport
    midpoint (hence no geodesic) exists between the two unit atoms."""

    min_gap: float
    q_opt: float
    D: float
    grid_size: int


def two_point_midpoint_gap(D: float) -> TwoPointGap:
    """Minimise over 4097 equispaced q in [0, 1] the worse of
    |W2(delta_0, nu_q) - D/2| and |W2(nu_q, delta_1) - D/2| with
    nu_q = (q, 1-q); the transport distances have the closed forms
    sqrt(1-q) D and sqrt(q) D."""
    _require(D >= 0, "D", "must be nonnegative", D)
    q = np.linspace(0.0, 1.0, 4097)
    gap = np.maximum(np.abs(np.sqrt(1.0 - q) - 0.5),
                     np.abs(np.sqrt(q) - 0.5)) * D
    i = int(np.argmin(gap))
    return TwoPointGap(min_gap=float(gap[i]), q_opt=float(q[i]), D=float(D),
                       grid_size=q.size)


# ---------------------------------------------------------------------------
# certified positive control


def cosh_family(K: float, N: float, lam: float, L: float,
                m: int) -> WeightedOneDimSpace:
    """Segment [0, 2L] with density proportional to cosh(lam (x - L))^{N-1}.

    Requires lam^2 >= K / (1 - N); the returned space is certified by the
    convexity check of its weight exponent at modulus (K, N-1), raising
    ``ConvexityViolation`` if either fails.  lam and L must be positive and
    finite and m at least 1 (``ValidationError``).
    """
    _check_finite(K)
    _require(K > 0, "K", "must be positive", K)
    _check_dimension(N)
    for name, value in (("lam", lam), ("L", L)):
        _require(value > 0 and math.isfinite(value), name,
                 "must be positive and finite", value)
    _require(m >= 1, "grid size m", "must be at least 1", m)
    if lam * lam < K / (1.0 - N) - 1e-12:
        raise ConvexityViolation(
            f"lam^2 = {lam * lam} below the threshold {K / (1.0 - N)}"
        )
    h = 2.0 * L / m
    grid = (np.arange(m) + 0.5) * h
    f = -(N - 1.0) * np.log(np.cosh(lam * (grid - L)))
    log_rho = -f
    log_rho -= math.log(float(np.sum(np.exp(log_rho)) * h))
    space = WeightedOneDimSpace("segment", 2.0 * L, log_rho)
    cert = kn_convexity_check(f, K, N - 1.0, h)
    if not cert.verdict:
        raise ConvexityViolation(
            f"certification failed: min residual {cert.min_residual} "
            f"below -{cert.tol}"
        )
    return space


def smooth_density_pairs(space: WeightedOneDimSpace, count: int, *,
                         seed: int = 0):
    """Random strictly positive smooth density pairs on the space grid."""
    rng = np.random.default_rng(seed)
    x = space.grid
    lo, hi = x[0], x[-1]
    span = hi - lo
    pairs = []
    for _ in range(count):
        out = []
        for _ in range(2):
            rho = np.full_like(x, 0.05 / span)
            for _ in range(int(rng.integers(1, 4))):
                c = rng.uniform(lo + 0.1 * span, hi - 0.1 * span)
                w = rng.uniform(0.05, 0.25) * span
                rho = rho + np.exp(-((x - c) / w) ** 2)
            rho /= rho.sum() * space.h
            out.append(rho)
        pairs.append(tuple(out))
    return pairs


def calibrate_cd_budget(K: float = 1.0, N: float = -1.0, lam: float = 1.0,
                        L: float = 3.0, resolutions=(256, 512),
                        n_pairs: int = 8, seed: int = 0):
    """Fit the discretisation budget tol(h) = c1 h + c2 h^2 on the certified
    cosh control at two resolutions.

    Each pair is checked with the budget off at N' in {-1, -0.5, -0.1}.  The
    worst negative relative margin observed at each grid step is scaled by
    the safety factor 3 and the two-parameter model is solved exactly;
    negative coefficients are clamped and refit with the single remaining
    term.  Returns (c1, c2).
    """
    cfg = RunConfig(cd_budget_c1=0.0, cd_budget_c2=0.0)
    if len(resolutions) != 2 or resolutions[0] == resolutions[1]:
        raise ValidationError("exactly two distinct resolutions are required")
    hs, worst = [], []
    for m in resolutions:
        space = cosh_family(K, N, lam, L, int(m))
        neg = 0.0
        for rho0, rho1 in smooth_density_pairs(space, n_pairs, seed=seed):
            rep = cd_check_1d(space, rho0, rho1, K, N,
                              nprime_grid=[-1.0, -0.5, -0.1], config=cfg)
            neg = max(neg, -min(0.0, rep.min_rel_margin))
        hs.append(space.h)
        worst.append(3.0 * neg)
    h1, h2 = hs
    e1, e2 = worst
    det = h1 * h2 * h2 - h2 * h1 * h1
    c1 = (e1 * h2 * h2 - e2 * h1 * h1) / det
    c2 = (e2 * h1 - e1 * h2) / det
    if c2 <= 0:  # also maps the -0.0 of all-zero margins to 0.0
        c2 = 0.0
        c1 = max(e1 / h1, e2 / h2)
    if c1 < 0:
        c1 = 0.0
        c2 = max(e1 / (h1 * h1), e2 / (h2 * h2))
    return max(c1, 1e-9), max(c2, 0.0)


# ---------------------------------------------------------------------------
# sinh line example


def sinh_example_report(K: float, N: float, C_list=(0.1, 1.0, 10.0),
                        R_list=(1.0, 2.0, 4.0, 8.0)) -> ExperimentReport:
    """Convexity and volume-growth diagnostics of the double-exponential
    line density built from sinh.

    The weight is f(x) = -(N-1) a sinh(x) with a = sqrt(1/4 - K/(N-1)); it
    certifies as (K, N-1)-convex on truncations while the Gaussian-damped
    mass diverges for every damping constant probed.
    """
    _check_finite(K)
    _require(K > 0, "K", "must be positive", K)
    _check_dimension(N)
    a = math.sqrt(0.25 - K / (N - 1.0))
    f = lambda x: -(N - 1.0) * a * np.sinh(np.asarray(x, dtype=float))  # noqa: E731
    log_density = lambda x: (N - 1.0) * a * np.sinh(np.asarray(x, dtype=float))  # noqa: E731
    rep = ExperimentReport(
        name="sinh-example",
        columns=["section", "key", "x", "value", "extra", "ok"],
        metadata={"params": {"K": K, "N": N, "a": a,
                             "C_list": list(C_list), "R_list": list(R_list)}},
    )
    for h in (1e-2, 1e-3):
        xs = np.arange(-5.0, 5.0 + h / 2.0, h)
        check = kn_convexity_check(f(xs), K, N - 1.0, h)
        rep.add(section="convexity", key="h", x=h,
                value=check.min_residual, extra=check.tol, ok=check.verdict)
    ratios_ok = True
    for h in (1e-2, 1e-3):
        errs, ratios = convexity_order_study(f, K, N - 1.0, [h, h / 2.0],
                                             domain=(-5.0, 5.0))
        ok = 3.0 <= ratios[0] <= 5.0
        ratios_ok &= ok
        rep.add(section="order", key="h_pair", x=h, value=ratios[0],
                extra=errs[0], ok=ok)
    all_divergent = True
    for C in C_list:
        probe = volume_growth_probe(log_density, float(C), 0.0, R_list)
        all_divergent &= probe.divergent
        for r, lv in zip(probe.radii, probe.log_values):
            rep.add(section="volume", key=f"C={format(float(C), 'g')}", x=r,
                    value=lv, extra=None, ok=probe.divergent)
    rep.metadata.update({
        "all_convexity_pass": all(r[5] for r in rep.rows if r[0] == "convexity"),
        "order_ratios_ok": bool(ratios_ok),
        "all_divergent": bool(all_divergent),
    })
    return rep


# ---------------------------------------------------------------------------
# Brunn-Minkowski collapse sweep


def bm_collapse_sweep(space: WeightedOneDimSpace, a0, a1, t: float,
                      K_list, N: float) -> ExperimentReport:
    """Right-hand side of the interval Brunn-Minkowski inequality across a
    curvature sweep.

    For separated sets the distortion suprema decay with sqrt(K), so the
    right side decreases monotonically and eventually drops below the left
    side; the report records the onset of that violation.
    """
    rep = ExperimentReport(
        name="bm-collapse",
        columns=["K", "lhs", "rhs", "rhs_over_lhs", "violation"],
        metadata={"params": {"a0": list(map(float, a0)),
                             "a1": list(map(float, a1)), "t": float(t),
                             "K_list": [float(k) for k in K_list],
                             "N": float(N)}},
    )
    first_violation = None
    for K in K_list:
        res = bm_check(space, a0, a1, t, float(K), N)
        violated = res.rhs < res.lhs
        if violated and first_violation is None:
            first_violation = float(K)
        rep.add(K=float(K), lhs=res.lhs, rhs=res.rhs,
                rhs_over_lhs=res.rhs / res.lhs if res.lhs > 0 else math.inf,
                violation=violated)
    rhs_col = rep.column("rhs")
    rep.metadata.update({
        "rhs_strictly_decreasing": bool(np.all(np.diff(rhs_col) < 0)),
        "first_violation_K": first_violation,
        "final_rhs_over_lhs": rep.column("rhs_over_lhs")[-1],
    })
    return rep


# ---------------------------------------------------------------------------
# observable-diameter bound verification


def verify_separation_bounds(K_list=(1.0, 4.0, 16.0),
                      kappas=(0.05, 0.1, 0.2, 0.4), N: float = -1.0,
                      lam0: float = 1.0, L0: float = 3.0, m: int = 512,
                      slack: float = 0.02, *,
                      config: RunConfig | None = None) -> ExperimentReport:
    """Separation and observable-diameter bounds on scaled cosh controls.

    Instances at curvature K are the 1/sqrt(K)-scaled copies of the base
    instance (lam = lam0 sqrt(K), L = L0 / sqrt(K)), so computed quantities
    must scale like 1/sqrt(K); each separation value is checked against its
    closed-form bound with the given relative slack.
    """
    _require(0 <= slack < math.inf, "slack", "must be finite and nonnegative",
             slack)
    cfg = config or default_config()
    rep = ExperimentReport(
        name="thm4-verify",
        columns=["K", "kappa", "sep", "sep_bound", "sep_pass",
                 "obs_lower", "obs_upper", "obs_upper_scaled", "scaling_pass"],
        metadata={"params": {"K_list": [float(k) for k in K_list],
                             "kappas": [float(k) for k in kappas],
                             "N": float(N), "lam0": lam0, "L0": L0, "m": m,
                             "slack": slack}},
    )
    base_scaled: dict[float, float] = {}
    all_pass = True
    scaling_ok = True
    for K in K_list:
        K = float(K)
        space = cosh_family(K, N, lam0 * math.sqrt(K), L0 / math.sqrt(K), m)
        finite = discretize(space)
        for kap in kappas:
            kap = float(kap)
            sep = separation(finite, finite.weights, kap, kap)
            bound = cd_separation_bound(K, N, kap, kap)
            ok = sep.value <= bound * (1.0 + slack)
            all_pass &= ok
            sw = obsdiam_sandwich(finite, finite.weights, kap, config=cfg)
            scaled = sw.upper * math.sqrt(K)
            if kap not in base_scaled:
                base_scaled[kap] = scaled
            ref = base_scaled[kap]
            s_ok = (ref == 0 and scaled == 0) or (
                ref > 0 and abs(scaled / ref - 1.0) <= 0.1)
            scaling_ok &= s_ok
            rep.add(K=K, kappa=kap, sep=sep.value, sep_bound=bound,
                    sep_pass=ok, obs_lower=sw.lower, obs_upper=sw.upper,
                    obs_upper_scaled=scaled, scaling_pass=s_ok)
    levy_K = [min(K_list) * 4.0 ** j for j in range(7)]
    _, levy_flag = levy_bound_sequence(levy_K, [N] * len(levy_K), 0.1, "CD")
    rep.metadata.update({
        "all_sep_bounded": bool(all_pass),
        "scaling_within_10pct": bool(scaling_ok),
        "levy_trend_K": levy_K,
        "levy_trend_flag": bool(levy_flag),
    })
    return rep
