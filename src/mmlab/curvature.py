"""Entropy along transport interpolations and curvature-dimension checks.

The inequality checkers evaluate both sides of the entropy-convexity
conditions on weighted one-dimensional spaces using the monotone (quantile)
coupling and its displacement interpolation; that coupling choice is recorded
in every report.  Values are plain floats with ``math.inf`` for +inf.
Conventions: 0^{1/N} = +inf for N < 0, and 0 * inf = 0 (null sets never
contribute), which only the Brunn-Minkowski right-hand side meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import _check_finite, omega, sigma_range_sup, sigma_vals, tau_vals
from .config import ENTROPY_TOL, RunConfig, default_config
from .core import (
    FiniteMmSpace,
    condition_measure,
    partition_average,
    pushforward,
    subset_diameter,
)
from .errors import (
    DomainError,
    InvalidDimension,
    ValidationError,
)
from .transport import (
    MonotonePlan,
    WeightedOneDimSpace,
    interval_mass,
    w2_exact,
)

__all__ = [
    "renyi_entropy",
    "renyi_entropy_1d",
    "cd_rhs",
    "cd_check_1d",
    "CdReport",
    "bm_check",
    "BmReport",
    "kn_convexity_check",
    "ConvexityReport",
    "convexity_order_study",
    "entropy_inequality_suite",
    "EntropySuiteReport",
    "volume_growth_probe",
    "VolumeGrowthReport",
]

# default number of points of the t grid of cd_check_1d
T_GRID_SIZE = 9
# Gauss-Legendre rule of order 12 for the distortion quadrature on each plan
# piece, mapped to [0, 1]: 0.5 * (x + 1) and 0.5 * w of
# numpy.polynomial.legendre.leggauss(12), written out so that no import or
# call pays for it
CD_GAUSS_NODES = np.array([
    0.009219682876640378, 0.0479413718147626, 0.11504866290284765,
    0.20634102285669126, 0.31608425050090994, 0.43738329574426554,
    0.5626167042557344, 0.6839157494990901, 0.7936589771433087,
    0.8849513370971523, 0.9520586281852375, 0.9907803171233596])
CD_GAUSS_WEIGHTS = np.array([
    0.023587668193255706, 0.05346966299765953, 0.08003916427167321,
    0.10158371336153287, 0.1167462682691773, 0.12457352290670134,
    0.12457352290670134, 0.1167462682691773, 0.10158371336153287,
    0.08003916427167321, 0.05346966299765953, 0.023587668193255706])
# cap on the entries of one (fraction, piece, node) coefficient block of the
# right-hand side evaluator: 2 MiB per float array, whatever the t grid
CD_BLOCK_ELEMENTS = 1 << 18
# convexity check: tolerance c*h^2 + slack with c estimated from the fourth
# difference of the data, times this safety factor
CONVEXITY_SAFETY = 2.0
CONVEXITY_SLACK = 1e-9
# volume growth probe: Simpson points per unit length, and the growth of the
# last doubling that flags divergence
VOLUME_POINTS_PER_UNIT = 256
VOLUME_GROWTH_FACTOR = 1.5
# cap on the Simpson points of one radius: R = 2048 at VOLUME_POINTS_PER_UNIT;
# odd, so that rounding a grid up to an odd size never passes it
VOLUME_MAX_POINTS = (1 << 20) + 1


# ---------------------------------------------------------------------------
# Renyi entropy


def renyi_entropy(mu, nu, nprime: float) -> float:
    """Entropy of nu relative to mu on a finite space; +inf when nu is not
    absolutely continuous with respect to mu.

    Takes mass vectors; the value is sum (nu_i/mu_i)^{1-1/N'} mu_i over the
    support of mu, which is always >= 1 with equality only at nu = mu.
    """
    if not nprime < 0:
        raise InvalidDimension(f"N' must be negative, got {nprime}")
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != nu.shape:
        raise ValidationError("mass vectors must have equal length")
    for name, v in (("mu", mu), ("nu", nu)):
        bad = np.flatnonzero(~(np.isfinite(v) & (v >= 0)))
        if bad.size:
            raise ValidationError(f"masses must be finite and nonnegative, "
                                  f"{name}[{bad[0]}] = {v[bad[0]]}")
    if np.any((nu > 0) & (mu == 0)):
        return math.inf
    pos = mu > 0
    ratio = nu[pos] / mu[pos]
    return float(np.sum(ratio ** (1.0 - 1.0 / nprime) * mu[pos]))


def renyi_entropy_1d(space: WeightedOneDimSpace, rho_nu, nprime: float) -> float:
    """Entropy of the density ``rho_nu`` (per length) relative to the space
    measure, both piecewise constant on cells."""
    rho_nu = space.validate_density(rho_nu)
    return renyi_entropy(space.cell_masses, rho_nu * space.h, nprime)


# ---------------------------------------------------------------------------
# right-hand side of the entropy-convexity inequalities


def cd_rhs(space: WeightedOneDimSpace, rho0, rho1, K: float, nprime: float,
           t: float, variant: str = "CD") -> float:
    """Distortion-weighted endpoint-entropy integral along the monotone
    coupling of the two densities.

    Integration runs over the pieces of the ``MonotonePlan``: on each both
    quantiles are affine, the relative densities constant and the signed
    displacement of one sign, so only the distortion coefficient needs
    quadrature (the 12-point Gauss-Legendre rule ``CD_GAUSS_NODES``).
    Returns +inf as soon as a coefficient hits its closed branch.  This is
    one cell of the evaluator ``cd_check_1d`` runs over its whole t grid.
    """
    return _rhs_grid(MonotonePlan.build(space, rho0, rho1), K, [nprime], [t],
                     variant)[0][0]


def _rhs_grid(plan: MonotonePlan, K: float, nprimes, ts, variant: str) -> list:
    """``cd_rhs`` along one plan for each N' of ``nprimes`` (outer list) and
    each t of ``ts`` (inner list of floats).

    The nodes' displacements are computed once per plan.  Per N' the
    coefficients are computed once for each distinct fraction among the
    1 - t and the t of the interior grid points, so a mirrored grid shares
    them, in blocks of at most ``CD_BLOCK_ELEMENTS`` entries.  Each value is
    reduced as a lone t would be: over the nodes, then over the pieces in
    piece order, then 0.0 + the (1 - t) side + the t side.
    """
    _check_finite(K)
    for nprime in nprimes:
        if not nprime < 0:
            raise InvalidDimension(f"N' must be negative, got {nprime}")
    for t in ts:
        if not 0.0 <= t <= 1.0:
            raise ValidationError(f"t must lie in [0,1], got {t}")
    if variant not in ("CD", "CDstar"):
        raise ValidationError(f"variant must be CD or CDstar, got {variant!r}")
    space = plan.space
    d_a = plan.x0_lo - plan.x1_lo
    d_b = plan.x0_hi - plan.x1_hi
    theta_max = float(np.max(np.maximum(np.abs(d_a), np.abs(d_b)), initial=0.0))
    # displacement magnitude at quadrature nodes, affine per piece
    th = np.abs(d_a[:, None] + (d_b - d_a)[:, None] * CD_GAUSS_NODES[None, :])
    lengths = plan.u_hi - plan.u_lo
    mu_rho = space.density
    rels = [rho[cells] / mu_rho[cells] for cells, rho in
            ((plan.cell0, plan.rho0), (plan.cell1, plan.rho1))]
    ts = np.asarray(ts, dtype=float)
    inner = ts[(ts > 0.0) & (ts < 1.0)]
    fracs = np.unique(np.concatenate((1.0 - inner, inner)))
    rows = max(1, CD_BLOCK_ELEMENTS // th.size)
    # reference and endpoint masses, for the entropies at t = 0 and t = 1
    ref = space.cell_masses
    ends = {0.0: plan.rho0 * space.h, 1.0: plan.rho1 * space.h}
    out = []
    for nprime in nprimes:
        kappa = K / (nprime - 1.0) if variant == "CD" else K / nprime
        if kappa > 0 and theta_max >= omega(kappa):
            out.append([math.inf] * ts.size)
            continue
        # per fraction: whether a coefficient is infinite, and the sums of
        # the (1 - t) side and of the t side
        infinite = np.empty(fracs.size, dtype=bool)
        sides = np.empty((2, fracs.size))
        weights = [rel ** (-1.0 / nprime) for rel in rels]
        for lo in range(0, fracs.size, rows):
            block = fracs[lo:lo + rows, None, None]
            coef = (tau_vals(K, nprime, block, th) if variant == "CD"
                    else sigma_vals(K / nprime, block, th))
            infinite[lo:lo + rows] = np.isinf(coef).any(axis=(1, 2))
            per_interval = (coef * CD_GAUSS_WEIGHTS).sum(axis=2) * lengths
            for side, w in zip(sides, weights):
                side[lo:lo + rows] = (per_interval * w).sum(axis=1)
        row = []
        for t in ts:
            if t in ends:
                # the coefficients are exactly 1 and 0: the integral is the
                # endpoint entropy, summed over cells as cd_check_1d sums it
                row.append(renyi_entropy(ref, ends[t], nprime))
                continue
            i0, i1 = np.searchsorted(fracs, (1.0 - t, t))
            if infinite[i0] or infinite[i1]:
                row.append(math.inf)
            else:
                row.append(0.0 + float(sides[0, i0]) + float(sides[1, i1]))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# full checks


@dataclass(frozen=True)
class CdCell:
    t: float
    nprime: float
    lhs: float
    rhs: float
    margin: float
    rel_margin: float
    ok: bool


@dataclass(frozen=True)
class CdReport:
    """Grid of entropy-convexity margins with the budget used."""

    variant: str
    K: float
    N: float
    t_grid: tuple
    nprime_grid: tuple
    cells: tuple
    verdict: bool
    min_rel_margin: float
    worst_t: float
    worst_nprime: float
    budget: dict
    coupling: str = "monotone quantile coupling"
    cut: int | None = None


def _margin(lhs: float, rhs: float) -> tuple[float, float]:
    """(margin, rel_margin) with infinity conventions."""
    if math.isinf(rhs) and math.isinf(lhs):
        return 0.0, 0.0
    if math.isinf(rhs):
        return math.inf, math.inf
    if math.isinf(lhs):
        return -math.inf, -math.inf
    m = rhs - lhs
    return m, m / max(1.0, lhs, rhs)


def _unroll_circle(space: WeightedOneDimSpace, rho0, rho1, cut):
    """Rotate a circle so the joint support sits inside the segment.

    Without an explicit cut the joint support must fit into an arc shorter
    than half the circumference (the monotone geodesic is then unambiguous);
    otherwise the caller must select a cut cell boundary."""
    m = space.m
    pos = (np.asarray(rho0) > 0) | (np.asarray(rho1) > 0)
    if cut is None:
        gaps = ~pos
        if not gaps.any():
            raise ValidationError(
                "full-circle supports require an explicit cut choice"
            )
        # the first longest run of empty cells in the gaps taken twice over,
        # so that a run across the origin is seen whole
        bounds = np.flatnonzero(np.diff(np.concatenate(([0], gaps, gaps, [0]))))
        starts, stops = bounds[0::2], bounds[1::2]
        best = int(np.argmax(stops - starts))
        if (stops[best] - starts[best]) * space.h <= space.total_length / 2.0:
            raise ValidationError(
                "joint support exceeds a half-circle; pass an explicit cut"
            )
        shift = int(stops[best] % m)
    else:
        shift = int(cut) % m
    seg = WeightedOneDimSpace("segment", space.total_length,
                              np.roll(space.log_density, -shift))
    return seg, np.roll(rho0, -shift), np.roll(rho1, -shift), shift


def cd_check_1d(space: WeightedOneDimSpace, rho0, rho1, K: float, N: float,
                t_grid=None, nprime_grid=None, variant: str = "CD", *,
                cut: int | None = None,
                config: RunConfig | None = None) -> CdReport:
    """Check the entropy-convexity inequality along the monotone geodesic.

    For each (t, N') on the grids the interpolant entropy is compared with
    the distortion-weighted endpoint integral; the verdict passes when every
    relative margin stays above -tol(h) with the configured discretisation
    budget tol(h) = c1 h + c2 h^2 (margins are normalised by the larger of
    the two sides because entropies grow rapidly as N' approaches 0).

    One plan serves the whole grid.  The right-hand sides of an N' row come
    from one distortion-coefficient call over the whole t grid (one per
    ``CD_BLOCK_ELEMENTS`` entries on very long grids), at the distinct
    fractions among t and 1 - t, so mirrored fractions (as on the default
    grid) share their coefficients; each value is bit-identical to
    ``cd_rhs`` at that (t, N').  Each interpolant's cell masses are formed
    once and give its entropy at every N'.

    On a circle ``cut`` picks the cell boundary to cut at (see
    ``_unroll_circle``); on a segment it must be None.
    """
    cfg = config or default_config()
    _check_finite(K)
    if not N < 0:
        raise InvalidDimension(f"N must be negative, got {N}")
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, T_GRID_SIZE)
    if nprime_grid is None:
        nprime_grid = [x for x in (N, N / 2.0, N / 4.0, -0.1) if N <= x < 0]
        nprime_grid = sorted(set(nprime_grid))
    if len(t_grid) == 0 or len(nprime_grid) == 0:
        raise ValidationError("the t and N' grids must be nonempty")
    for np_ in nprime_grid:
        if not (N - 1e-12 <= np_ < 0):
            raise ValidationError(f"N' = {np_} outside [N, 0)")
    shift = None
    if space.kind == "circle":
        space, rho0, rho1, shift = _unroll_circle(space, rho0, rho1, cut)
    elif cut is not None:
        raise ValidationError(f"a cut applies to circles only, got cut = "
                              f"{cut} on a segment")
    plan = MonotonePlan.build(space, rho0, rho1)
    tol = cfg.cd_budget_c1 * space.h + cfg.cd_budget_c2 * space.h * space.h
    rhs_grid = _rhs_grid(plan, K, [float(x) for x in nprime_grid],
                         [float(t) for t in t_grid], variant)
    ref = space.cell_masses
    cells = []
    worst = (math.inf, None, None)
    for i, t in enumerate(t_grid):
        masses = plan.interpolate(float(t)) * space.h
        for np_, rhs_t in zip(nprime_grid, rhs_grid):
            lhs = renyi_entropy(ref, masses, float(np_))
            rhs = rhs_t[i]
            margin, rel = _margin(lhs, rhs)
            ok = rel >= -tol
            cells.append(CdCell(float(t), float(np_), lhs, rhs, margin, rel,
                                ok))
            if rel < worst[0]:
                worst = (rel, float(t), float(np_))
    verdict = all(c.ok for c in cells)
    return CdReport(variant=variant, K=float(K), N=float(N),
                    t_grid=tuple(float(t) for t in t_grid),
                    nprime_grid=tuple(float(x) for x in nprime_grid),
                    cells=tuple(cells), verdict=verdict,
                    min_rel_margin=worst[0], worst_t=worst[1],
                    worst_nprime=worst[2],
                    budget={"h": space.h, "c1": cfg.cd_budget_c1,
                            "c2": cfg.cd_budget_c2, "tol": tol},
                    cut=shift)


# ---------------------------------------------------------------------------
# Brunn-Minkowski


def _power_inv_n(mass: float, N: float) -> float:
    if mass <= 0.0:
        return math.inf  # 0^{1/N} = +inf for N < 0
    return mass ** (1.0 / N)


def _weighted(coef: float, value: float) -> float:
    """coef * value with the measure convention 0 * inf = 0."""
    return 0.0 if coef == 0.0 or value == 0.0 else coef * value


@dataclass(frozen=True)
class BmReport:
    lhs: float
    rhs: float
    margin: float
    ok: bool
    t: float
    K: float
    N: float
    a_t: tuple
    masses: tuple
    sups: tuple


def bm_check(space: WeightedOneDimSpace, a0, a1, t: float, K: float,
             N: float) -> BmReport:
    """Interval Brunn-Minkowski margin with inverted exponents (N < 0).

    ``a0`` and ``a1`` are coordinate intervals (lo, hi); the t-intermediate
    set is the endpointwise interpolation, which is the geodesic image on
    segments and on circles whenever both sets sit inside a half-circle.
    """
    _check_finite(K)
    if not N < 0:
        raise InvalidDimension(f"N must be negative, got {N}")
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"t must lie in [0,1], got {t}")
    (lo0, hi0), (lo1, hi1) = (map(float, a0), map(float, a1))
    if not (lo0 < hi0 and lo1 < hi1):
        raise ValidationError("intervals must be nondegenerate (lo < hi)")
    edges = space.cell_edges
    if min(lo0, lo1) < edges[0] - 1e-12 or max(hi0, hi1) > edges[-1] + 1e-12:
        raise ValidationError("intervals leave the coordinate domain")
    span = max(hi0, hi1) - min(lo0, lo1)
    if space.kind == "circle" and span > space.total_length / 2.0:
        raise ValidationError(
            "sets must sit inside a common half-circle; rotate the space"
        )
    if K < 0 and span >= math.pi * math.sqrt(N / K):
        raise DomainError(
            f"diam(A0 u A1) = {span} reaches pi*sqrt(N/K) for K = {K}"
        )
    d_min = max(0.0, lo1 - hi0, lo0 - hi1)
    d_max = max(abs(hi1 - lo0), abs(hi0 - lo1))
    kappa = K / N
    sup0 = sigma_range_sup(kappa, 1.0 - t, d_min, d_max)
    sup1 = sigma_range_sup(kappa, t, d_min, d_max)
    m0 = interval_mass(space, lo0, hi0)
    m1 = interval_mass(space, lo1, hi1)
    at = ((1.0 - t) * lo0 + t * lo1, (1.0 - t) * hi0 + t * hi1)
    mt = interval_mass(space, at[0], at[1])
    lhs = _power_inv_n(mt, N)
    rhs = (_weighted(sup0, _power_inv_n(m0, N))
           + _weighted(sup1, _power_inv_n(m1, N)))
    margin, rel = _margin(lhs, rhs)
    ok = rel >= -1e-9
    return BmReport(lhs=lhs, rhs=rhs, margin=margin, ok=ok,
                    t=float(t), K=float(K), N=float(N), a_t=at,
                    masses=(m0, m1, mt), sups=(sup0, sup1))


# ---------------------------------------------------------------------------
# convexity certification


@dataclass(frozen=True)
class ConvexityReport:
    """Central-difference residuals of exp(-f/N) against the modulus K/N."""

    K: float
    N: float
    h: float
    periodic: bool
    residuals: np.ndarray = field(repr=False)
    min_residual: float
    argmin: int
    tol_c: float
    tol: float
    verdict: bool


def kn_convexity_check(f_samples, K: float, N: float, h: float, *,
                       periodic: bool = False) -> ConvexityReport:
    """Check Hess exp(-f/N) >= -(K/N) exp(-f/N) by central differences.

    The pass threshold is c h^2 + slack where c bounds the stencil error
    through the (data-estimated) fourth difference of exp(-f/N), scaled by
    ``CONVEXITY_SAFETY``.
    """
    _check_finite(K)
    if not N < 0:
        raise InvalidDimension(f"N must be negative, got {N}")
    if not (h > 0 and math.isfinite(h)):
        raise ValidationError(f"h must be positive and finite, got {h}")
    f = np.asarray(f_samples, dtype=float)
    if f.ndim != 1 or f.size < 5:
        raise ValidationError("need at least five samples")
    if not np.all(np.isfinite(f)):
        raise ValidationError("f samples must be finite")
    g = np.exp(-f / N)
    if periodic:
        # two wrapped samples on each side make every sample interior
        g = np.concatenate([g[-2:], g, g[:2]])
    d2 = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (h * h)
    d4 = (g[4:] - 4.0 * g[3:-1] + 6.0 * g[2:-2] - 4.0 * g[1:-3] + g[:-4]) / h ** 4
    res = d2 + (K / N) * g[1:-1]
    if periodic:
        res = res[1:-1]
    c = CONVEXITY_SAFETY * float(np.max(np.abs(d4))) / 12.0
    tol = c * h * h + CONVEXITY_SLACK
    i = int(np.argmin(res))
    return ConvexityReport(K=float(K), N=float(N), h=float(h),
                           periodic=periodic, residuals=res,
                           min_residual=float(res[i]), argmin=i,
                           tol_c=c, tol=tol, verdict=bool(res[i] >= -tol))


def convexity_order_study(f, K: float, N: float, h_list, domain):
    """Residual error against a refined-step reference at shared points.

    For each h the residual field on the h-grid is compared with the
    residual computed at step h/4 on the same points, max-normed over the
    middle third of the domain.  Since the reference step scales with h its
    truncation bias cancels in the ratios, so second-order stencils give
    ratios near 4 when h is halved; keeping the refinement moderate also
    keeps cancellation roundoff below the signal.  Returns (errors, ratios).
    """
    lo, hi = map(float, domain)
    window = (lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0)

    def residual_at(x: np.ndarray, step: float) -> np.ndarray:
        g = lambda z: np.exp(-np.asarray(f(z), dtype=float) / N)  # noqa: E731
        d2 = (g(x + step) - 2.0 * g(x) + g(x - step)) / (step * step)
        return d2 + (K / N) * g(x)

    errors = []
    for h in h_list:
        x = np.arange(lo, hi + h / 2.0, h)
        x = x[(x >= window[0]) & (x <= window[1])]
        err = np.max(np.abs(residual_at(x, h) - residual_at(x, h / 4)))
        errors.append(float(err))
    ratios = [errors[i] / errors[i + 1] if errors[i + 1] > 0 else math.inf
              for i in range(len(errors) - 1)]
    return errors, ratios


# ---------------------------------------------------------------------------
# randomized entropy inequality suite


@dataclass(frozen=True)
class EntropySuiteReport:
    trials: int
    nprimes: tuple
    passes: dict
    failures: tuple

    @property
    def all_passed(self) -> bool:
        return not self.failures


def entropy_inequality_suite(space: FiniteMmSpace, n_trials: int,
                             nprimes=(-0.5, -1.0, -3.0), *,
                             seed: int = 0) -> EntropySuiteReport:
    """Randomised checks of the entropy inequalities used by the stability
    machinery: contraction under pushforward, the conditioning bound, and
    the partition-average bound together with its transport estimate
    W2(nu, nu_bar) <= 2 * max block diameter.

    Measures are drawn with full-support references (Dirichlet) and sparse
    absolutely continuous targets; failures are returned as data.  At least
    one trial is required, so that an empty run never reads as a pass.
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be at least 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    tol = ENTROPY_TOL
    n = space.n
    passes = {"pushforward": 0, "conditioning": 0,
              "partition_entropy": 0, "partition_w2": 0}
    failures = []
    for trial in range(n_trials):
        mu = rng.dirichlet(np.ones(n))
        support = rng.random(n) < 0.75
        if not support.any():
            support[rng.integers(n)] = True
        nu = np.where(support, rng.random(n) + 1e-3, 0.0)
        nu /= nu.sum()
        npr = float(nprimes[trial % len(nprimes)])
        s_nu = renyi_entropy(mu, nu, npr)

        n_target = int(rng.integers(1, n + 1))
        pmap = rng.integers(0, n_target, size=n)
        s_push = renyi_entropy(pushforward(mu, pmap, n_target),
                               pushforward(nu, pmap, n_target), npr)
        if s_push <= s_nu + tol:
            passes["pushforward"] += 1
        else:
            failures.append({"check": "pushforward", "trial": trial,
                             "lhs": s_push, "rhs": s_nu})

        while True:
            b_mask = rng.random(n) < 0.5
            if float(nu[b_mask].sum()) > 0:
                break
        nb = float(nu[b_mask].sum())
        s_cond = renyi_entropy(mu, condition_measure(nu, b_mask), npr)
        lhs = nb ** (1.0 - 1.0 / npr) * s_cond
        if lhs <= s_nu + tol:
            passes["conditioning"] += 1
        else:
            failures.append({"check": "conditioning", "trial": trial,
                             "lhs": lhs, "rhs": s_nu})

        k = int(rng.integers(1, n + 1))
        labels = rng.integers(0, k, size=n)
        blocks = [np.flatnonzero(labels == j) for j in range(k)
                  if np.any(labels == j)]
        nu_bar = partition_average(nu, blocks, mu)
        s_bar = renyi_entropy(mu, nu_bar, npr)
        if s_bar <= s_nu + tol:
            passes["partition_entropy"] += 1
        else:
            failures.append({"check": "partition_entropy", "trial": trial,
                             "lhs": s_bar, "rhs": s_nu})
        dmax = max(subset_diameter(space.dist, b) for b in blocks)
        w2 = w2_exact(space, nu, nu_bar).value
        if w2 <= 2.0 * dmax + tol:
            passes["partition_w2"] += 1
        else:
            failures.append({"check": "partition_w2", "trial": trial,
                             "lhs": w2, "rhs": 2.0 * dmax})
    return EntropySuiteReport(trials=n_trials,
                              nprimes=tuple(float(x) for x in nprimes),
                              passes=passes, failures=tuple(failures))


# ---------------------------------------------------------------------------
# volume growth probe


@dataclass(frozen=True)
class VolumeGrowthReport:
    C: float
    x0: float
    radii: tuple
    log_values: tuple
    values: tuple       # exp of log_values; inf once past float range
    divergent: bool


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a nonempty 1D array, rounded exactly as
    ``scipy.special.logsumexp`` (1.17) rounds it.

    The k entries equal to the max ``top`` are summed apart:
    log1p(s / k) + log(k) + top, with s the shifted sum of the rest.  A
    nonfinite result (all entries -inf, or an inf or NaN entry) falls back
    to the direct log(sum(exp(a))), so all -inf gives -inf.
    """
    top = a.max()
    at_top = a == top
    k = np.float64(np.count_nonzero(at_top))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top)) / k
        out = np.log1p(s) + np.log(k) + top
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def volume_growth_probe(log_density, C: float, x0: float,
                        radii) -> VolumeGrowthReport:
    """Gaussian-damped mass of a line density on expanding truncations.

    Integrates exp(-C (x-x0)^2 + log_density(x)) over [-R, R] by Simpson in
    log space (so double-exponential densities do not overflow); divergence
    is flagged when the last doubling grows the value by at least
    ``VOLUME_GROWTH_FACTOR``.  A radius whose grid would need more than
    ``VOLUME_MAX_POINTS`` points is rejected before anything is computed.
    """
    if not C > 0:
        raise ValidationError(f"C must be positive, got {C}")
    radii = [float(r) for r in radii]
    if len(radii) < 2 or any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValidationError("radii must be an increasing list of length >= 2")
    sizes = []
    for i, r in enumerate(radii):
        if not (r > 0 and math.isfinite(r)):
            raise ValidationError(
                f"radii must be positive and finite, radii[{i}] = {r}")
        npts = max(129, int(VOLUME_POINTS_PER_UNIT * 2 * r) + 1)
        if npts > VOLUME_MAX_POINTS:
            raise ValidationError(
                f"radii[{i}] = {r} needs {npts} Simpson points, more than "
                f"the cap of {VOLUME_MAX_POINTS}")
        sizes.append(npts + 1 - npts % 2)  # Simpson needs an odd count
    logs = []
    for r, npts in zip(radii, sizes):
        x = np.linspace(-r, r, npts)
        h = x[1] - x[0]
        log_f = -C * (x - x0) ** 2 + np.asarray(log_density(x), dtype=float)
        w = np.ones(npts)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        logs.append(_logsumexp(log_f + np.log(w)) + math.log(h / 3.0))
    values = tuple(math.exp(v) if v < 700 else math.inf for v in logs)
    divergent = (logs[-1] - logs[-2]) >= math.log(VOLUME_GROWTH_FACTOR)
    return VolumeGrowthReport(C=float(C), x0=float(x0), radii=tuple(radii),
                              log_values=tuple(logs), values=values,
                              divergent=divergent)
