import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from mmlab import curvature
from mmlab.coefficients import (
    sigma_range_sup,
    sigma_vals,
    tau_sup,
    tau_vals,
)
from mmlab.concentration import cd_obsdiam_bound, levy_bound_sequence
from mmlab.config import default_config
from mmlab.core import FiniteMmSpace, condition_measure
from mmlab.curvature import (
    _logsumexp,
    bm_check,
    cd_check_1d,
    cd_rhs,
    convexity_order_study,
    entropy_inequality_suite,
    kn_convexity_check,
    renyi_entropy,
    renyi_entropy_1d,
    volume_growth_probe,
)
from mmlab.errors import InvalidDimension, ValidationError
from mmlab.experiments import (
    CounterexampleParams,
    cosh_family,
    sinh_example_report,
    smooth_density_pairs,
)
from mmlab.reporting import write_report
from mmlab.transport import MonotonePlan, PiecewiseQuantile, WeightedOneDimSpace


def uniform_circle(m=128, C=8.0):
    return WeightedOneDimSpace.from_density(
        "circle", C, m, lambda x: np.full_like(x, 1.0 / C))


def half_arc_translates(space, width_frac=0.05, c0_frac=0.1, c1_frac=0.35):
    """Translate pair supported in the first half of the coordinate range."""
    x = space.grid
    L = space.total_length
    window = (x >= 0.02 * L) & (x <= 0.46 * L)
    shape0 = np.exp(-((x - c0_frac * L) / (width_frac * L)) ** 2)
    shape1 = np.exp(-((x - c1_frac * L) / (width_frac * L)) ** 2)
    rho0 = np.where(window, shape0 + 1e-9, 0.0)
    rho1 = np.where(window, shape1 + 1e-9, 0.0)
    rho0 /= rho0.sum() * space.h
    rho1 /= rho1.sum() * space.h
    return rho0, rho1


def seeded_cosh_pair(seed, m=512, pair=3):
    """A certified cosh control with K in [0.5, 4], N in [-3, -0.5] and a
    pair of floor-plus-bump densities, drawn from a seed sequence
    (seed, 1, 1); the pair index counts the pairs drawn before it."""
    rng = np.random.default_rng([seed, 1, 1])
    K = float(rng.uniform(0.5, 4.0))
    N = float(rng.uniform(-3.0, -0.5))
    lam = math.sqrt(K / (1.0 - N)) * float(rng.uniform(1.0, 1.5))
    L = float(rng.uniform(2.5, 3.5)) / lam
    length = 2.0 * L
    h = length / m
    x = (np.arange(m) + 0.5) * h

    def bumps():
        rho = np.full(m, 0.05 / length)
        for _ in range(int(rng.integers(1, 4))):
            c = rng.uniform(0.1 * length, 0.9 * length)
            w = rng.uniform(0.05, 0.25) * length
            rho = rho + np.exp(-((x - c) / w) ** 2)
        return rho / (rho.sum() * h)

    for _ in range(pair + 1):
        rho0, rho1 = bumps(), bumps()
        rng.uniform(0.1, 0.9)  # an interpolation time, drawn with each pair
    return cosh_family(K, N, lam, L, m), rho0, rho1, K, N


# ---------------------------------------------------------------------------
# entropy


def test_renyi_equal_measures_is_one():
    mu = np.array([0.1, 0.4, 0.5])
    assert float(renyi_entropy(mu, mu, -1.0)) == pytest.approx(1.0, abs=1e-15)


def test_renyi_conditioned_measure():
    # conditioning on mass beta gives beta^{1/N'}
    mu = np.full(4, 0.25)
    nu = condition_measure(mu, [0, 1])
    assert float(renyi_entropy(mu, nu, -1.0)) == pytest.approx(2.0, rel=1e-14)
    beta = 0.5
    for npr in (-0.5, -2.0):
        assert float(renyi_entropy(mu, nu, npr)) == pytest.approx(
            beta ** (1.0 / npr), rel=1e-13)


def test_renyi_not_absolutely_continuous():
    mu = np.array([1.0, 0.0])
    nu = np.array([0.5, 0.5])
    assert math.isinf(renyi_entropy(mu, nu, -1.0))


def test_renyi_at_least_one_with_strict_equality_case():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        for npr in (-0.5, -1.0, -3.0):
            val = float(renyi_entropy(mu, nu, npr))
            assert val >= 1.0 - 1e-12
            if np.max(np.abs(mu - nu)) > 1e-3:
                assert val > 1.0 + 1e-9  # equality characterises nu = mu


def test_renyi_rejects_nonnegative_dimension():
    with pytest.raises(InvalidDimension):
        renyi_entropy(np.array([1.0]), np.array([1.0]), 0.5)


@pytest.mark.parametrize("mu, nu, where", [
    ([0.5, 0.5], [-0.5, 1.5], "nu[0]"),
    ([0.5, 0.5], [0.5, float("nan")], "nu[1]"),
    ([1.5, -0.5], [0.5, 0.5], "mu[1]"),
    ([float("inf"), 0.5], [0.5, 0.5], "mu[0]"),
])
def test_renyi_rejects_bad_masses(mu, nu, where):
    # unchecked, [-0.5, 1.5] against [0.5, 0.5] gave 5.0 and a NaN mass NaN
    with pytest.raises(ValidationError, match=re.escape(where)):
        renyi_entropy(mu, nu, -1.0)


# ---------------------------------------------------------------------------
# inequality right side


def test_cd_rhs_flat_is_convex_combination():
    space = cosh_family(1.0, -1.0, 1.0, 2.0, 96)
    rho0, rho1 = smooth_density_pairs(space, 1, seed=5)[0]
    for npr in (-1.0, -0.4):
        s0 = float(renyi_entropy_1d(space, rho0, npr))
        s1 = float(renyi_entropy_1d(space, rho1, npr))
        for t in (0.0, 0.3, 0.5, 1.0):
            rhs = float(cd_rhs(space, rho0, rho1, 0.0, npr, t))
            assert rhs == pytest.approx((1 - t) * s0 + t * s1, abs=1e-10 * max(1, s0, s1))


def test_cd_rhs_zero_displacement_is_entropy():
    space = cosh_family(1.0, -1.0, 1.0, 2.0, 64)
    rho, _ = smooth_density_pairs(space, 1, seed=6)[0]
    s = float(renyi_entropy_1d(space, rho, -1.0))
    for t in (0.2, 0.7):
        for variant in ("CD", "CDstar"):
            rhs = float(cd_rhs(space, rho, rho, 2.0, -1.0, t, variant))
            assert rhs == pytest.approx(s, rel=1e-12)


def test_cd_rhs_closed_branch_returns_inf():
    # K < 0 with displacement at the closed branch
    K, npr = -1.0, -1.0
    w = math.pi * math.sqrt((npr - 1.0) / K)  # pi sqrt(2)
    L = 2.0 * w
    space = WeightedOneDimSpace.from_density(
        "segment", L, 256, lambda x: np.full_like(x, 1.0 / L))
    x = space.grid
    rho0 = np.where(x < 0.2, 1.0, 0.0)
    rho1 = np.where(x > L - 0.2, 1.0, 0.0)
    rho0 /= rho0.sum() * space.h
    rho1 /= rho1.sum() * space.h
    assert math.isinf(cd_rhs(space, rho0, rho1, K, npr, 0.5, "CD"))


def test_gauss_rule_is_leggauss_on_unit_interval():
    x, w = np.polynomial.legendre.leggauss(curvature.CD_GAUSS_NODES.size)
    assert curvature.CD_GAUSS_NODES.tobytes() == (0.5 * (x + 1.0)).tobytes()
    assert curvature.CD_GAUSS_WEIGHTS.tobytes() == (0.5 * w).tobytes()


# ---------------------------------------------------------------------------
# oracle: the right-hand side one (t, N') cell at a time


def oracle_pieces(plan):
    """The plan's intervals split at each zero of the displacement, with Q0
    and Q1 at the root: ``(widths, d_lo, d_hi, cell0, cell1)``."""
    a, b = plan.u_lo, plan.u_hi
    d_a = plan.x0_lo - plan.x1_lo
    d_b = plan.x0_hi - plan.x1_hi
    cross = d_a * d_b < 0
    root = a[cross] + (b[cross] - a[cross]) * d_a[cross] / (d_a[cross] - d_b[cross])
    reps = 1 + cross
    second = (np.cumsum(reps) - 1)[cross]
    # rows: u, Q0 and Q1, each at the low and then the high piece end
    rows = np.repeat(np.stack((a, b, plan.x0_lo, plan.x0_hi, plan.x1_lo,
                               plan.x1_hi)), reps, axis=1)
    at_root = np.stack((root, plan.q0.affine_at(root, plan.p0[cross]),
                        plan.q1.affine_at(root, plan.p1[cross])))
    rows[0::2, second] = at_root
    rows[1::2, second - 1] = at_root
    u_lo, u_hi, x0_lo, x0_hi, x1_lo, x1_hi = rows
    cells = np.stack((plan.q0.cells[plan.p0], plan.q1.cells[plan.p1]))
    return (u_hi - u_lo, x0_lo - x1_lo, x0_hi - x1_hi,
            *np.repeat(cells, reps, axis=1))


def plan_rhs_oracle(plan, K, nprime, t, variant):
    """The per-cell evaluation the grid evaluator replaced: the plan split
    by ``oracle_pieces``, Gauss nodes from leggauss, two scalar-t
    coefficient calls, early +inf returns."""
    lengths, d_a, d_b, cell0, cell1 = oracle_pieces(plan)
    theta_max = float(np.max(np.maximum(np.abs(d_a), np.abs(d_b)), initial=0.0))
    kappa = K / (nprime - 1.0) if variant == "CD" else K / nprime
    if kappa > 0 and theta_max >= math.pi / math.sqrt(kappa):
        return math.inf
    space = plan.space
    if t == 0.0 or t == 1.0:
        rho = plan.rho0 if t == 0.0 else plan.rho1
        return renyi_entropy(space.cell_masses, rho * space.h, nprime)
    x, w = np.polynomial.legendre.leggauss(12)
    gx, gw = 0.5 * (x + 1.0), 0.5 * w
    th = np.abs(d_a[:, None] + (d_b - d_a)[:, None] * gx[None, :])
    total = 0.0
    for frac, cells, rho in ((1.0 - t, cell0, plan.rho0),
                             (t, cell1, plan.rho1)):
        rel = rho[cells] / space.density[cells]
        coef = (tau_vals(K, nprime, frac, th) if variant == "CD"
                else sigma_vals(K / nprime, frac, th))
        if np.any(np.isinf(coef)):
            return math.inf
        per_interval = (coef * gw[None, :]).sum(axis=1) * lengths
        total += float(np.sum(per_interval * rel ** (-1.0 / nprime)))
    return total


def cd_cells_oracle(space, rho0, rho1, K, t_grid, nprime_grid, variant, cut):
    """cd_check_1d's cells, the right-hand side one cell at a time."""
    if space.kind == "circle":
        space, rho0, rho1, _ = curvature._unroll_circle(space, rho0, rho1, cut)
    plan = MonotonePlan.build(space, rho0, rho1)
    tol = (default_config().cd_budget_c1 * space.h
           + default_config().cd_budget_c2 * space.h * space.h)
    cells = []
    for t in t_grid:
        rho_t = plan.interpolate(float(t))
        for np_ in nprime_grid:
            lhs = renyi_entropy_1d(space, rho_t, float(np_))
            rhs = plan_rhs_oracle(plan, K, float(np_), float(t), variant)
            margin, rel = curvature._margin(lhs, rhs)
            cells.append(curvature.CdCell(float(t), float(np_), lhs, rhs,
                                          margin, rel, rel >= -tol))
    return tuple(cells)


def random_space_pair(seed, kind, m):
    """A space with a random smooth log density and two positive densities
    of a few bumps each."""
    rng = np.random.default_rng(seed)
    length = float(rng.uniform(1.0, 6.0))
    h = length / m
    x = (np.arange(m) + 0.5) * h
    a = rng.normal(size=3)
    ld = (a[0] * np.cos(2 * np.pi * x / length)
          + a[1] * np.sin(2 * np.pi * x / length)
          + a[2] * np.cos(4 * np.pi * x / length))
    space = WeightedOneDimSpace(kind, length,
                                ld - math.log(np.exp(ld).sum() * h))

    def bumps():
        rho = np.full(m, float(rng.uniform(1e-3, 0.3)))
        for _ in range(int(rng.integers(1, 4))):
            c = rng.uniform(0.0, length)
            w = rng.uniform(0.02, 0.3) * length
            rho = rho + np.exp(-((x - c) / w) ** 2)
        return rho / (rho.sum() * space.h)

    return space, bumps(), bumps()


# K > 0, K = 0, K < 0, and K << 0, where the CD and CD* coefficients reach
# their closed branch (+inf) on the wider displacements
CURVATURES = st.one_of(st.floats(0.1, 6.0), st.just(0.0), st.floats(-3.0, -0.1),
                       st.floats(-200.0, -20.0))
T_GRIDS = st.one_of(
    st.just(None),                                   # linspace(0, 1, 9)
    st.just([1.0, 0.5, 0.0, 0.5, 0.25, 1.0]),        # unsorted, repeated
    st.lists(st.one_of(st.sampled_from([0.0, 1.0, 0.125, 0.5, 0.875]),
                       st.floats(0.0, 1.0)), min_size=1, max_size=10))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10 ** 6), kind=st.sampled_from(["segment", "circle"]),
       m=st.integers(8, 96), K=CURVATURES, N=st.floats(-3.0, -0.15),
       variant=st.sampled_from(["CD", "CDstar"]), t_grid=T_GRIDS,
       default_nprimes=st.booleans())
def test_cd_check_matches_per_cell_oracle(seed, kind, m, K, N, variant, t_grid,
                                         default_nprimes):
    # every field of every cell equals the per-cell evaluation, bit for bit
    space, rho0, rho1 = random_space_pair(seed, kind, m)
    cut = seed % m if kind == "circle" else None
    # None is the default grid, which holds N' = -0.1
    nprime_grid = None if default_nprimes else [N, N / 2.0, N / 4.0]
    rep = cd_check_1d(space, rho0, rho1, K, N, t_grid=t_grid,
                      nprime_grid=nprime_grid, variant=variant, cut=cut)
    oracle = cd_cells_oracle(space, rho0, rho1, K, rep.t_grid,
                             rep.nprime_grid, variant, cut)
    assert rep.cells == oracle
    for cell in rep.cells[:4]:
        if space.kind == "segment":
            assert cd_rhs(space, rho0, rho1, K, cell.nprime, cell.t,
                          variant) == cell.rhs


def test_cd_check_matches_oracle_on_the_closed_branch():
    # K < 0 set from the largest displacement theta: the finite branch of
    # kappa ends at 1.15 theta for kappa = 0.75 (pi/theta)^2 and at 0.86
    # theta for 1.36 (pi/theta)^2, so some N' rows are +inf and some finite
    space, rho0, rho1 = random_space_pair(3, "segment", 64)
    x = space.grid
    rho0 = np.where(x < 0.3 * space.total_length, rho0, 0.0)
    rho1 = np.where(x > 0.7 * space.total_length, rho1, 0.0)
    rho0, rho1 = (r / (r.sum() * space.h) for r in (rho0, rho1))
    plan = MonotonePlan.build(space, rho0, rho1)
    theta = max(np.max(np.abs(plan.x0_lo - plan.x1_lo)),
                np.max(np.abs(plan.x0_hi - plan.x1_hi)))
    K = -1.5 * (math.pi / theta) ** 2
    for variant in ("CD", "CDstar"):
        rep = cd_check_1d(space, rho0, rho1, K, -2.0,
                          nprime_grid=[-2.0, -1.0, -0.1], variant=variant)
        assert rep.cells == cd_cells_oracle(space, rho0, rho1, K, rep.t_grid,
                                            rep.nprime_grid, variant, None)
        rhs = {math.isinf(c.rhs) for c in rep.cells if 0.0 < c.t < 1.0}
        assert rhs == {True, False}


def test_cd_check_matches_oracle_across_coefficient_blocks(monkeypatch):
    # 1,025 grid points on m = 512 need several coefficient blocks per N'
    space, rho0, rho1, K, N = seeded_cosh_pair(2)
    calls = []

    def counted(*args):
        calls.append(args)
        return tau_vals(*args)

    monkeypatch.setattr(curvature, "tau_vals", counted)
    t_grid = np.linspace(0.0, 1.0, 1025)
    rep = cd_check_1d(space, rho0, rho1, K, N, t_grid=t_grid,
                      nprime_grid=[N, N / 4.0])
    assert len(calls) > 2 * 2
    assert rep.cells == cd_cells_oracle(space, rho0, rho1, K, rep.t_grid,
                                        rep.nprime_grid, "CD", None)


# ---------------------------------------------------------------------------
# full check


def test_cd_check_positive_control_passes():
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 128)
    for rho0, rho1 in smooth_density_pairs(space, 3, seed=2):
        rep = cd_check_1d(space, rho0, rho1, 1.0, -1.0,
                          nprime_grid=[-1.0, -0.5, -0.1])
        assert rep.verdict, f"min rel margin {rep.min_rel_margin}"


def test_cd_check_endpoints_near_equality():
    # at t = 0 and t = 1 both sides are the endpoint entropy, summed over
    # the same cells; summed differently, the seeded pairs miss the budget
    # at N' = -0.1 (by 1.2e-11 to 2.4e-11 relative at t = 1)
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 128)
    cases = [(space, *smooth_density_pairs(space, 1, seed=3)[0], 1.0, -1.0)]
    cases += [seeded_cosh_pair(seed) for seed in (0, 4, 8)]
    for space, rho0, rho1, K, N in cases:
        rep = cd_check_1d(space, rho0, rho1, K, N, t_grid=[0.0, 1.0],
                          nprime_grid=[N, N / 2.0, -0.1])
        assert rep.verdict
        for cell in rep.cells:
            assert cell.lhs == cell.rhs and cell.rel_margin == 0.0


def test_cd_check_builds_one_plan(monkeypatch):
    calls = []
    from_cells = PiecewiseQuantile.from_cells.__func__

    def counted(cls, lo, hi, masses):
        calls.append(masses.size)
        return from_cells(cls, lo, hi, masses)

    monkeypatch.setattr(PiecewiseQuantile, "from_cells", classmethod(counted))
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 96)
    rho0, rho1 = smooth_density_pairs(space, 1, seed=4)[0]
    cd_check_1d(space, rho0, rho1, 1.0, -1.0)
    assert len(calls) == 2
    circle = uniform_circle(m=64)
    cd_check_1d(circle, *half_arc_translates(circle), 0.0, -1.0,
                nprime_grid=[-1.0, -0.5])
    assert len(calls) == 4


def test_cd_check_flat_circle_fails_positive_curvature():
    space = uniform_circle(m=256, C=8.0)
    rho0, rho1 = half_arc_translates(space)
    rep = cd_check_1d(space, rho0, rho1, 1.0, -1.0,
                      nprime_grid=[-1.0, -0.5])
    assert not rep.verdict
    assert rep.min_rel_margin < -0.01
    assert 0.0 < rep.worst_t < 1.0


def test_cd_check_flat_circle_passes_zero_curvature():
    space = uniform_circle(m=256, C=8.0)
    rho0, rho1 = half_arc_translates(space)
    rep = cd_check_1d(space, rho0, rho1, 0.0, -1.0,
                      nprime_grid=[-1.0, -0.5])
    assert rep.verdict


def test_cd_check_full_circle_requires_cut():
    space = uniform_circle(m=64, C=8.0)
    rho = np.full(64, 1.0 / 8.0)
    with pytest.raises(ValidationError, match="cut"):
        cd_check_1d(space, rho, rho, 0.0, -1.0)
    rep = cd_check_1d(space, rho, rho, 0.0, -1.0, cut=0,
                      t_grid=[0.0, 0.5, 1.0], nprime_grid=[-1.0])
    assert rep.verdict and rep.cut == 0


def test_cd_check_rejects_a_cut_on_a_segment():
    # a cut used to be ignored on segments, with the report reading cut None
    space = cosh_family(1.0, -1.0, 1.0, 2.0, 64)
    rho0, rho1 = smooth_density_pairs(space, 1, seed=9)[0]
    with pytest.raises(ValidationError, match="cut = 3 on a segment"):
        cd_check_1d(space, rho0, rho1, 1.0, -1.0, cut=3)


def unroll_shift_oracle(space, gaps):
    """The loop ``_unroll_circle`` found its shift with: the end of the
    first longest run among the empty cells taken twice over."""
    m = space.m
    if not gaps.any():
        raise ValidationError("full-circle supports require an explicit cut choice")
    idx = np.flatnonzero(gaps)
    doubled = np.flatnonzero(np.concatenate([gaps, gaps]))
    best_len, best_end = 0, idx[0]
    run = 1
    for i in range(1, doubled.size):
        run = run + 1 if doubled[i] == doubled[i - 1] + 1 else 1
        if run > best_len and doubled[i] < 2 * m:
            best_len, best_end = run, doubled[i]
    if best_len * space.h <= space.total_length / 2.0:
        raise ValidationError("joint support exceeds a half-circle; pass an explicit cut")
    return int((best_end + 1) % m)


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.integers(1, 6), min_size=1, max_size=12),
       first_gap=st.booleans(), offset=st.integers(0, 80),
       split=st.integers(0, 2))
def test_unroll_circle_matches_run_loop(runs, first_gap, offset, split):
    # alternating runs of empty and occupied cells, rotated so that a run
    # may wrap across the origin; short runs give ties and one-cell runs
    gaps = np.concatenate([np.full(n, (k % 2 == 0) == first_gap)
                           for k, n in enumerate(runs)])
    gaps = np.roll(gaps, offset % gaps.size)
    space = uniform_circle(m=gaps.size, C=float(gaps.size))
    # the joint support, split between the two densities in three ways
    pos = (~gaps).astype(float)
    rho0, rho1 = [(pos, pos), (pos, np.zeros_like(pos)),
                  (np.where(np.arange(pos.size) % 2 == 0, pos, 0.0),
                   np.where(np.arange(pos.size) % 2 == 1, pos, 0.0))][split]
    try:
        want = unroll_shift_oracle(space, gaps)
    except ValidationError as e:
        with pytest.raises(ValidationError, match=re.escape(str(e))):
            curvature._unroll_circle(space, rho0, rho1, None)
    else:
        seg, r0, r1, shift = curvature._unroll_circle(space, rho0, rho1, None)
        assert shift == want
        assert seg.kind == "segment"
        assert np.array_equal(r0, np.roll(rho0, -shift))
        assert np.array_equal(r1, np.roll(rho1, -shift))


def test_cd_star_margin_dominates_cd_for_positive_K():
    # the reduced inequality is weaker for K >= 0: its margins dominate
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 96)
    rho0, rho1 = smooth_density_pairs(space, 1, seed=8)[0]
    rep_cd = cd_check_1d(space, rho0, rho1, 1.0, -1.0,
                         nprime_grid=[-1.0, -0.5], variant="CD")
    rep_star = cd_check_1d(space, rho0, rho1, 1.0, -1.0,
                           nprime_grid=[-1.0, -0.5], variant="CDstar")
    for c_cd, c_star in zip(rep_cd.cells, rep_star.cells):
        assert c_star.rel_margin >= c_cd.rel_margin - 1e-9


def test_cd_report_json_serialises(tmp_path):
    space = cosh_family(1.0, -1.0, 1.0, 2.0, 64)
    rho0, rho1 = smooth_density_pairs(space, 1, seed=9)[0]
    rep = cd_check_1d(space, rho0, rho1, 1.0, -1.0, t_grid=[0.0, 0.5, 1.0],
                      nprime_grid=[-1.0])
    path = write_report(tmp_path, "cd-check", dataclasses.asdict(rep),
                        {"K": 1.0}, default_config())
    doc = json.loads(path.read_text())
    assert doc["verdict"] == rep.verdict and doc["budget"] == rep.budget
    assert doc["cells"] == [dataclasses.asdict(c) for c in rep.cells]
    assert doc["metadata"]["params"] == {"K": 1.0}


@pytest.mark.parametrize("grids", [([], None), (None, [])])
def test_cd_check_rejects_empty_grids(grids):
    # an empty grid has no cell to fail, which would read as a pass
    space = cosh_family(1.0, -1.0, 1.0, 2.0, 64)
    rho0, rho1 = smooth_density_pairs(space, 1, seed=9)[0]
    with pytest.raises(ValidationError):
        cd_check_1d(space, rho0, rho1, 1.0, -1.0, *grids)


@pytest.mark.parametrize("name", ["renyi_entropy", "cd_check_1d", "bm_check",
                                  "kn_convexity_check", "tau_vals",
                                  "cd_obsdiam_bound"])
def test_nan_dimension_is_rejected(name):
    # NaN fails every comparison, so a guard written as N >= 0 lets it pass
    nan = float("nan")
    space = cosh_family(1.0, -1.0, 1.0, 2.0, 64)
    rho0, rho1 = smooth_density_pairs(space, 1, seed=9)[0]
    calls = {
        "renyi_entropy": lambda: renyi_entropy([0.5, 0.5], [0.25, 0.75], nan),
        "cd_check_1d": lambda: cd_check_1d(space, rho0, rho1, 1.0, nan),
        "bm_check": lambda: bm_check(space, (0.5, 1.0), (2.5, 3.0), 0.5,
                                     1.0, nan),
        "kn_convexity_check": lambda: kn_convexity_check(np.zeros(9), 1.0,
                                                         nan, 0.1),
        "tau_vals": lambda: tau_vals(1.0, nan, 0.5, [0.0, 1.0]),
        "cd_obsdiam_bound": lambda: cd_obsdiam_bound(1.0, nan, 0.5),
    }
    with pytest.raises(InvalidDimension):
        calls[name]()


@pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [
    "cd_check_1d", "cd_rhs", "bm_check", "kn_convexity_check", "sigma_vals",
    "tau_vals", "sigma_range_sup", "tau_sup", "cd_obsdiam_bound",
    "levy_bound_sequence", "cosh_family", "CounterexampleParams",
    "sinh_example_report"])
def test_nonfinite_curvature_is_rejected(name, K):
    # a NaN curvature fails every sign test and used to be read as K = 0
    space = cosh_family(1.0, -1.0, 1.0, 2.0, 64)
    rho0, rho1 = smooth_density_pairs(space, 1, seed=9)[0]
    calls = {
        "cd_check_1d": lambda: cd_check_1d(space, rho0, rho1, K, -1.0),
        "cd_rhs": lambda: cd_rhs(space, rho0, rho1, K, -1.0, 0.5),
        "bm_check": lambda: bm_check(space, (0.5, 1.0), (2.5, 3.0), 0.5,
                                     K, -1.0),
        "kn_convexity_check": lambda: kn_convexity_check(np.zeros(9), K,
                                                         -1.0, 0.1),
        "sigma_vals": lambda: sigma_vals(K, 0.3, [0.0, 1.0]),
        "tau_vals": lambda: tau_vals(K, -1.0, 0.5, [0.0, 1.0]),
        "sigma_range_sup": lambda: sigma_range_sup(K, 0.3, 0.0, 1.0),
        "tau_sup": lambda: tau_sup(K, -1.0, 0.5, 1.0),
        "cd_obsdiam_bound": lambda: cd_obsdiam_bound(K, -1.0, 0.5),
        "levy_bound_sequence": lambda: levy_bound_sequence(
            [1.0, K], [-1.0, -1.0], 0.1, "CD"),
        "cosh_family": lambda: cosh_family(K, -1.0, 1.0, 2.0, 64),
        "CounterexampleParams": lambda: CounterexampleParams(K=K),
        "sinh_example_report": lambda: sinh_example_report(K, -1.0),
    }
    with pytest.raises(ValidationError, match=r"\b(K|kappa) must be finite"):
        calls[name]()


@pytest.mark.parametrize("h", [0.0, -0.01, math.nan, math.inf])
def test_convexity_rejects_bad_step(h):
    with pytest.raises(ValidationError, match="h must be positive"):
        kn_convexity_check(np.zeros(9), 1.0, -1.0, h)


def test_volume_probe_rejects_nan_damping():
    with pytest.raises(ValidationError, match="C must be positive"):
        volume_growth_probe(lambda x: 0.0 * x, math.nan, 0.0, [1.0, 2.0])


def never_called(x):
    raise AssertionError("the density was evaluated before the radii were checked")


@pytest.mark.parametrize("radius, message", [
    # one point per 1/512 past R = 2048; the sinh-example command once
    # asked numpy for 3.73 TiB at R = 1e9
    (2048.01, "radii[1] = 2048.01 needs 1048582 Simpson points"),
    (math.inf, "radii must be positive and finite, radii[1] = inf"),
    (math.nan, "radii must be positive and finite, radii[1] = nan"),
])
def test_volume_probe_caps_its_grid_before_evaluating(radius, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        volume_growth_probe(never_called, 1.0, 0.0, [1.0, radius])


def test_volume_probe_rejects_nonpositive_radii():
    # a negative step h = x[1] - x[0] ended in a math domain error
    with pytest.raises(ValidationError, match=re.escape("radii[0] = -2.0")):
        volume_growth_probe(never_called, 1.0, 0.0, [-2.0, -1.0])
    with pytest.raises(ValidationError, match=re.escape("radii[0] = 0.0")):
        volume_growth_probe(never_called, 1.0, 0.0, [0.0, 1.0])


# ---------------------------------------------------------------------------
# Brunn-Minkowski


def test_bm_whole_support_margin_zero():
    space = cosh_family(1.0, -1.0, 1.0, 2.0, 128)
    lo, hi = 0.0, space.total_length
    res = bm_check(space, (lo, hi), (lo, hi), 0.4, 1.0, -1.0)
    assert res.margin == pytest.approx(0.0, abs=1e-9)
    assert res.ok


def test_bm_positive_control_intervals():
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 256)
    res = bm_check(space, (0.5, 1.5), (4.0, 5.0), 0.5, 1.0, -1.0)
    assert res.ok and res.margin >= -1e-9


def test_bm_relabel_reflection_symmetry():
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 256)
    a0, a1, t = (0.5, 1.6), (3.9, 5.2), 0.3
    r1 = bm_check(space, a0, a1, t, 1.0, -1.0)
    r2 = bm_check(space, a1, a0, 1.0 - t, 1.0, -1.0)
    assert r1.margin == pytest.approx(r2.margin, rel=1e-10)
    assert r1.lhs == pytest.approx(r2.lhs, rel=1e-12)


def test_bm_zero_mass_intermediate_is_violation():
    # density vanishing between two bumps: empty intermediate set, lhs = inf
    m = 200
    L = 10.0
    h = L / m
    x = (np.arange(m) + 0.5) * h
    rho = np.where((x < 2.0) | (x > 8.0), 1.0, 0.0)
    rho /= rho.sum() * h
    with np.errstate(divide="ignore"):
        space = WeightedOneDimSpace("segment", L, np.log(rho))
    res = bm_check(space, (0.5, 1.5), (8.5, 9.5), 0.5, 1.0, -1.0)
    assert math.isinf(res.lhs)
    assert not res.ok


def test_bm_zero_mass_source_at_t_one():
    # A0 carries no mass, so at t = 1 the rhs term sup0 * m0^{1/N} is
    # 0 * inf, which counts as 0: both sides are m1^{1/N} = 3
    m, L = 16, 4.0
    x = (np.arange(m) + 0.5) * (L / m)
    with np.errstate(divide="ignore"):
        space = WeightedOneDimSpace("segment", L,
                                    np.log(np.where(x > 1.0, 1.0 / 3.0, 0.0)))
    res = bm_check(space, (0.1, 0.6), (2.0, 3.0), 1.0, 1.0, -1.0)
    assert res.masses[0] == 0.0 and res.sups[0] == 0.0
    assert res.lhs == res.rhs == 3.0
    assert res.ok


def test_bm_domain_error_for_negative_K():
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 128)
    from mmlab.errors import DomainError
    with pytest.raises(DomainError):
        # span 5.5 exceeds pi sqrt(N/K) = pi for K = N = -1
        bm_check(space, (0.2, 0.7), (5.2, 5.7), 0.5, -1.0, -1.0)


# ---------------------------------------------------------------------------
# convexity checks


def test_convexity_constant_function_flat():
    f = np.zeros(101)
    rep = kn_convexity_check(f, 0.0, -1.0, 0.01)
    assert rep.verdict
    assert np.allclose(rep.residuals, 0.0, atol=1e-12)


def test_convexity_sinh_example_passes():
    K, N = 1.0, -1.0
    a = math.sqrt(0.25 - K / (N - 1.0))
    for h in (1e-2, 1e-3):
        x = np.arange(-5.0, 5.0 + h / 2, h)
        f = -(N - 1.0) * a * np.sinh(x)
        rep = kn_convexity_check(f, K, N - 1.0, h)
        assert rep.verdict, f"min residual {rep.min_residual} at h={h}"


def test_convexity_violation_detected():
    # f = -log-density of a measure that is nowhere near convex enough:
    # exp(-f/N) = cos has g'' + (K/N) g < 0 for K/N < 1 regions
    h = 1e-3
    x = np.arange(-1.0, 1.0, h)
    N = -1.0
    g = 2.0 + np.cos(3.0 * x)  # g'' = -9 cos, strongly negative at x=0
    f = -N * np.log(g)
    rep = kn_convexity_check(f, 1.0, N, h)
    assert not rep.verdict


def test_convexity_order_study_second_order():
    K, N2 = 1.0, -2.0
    a = math.sqrt(0.25 - K / N2)

    def f(x):
        return -N2 * a * np.sinh(np.asarray(x, dtype=float))

    for h in (1e-2, 1e-3):
        errs, ratios = convexity_order_study(f, K, N2, [h, h / 2.0],
                                             domain=(-5.0, 5.0))
        assert 3.0 <= ratios[0] <= 5.0, (h, errs, ratios)


def test_convexity_order_study_analytic_cosh():
    def f(x):
        return 2.0 * np.log(np.cosh(np.asarray(x, dtype=float)))

    errs, ratios = convexity_order_study(f, 1.0, -2.0, [4e-3, 2e-3, 1e-3],
                                         domain=(-3.0, 3.0))
    for r in ratios:
        assert 3.0 <= r <= 5.0


def test_convexity_periodic_stencil():
    m = 256
    h = 2 * math.pi / m
    x = (np.arange(m) + 0.5) * h
    f = -(-2.0) * np.log(2.0 + np.sin(x))  # g = 2 + sin, g'' = -sin
    # residual g'' + (K/N) g with K/N = 1/2... choose K so it stays positive:
    # g'' + c g = -sin + c(2+sin) >= 2c - (1+c...) pick c = 2: 4 + sin >= 3
    rep = kn_convexity_check(f, -4.0, -2.0, h, periodic=True)
    assert rep.residuals.size == m
    assert rep.verdict


# ---------------------------------------------------------------------------
# entropy inequality suite


def test_entropy_suite_all_pass():
    rng = np.random.default_rng(13)
    pts = rng.random((8, 3))
    space = FiniteMmSpace.from_points(pts, rng.dirichlet(np.ones(8)))
    rep = entropy_inequality_suite(space, 60, (-0.5, -1.0, -3.0), seed=21)
    assert rep.all_passed, rep.failures[:3]
    assert rep.passes["pushforward"] == 60
    assert rep.passes["partition_w2"] == 60


@pytest.mark.parametrize("n_trials", [0, -1])
def test_entropy_suite_rejects_no_trials(n_trials):
    # no trial ran, so nothing passed: an empty suite must not read as a pass
    space = FiniteMmSpace.from_points(np.eye(3), np.full(3, 1.0 / 3.0))
    with pytest.raises(ValidationError, match=f"got {n_trials}"):
        entropy_inequality_suite(space, n_trials)


def test_entropy_pushforward_identity_equality():
    from mmlab.core import pushforward
    rng = np.random.default_rng(14)
    mu = rng.dirichlet(np.ones(6))
    nu = rng.dirichlet(np.ones(6))
    ident = np.arange(6)
    s1 = renyi_entropy(pushforward(mu, ident, 6), pushforward(nu, ident, 6), -1.0)
    s2 = renyi_entropy(mu, nu, -1.0)
    assert float(s1) == pytest.approx(float(s2), rel=1e-14)


def test_entropy_conditioning_full_support_equality():
    rng = np.random.default_rng(15)
    mu = rng.dirichlet(np.ones(5))
    nu = rng.dirichlet(np.ones(5))
    b = np.ones(5, dtype=bool)  # B covers supp nu, nu(B) = 1
    lhs = 1.0 ** (1.0 - 1.0 / -1.0) * float(renyi_entropy(mu, condition_measure(nu, b), -1.0))
    assert lhs == pytest.approx(float(renyi_entropy(mu, nu, -1.0)), rel=1e-14)


# ---------------------------------------------------------------------------
# volume growth


def test_volume_growth_gaussian_finite():
    probe = volume_growth_probe(lambda x: -x ** 2, 1.0, 0.0, [1, 2, 4, 8])
    assert not probe.divergent
    # values converge: last doubling changes little
    assert probe.log_values[-1] - probe.log_values[-2] < math.log(1.01)


def test_volume_growth_sinh_diverges():
    K, N = 1.0, -1.0
    a = math.sqrt(0.25 - K / (N - 1.0))
    log_density = lambda x: (N - 1.0) * a * np.sinh(np.asarray(x))  # noqa: E731
    for C in (0.1, 1.0, 10.0):
        probe = volume_growth_probe(log_density, C, 0.0, [1, 2, 4, 8])
        assert probe.divergent


def test_volume_growth_large_C_polynomial_finite():
    log_density = lambda x: 3.0 * np.log1p(np.abs(np.asarray(x)))  # noqa: E731
    probe = volume_growth_probe(log_density, 100.0, 0.0, [1, 2, 4, 8])
    assert not probe.divergent


# The port must round as scipy does, bit for bit: the sinh-example report
# prints these log-values, and a plain shift by the max differs from scipy on
# about 1% of random vectors.


def test_logsumexp_matches_scipy_on_random_vectors():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(129, 3001))
        scale = 10.0 ** rng.uniform(0.0, 3.0)
        a = rng.standard_normal(n) * scale
        assert _logsumexp(a) == float(logsumexp(a))


def test_logsumexp_matches_scipy_on_tied_maxima():
    rng = np.random.default_rng(12)
    for k in (2, 3, 7, 64):
        for _ in range(50):
            a = rng.standard_normal(200) * 10.0
            a[rng.choice(a.size, k, replace=False)] = a.max() + 1.0
            assert _logsumexp(a) == float(logsumexp(a))
    for a in (np.zeros(5), np.full(129, -3.5), np.array([2.0, 2.0, -1.0])):
        assert _logsumexp(a) == float(logsumexp(a))


def test_logsumexp_matches_scipy_with_minus_inf_entries():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = rng.standard_normal(300) * 50.0
        a[rng.random(a.size) < 0.3] = -np.inf
        assert _logsumexp(a) == float(logsumexp(a))
    assert _logsumexp(np.array([-np.inf, 1.5, -np.inf])) == 1.5


def test_logsumexp_all_minus_inf_is_minus_inf():
    for n in (1, 2, 129):
        a = np.full(n, -np.inf)
        assert _logsumexp(a) == -math.inf == float(logsumexp(a))


@pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
def test_logsumexp_matches_scipy_on_sinh_example_arrays(monkeypatch, K):
    # record the exact arrays volume_growth_probe sums for the default
    # sinh-example C and R lists
    seen = []

    def recording(a):
        seen.append(a.copy())
        return _logsumexp(a)

    monkeypatch.setattr(curvature, "_logsumexp", recording)
    sinh_example_report(K, -1.0)
    assert len(seen) == 12
    for a in seen:
        assert _logsumexp(a) == float(logsumexp(a))
