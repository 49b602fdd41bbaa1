import math

import numpy as np
import pytest
from scipy.integrate import quad

from mmlab.coefficients import f_softabs
from mmlab.errors import ConvexityViolation, ValidationError
from mmlab.reporting import ExperimentReport, format_value
from mmlab.experiments import (
    CounterexampleParams,
    bm_collapse_sweep,
    build_counterexample,
    calibrate_cd_budget,
    cosh_family,
    counterexample_report,
    sinh_example_report,
    smooth_density_pairs,
    verify_separation_bounds,
    two_point_midpoint_gap,
)


# ---------------------------------------------------------------------------
# collapse family construction


def test_params_validation():
    p = CounterexampleParams(K=-1.0, N=-1.0)
    assert p.D == pytest.approx(math.pi * math.sqrt(2.0))
    assert p.nprime == -2.0 and p.kappa == 0.5
    with pytest.raises(ValidationError):
        CounterexampleParams(K=-1.0, N=-1.0, D=1.0)  # below the floor
    with pytest.raises(ValidationError):
        CounterexampleParams(K=1.0, N=-1.0)


@pytest.mark.parametrize("kw, message", [
    ({"D": math.inf}, "D must be finite, got inf"),
    ({"D": math.nan}, "D must be finite, got nan"),
    ({"N": -math.inf}, "N must be finite, got -inf"),
])
def test_params_reject_non_finite_lengths(kw, message):
    # D = inf passed as admissible and doubled the normaliser quadrature to
    # 1,048,576 points before it stalled
    with pytest.raises(ValidationError, match=message):
        CounterexampleParams(**{"K": -1.0, "N": -1.0, **kw})


def test_build_mass_and_symmetry():
    params = CounterexampleParams(m=512)
    space, a_n = build_counterexample(params, 4)
    assert space.kind == "circle"
    assert space.total_length == pytest.approx(2.0 * params.D)
    assert space.cell_masses.sum() == pytest.approx(1.0, abs=1e-8)
    # density is even under reflection through the pole at t = 0
    dens = space.density
    assert np.allclose(dens, dens[::-1], rtol=1e-12)


def test_normaliser_against_fine_quadrature():
    params = CounterexampleParams(m=512)
    _, a_1 = build_counterexample(params, 1)
    m = 8 * 512
    h = 2.0 * params.D / m
    t = (np.arange(m) + 0.5) * h
    integral = np.sum(f_softabs(1.0, np.sin(t / params.r)) ** params.nprime) * h
    oracle = integral ** (-1.0 / params.nprime)
    assert a_1 == pytest.approx(oracle, rel=1e-6)


def test_normaliser_resolution_agreement():
    for n, m in ((1, 512), (64, 2048)):
        a_coarse = build_counterexample(CounterexampleParams(m=m), n)[1]
        a_fine = build_counterexample(CounterexampleParams(m=2 * m), n)[1]
        assert a_coarse == pytest.approx(a_fine, rel=1e-6)


def test_coarse_grid_for_sharp_profile_rejected():
    from mmlab.errors import QuadratureNonConvergent
    with pytest.raises(QuadratureNonConvergent, match="too coarse"):
        build_counterexample(CounterexampleParams(m=256), 64)


def test_counterexample_report_small(pole_tail_ref):
    params = CounterexampleParams(n_list=(1, 2, 4), m=512)
    rep = counterexample_report(params)
    assert rep.metadata["all_convexity_pass"]
    assert rep.metadata["all_mass_bounded"]
    assert rep.metadata["a_n_increasing"]
    assert rep.metadata["mass_decreasing"]
    assert rep.metadata["prokhorov_decreasing"]
    # the coupling-feasibility distance never exceeds the bound 2r/a_n on the
    # mass fixed point, up to the grid shift h/2 + delta
    for n, dp, box in zip(params.n_list, rep.column("prokhorov"),
                          rep.column("box_upper")):
        ref = pole_tail_ref(params, n)
        assert 0.0 < dp <= ref.bound + ref.tol
        assert box == pytest.approx(2 * dp, abs=1e-12)


# ---------------------------------------------------------------------------
# two-point obstruction


def test_two_point_gap_closed_forms():
    D = 2.0
    res = two_point_midpoint_gap(D)
    expect = (math.sqrt(0.5) - 0.5) * D
    assert res.min_gap == pytest.approx(expect, abs=1e-12)
    assert res.q_opt == pytest.approx(0.5, abs=1e-12)
    # at q = 3/4 the first midpoint equation holds and the second fails by
    # |sqrt(3)/2 - 1/2| D
    gap34 = max(abs(math.sqrt(0.25) - 0.5), abs(math.sqrt(0.75) - 0.5)) * D
    assert gap34 == pytest.approx((math.sqrt(0.75) - 0.5) * D, abs=1e-15)
    assert res.min_gap < gap34


def test_two_point_gap_scale_covariant():
    g1 = two_point_midpoint_gap(1.0).min_gap
    for c in (0.25, 3.0, 17.5):
        assert two_point_midpoint_gap(c).min_gap == pytest.approx(c * g1, rel=1e-12)


def test_two_point_gap_degenerate():
    assert two_point_midpoint_gap(0.0).min_gap == 0.0


# ---------------------------------------------------------------------------
# cosh control


def test_cosh_family_normaliser_closed_form():
    K, N, lam, L = 1.0, -1.0, 1.0, 3.0
    # density sech^2 integrates to (2/lam) tanh(lam L) on [-L, L]
    closed = (2.0 / lam) * math.tanh(lam * L)
    quadrature, err = quad(lambda x: np.cosh(lam * x) ** (N - 1.0), -L, L)
    assert quadrature == pytest.approx(closed, abs=1e-10)
    space = cosh_family(K, N, lam, L, 512)
    grid_norm = np.sum(np.cosh(lam * (space.grid - L)) ** (N - 1.0)) * space.h
    assert grid_norm == pytest.approx(closed, rel=1e-4)  # midpoint-rule error
    peak = space.density.max()
    assert peak == pytest.approx(1.0 / closed, rel=1e-4)


def test_cosh_family_lambda_threshold():
    with pytest.raises(ConvexityViolation):
        cosh_family(1.0, -1.0, 0.5, 3.0, 128)  # needs lam^2 >= 1/2
    cosh_family(1.0, -1.0, math.sqrt(0.5) + 1e-8, 3.0, 128)


@pytest.mark.parametrize("lam, L, m, message", [
    (1.0, 3.0, 0, "m must be at least 1, got 0"),
    (1.0, 3.0, -2, "m must be at least 1, got -2"),
    (1.0, 0.0, 64, "L must be positive and finite, got 0.0"),
    (1.0, math.inf, 64, "L must be positive and finite, got inf"),
    (1.0, math.nan, 64, "L must be positive and finite, got nan"),
    (math.inf, 3.0, 64, "lam must be positive and finite, got inf"),
    (-1.0, 3.0, 64, "lam must be positive and finite, got -1.0"),
])
def test_cosh_family_rejects_bad_sizes(lam, L, m, message):
    # m = 0 divided by zero; L = 0 and lam = inf ended in a math domain error
    with pytest.raises(ValidationError, match=message):
        cosh_family(1.0, -1.0, lam, L, m)


def test_cosh_family_log_density_is_the_certified_exponent_negated():
    space = cosh_family(1.0, -1.0, 1.3, 2.5, 101)
    x = space.grid - 2.5
    want = (-1.0 - 1.0) * np.log(np.cosh(1.3 * x))
    want -= math.log(float(np.sum(np.exp(want)) * space.h))
    assert space.log_density.tobytes() == want.tobytes()


def test_smooth_density_pairs_are_valid():
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 128)
    for rho0, rho1 in smooth_density_pairs(space, 3, seed=1):
        assert np.all(rho0 > 0) and np.all(rho1 > 0)
        assert rho0.sum() * space.h == pytest.approx(1.0, abs=1e-12)


def test_calibrated_budget_is_small():
    c1, c2 = calibrate_cd_budget(resolutions=(96, 192), n_pairs=2, seed=0)
    assert c1 >= 1e-9 and c2 >= 0.0
    h = 6.0 / 512
    assert c1 * h + c2 * h * h < 1e-3


# ---------------------------------------------------------------------------
# sinh example and collapse sweep


def test_sinh_example_report_flags():
    rep = sinh_example_report(1.0, -1.0)
    assert rep.metadata["all_convexity_pass"]
    assert rep.metadata["order_ratios_ok"]
    assert rep.metadata["all_divergent"]
    assert rep.metadata["params"]["a"] == pytest.approx(math.sqrt(0.75))


def test_bm_collapse_sweep_monotone_decay():
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 256)
    K_list = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    rep = bm_collapse_sweep(space, (0.5, 1.5), (4.5, 5.5), 0.5, K_list, -1.0)
    assert rep.metadata["rhs_strictly_decreasing"]
    assert rep.metadata["final_rhs_over_lhs"] < 1e-3
    assert rep.metadata["first_violation_K"] is not None


def test_bm_collapse_overlapping_sets_never_violate():
    space = cosh_family(1.0, -1.0, 1.0, 3.0, 256)
    rep = bm_collapse_sweep(space, (1.0, 2.0), (1.0, 2.0), 0.5,
                            [1.0, 100.0, 10000.0], -1.0)
    assert rep.metadata["first_violation_K"] is None
    assert not any(rep.column("violation"))


# ---------------------------------------------------------------------------
# bound verification pipeline


def test_verify_separation_bounds_small():
    rep = verify_separation_bounds(K_list=(1.0, 4.0), kappas=(0.1, 0.3), m=128)
    assert rep.metadata["all_sep_bounded"]
    assert rep.metadata["scaling_within_10pct"]
    assert rep.metadata["levy_trend_flag"]
    seps = {(r[0], r[1]): r[2] for r in rep.rows}
    # exact 1/sqrt(K) scaling between the instances
    assert seps[(1.0, 0.1)] / seps[(4.0, 0.1)] == pytest.approx(2.0, rel=1e-9)


def test_verify_separation_bounds_csv_spells_python_scalars():
    rep = verify_separation_bounds(K_list=(1.0, 4.0), kappas=(0.1, 0.3), m=128)
    # line-window separations are Python floats, so the CSV spells every
    # number by repr and every flag as true/false: the cells read
    # np.float64(...) and True while separation returned numpy scalars
    assert all(type(v) in (float, bool) for row in rep.rows for v in row)
    for line in rep.csv_text().splitlines()[1:]:
        cells = line.split(",")
        assert all(c in ("true", "false") for c in (cells[4], cells[8]))
        assert [float(c) for i, c in enumerate(cells) if i not in (4, 8)]


def test_format_value_spells_numpy_scalars_like_python_ones():
    # np.float64 is a float whose repr reads np.float64(...), and np.bool_
    # is no bool; a CSV cell spells either as its Python value
    for v, cell in ((np.float64(2.5), "2.5"), (np.float32(0.5), "0.5"),
                    (np.float64(-math.inf), "-inf"),
                    (np.float64(math.nan), "nan"),
                    (np.True_, "true"), (np.False_, "false")):
        assert format_value(v) == cell
    rep = ExperimentReport("x", ["a", "b"])
    rep.add(a=np.float64(0.1), b=np.bool_(False))
    assert rep.csv_text() == "a,b\n0.1,false\n"
