import importlib.util
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mmlab import transport
from mmlab.config import SOLVER_TOL
from mmlab.core import Coupling, FiniteMmSpace
from mmlab.errors import (
    DegenerateDensity,
    NonSegment,
    SolverFailure,
    ValidationError,
)
from mmlab.experiments import (
    CounterexampleParams,
    cosh_family,
    counterexample_report,
)
from mmlab.transport import (
    HALL_MAX_ATOMS,
    MonotonePlan,
    _augmenting_search,
    _certify_flow,
    _certify_partial_flow,
    _flow_close_mass,
    _hall_close_mass,
    _round_to_marginals,
    PiecewiseQuantile,
    WeightedOneDimSpace,
    discretize,
    displacement_interpolate_1d,
    interval_mass,
    ky_fan,
    prokhorov,
    prokhorov_from_distances,
    w2_circle_quantile,
    w2_exact,
    w2_quantile_1d,
)


def random_space(rng, n, dim=3):
    pts = rng.random((n, dim))
    return FiniteMmSpace.from_points(pts, rng.dirichlet(np.ones(n)))


def segment(m=32, L=4.0, kind="uniform"):
    if kind == "uniform":
        return WeightedOneDimSpace.from_density(
            "segment", L, m, lambda x: np.full_like(x, 1.0 / L))
    raise ValueError(kind)


def random_density(space, rng, bumps=2):
    x = space.grid
    rho = np.full_like(x, 0.05)
    for _ in range(bumps):
        c = rng.uniform(x[0], x[-1])
        w = rng.uniform(0.2, 0.8)
        rho = rho + np.exp(-((x - c) / w) ** 2)
    return rho / (rho.sum() * space.h)


# ---------------------------------------------------------------------------
# 1D space type


def test_1d_space_validation():
    with pytest.raises(ValidationError, match="mass"):
        WeightedOneDimSpace("segment", 2.0, np.array([0.0, 0.0]))
    with pytest.raises(ValidationError, match="kind"):
        WeightedOneDimSpace("disc", 2.0, np.log(np.array([0.5, 0.5])))


def test_1d_space_json_round_trip():
    sp = segment(16)
    back = WeightedOneDimSpace.from_json(sp.to_json())
    assert back.kind == sp.kind
    assert back.m == sp.m
    assert np.allclose(back.log_density, sp.log_density)
    assert np.allclose(back.grid, sp.grid)


SEGMENT_DOC = {"kind": "segment", "total_length": 1.0, "grid_size": 1,
               "log_density": [0.0]}


@pytest.mark.parametrize("doc, message", [
    ({**SEGMENT_DOC, "grid_size": "x"}, "field 'grid_size': invalid literal"),
    ({**SEGMENT_DOC, "grid_size": None}, "field 'grid_size'"),
    ({**SEGMENT_DOC, "grid_size": math.inf}, "field 'grid_size': cannot convert"),
    ({**SEGMENT_DOC, "total_length": "x"}, "field 'total_length'"),
    ({**SEGMENT_DOC, "grid_size": 2, "log_density": [0.0, [1.0]]},
     "field 'log_density'"),
    ({**SEGMENT_DOC, "log_density": "ab"}, "field 'log_density'"),
    (list(SEGMENT_DOC), "must be a JSON object, got list"),
    ("segment", "must be a JSON object, got str"),
    ({k: v for k, v in SEGMENT_DOC.items() if k != "kind"}, "missing 'kind'"),
])
def test_1d_space_json_rejects_malformed_fields(doc, message):
    # each was a bare ValueError, TypeError, OverflowError or KeyError
    assert WeightedOneDimSpace.from_json(json.dumps(SEGMENT_DOC)).m == 1
    with pytest.raises(ValidationError, match=re.escape(message)):
        WeightedOneDimSpace.from_json(json.dumps(doc))


@pytest.mark.parametrize("key, value, message", [
    ("total_length", True, "field 'total_length': expected a number, got true"),
    ("total_length", False, "field 'total_length': expected a number, got false"),
    ("grid_size", True, "field 'grid_size': expected an integer, got true"),
    ("grid_size", 2.7, "field 'grid_size': expected an integer, got 2.7"),
    ("grid_size", 1.5, "field 'grid_size': expected an integer, got 1.5"),
])
def test_1d_space_json_rejects_booleans_and_fractions(key, value, message):
    # true read as a length of 1.0 or a grid of 1, and int() truncated a
    # fraction
    with pytest.raises(ValidationError, match=re.escape(message)):
        WeightedOneDimSpace.from_json(json.dumps({**SEGMENT_DOC, key: value}))


def test_1d_space_json_reads_integral_float_grid_size():
    doc = {**SEGMENT_DOC, "grid_size": 2.0, "log_density": [0.0, 0.0]}
    sp = WeightedOneDimSpace.from_json(json.dumps(doc))
    assert sp.m == 2 and type(sp.total_length) is float


def test_interval_mass_uniform():
    sp = segment(40, L=4.0)
    assert interval_mass(sp, 0.0, 4.0) == pytest.approx(1.0, abs=1e-12)
    assert interval_mass(sp, 1.0, 2.0) == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# exact transport LP


def test_w2_equal_measures_is_zero():
    rng = np.random.default_rng(0)
    s = random_space(rng, 6)
    rep = w2_exact(s, s.weights, s.weights)
    assert rep.value == pytest.approx(0.0, abs=1e-12)
    assert rep.dual_gap <= 1e-10


def test_w2_point_masses():
    s = FiniteMmSpace((0, 1), np.array([[0.0, 2.5], [2.5, 0.0]]), [0.5, 0.5])
    rep = w2_exact(s, [1.0, 0.0], [0.0, 1.0])
    assert rep.value == pytest.approx(2.5, rel=1e-12)
    assert rep.coupling.matrix[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_w2_half_mass_on_line():
    # uniform on {0,1} to a unit atom at 0 moves mass 1/2 across distance 1
    s = FiniteMmSpace((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5])
    rep = w2_exact(s, [0.5, 0.5], [1.0, 0.0])
    assert rep.value == pytest.approx(math.sqrt(0.5), rel=1e-12)


def _marginal_pattern(na: int, nb: int):
    """(rows, cols) of the unit entries of the marginal constraints on a
    row-major na x nb plan: row i sums plan row i, row na + j plan column j."""
    rows = np.concatenate([np.repeat(np.arange(na), nb),
                           np.repeat(np.arange(na, na + nb), na)])
    cols = np.concatenate([np.arange(na * nb),
                           np.tile(np.arange(0, na * nb, nb), nb)
                           + np.repeat(np.arange(nb), na)])
    return rows, cols


def pattern_csc(na: int, nb: int):
    """The CSC that ``w2_exact`` assembled from the pattern: the last row
    dropped, columns counted, rows put in column order by a stable sort."""
    rows, cols = _marginal_pattern(na, nb)
    keep = rows < na + nb - 1
    rows, cols = rows[keep], cols[keep]
    indptr = np.zeros(na * nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=na * nb), out=indptr[1:])
    return indptr, rows[np.argsort(cols, kind="stable")], np.ones(rows.size)


def test_marginal_pattern_matches_loop(monkeypatch):
    # the per-row loop the LP was assembled with: plan row sums first, then
    # column sums, each in increasing column order
    na, nb = 3, 4
    rows, cols = [], []
    for i in range(na):
        rows.extend([i] * nb)
        cols.extend(range(i * nb, (i + 1) * nb))
    for j in range(nb):
        rows.extend([na + j] * na)
        cols.extend(range(j, na * nb, nb))
    got_rows, got_cols = _marginal_pattern(na, nb)
    assert got_rows.tolist() == rows and got_cols.tolist() == cols
    # the CSC that w2_exact hands to linprog is the pattern's, array for
    # array, on every support size up to 12 a side
    seen = []
    real = transport.linprog

    def record(c, A_eq, b_eq):
        seen.append(A_eq)
        return real(c, A_eq, b_eq)

    monkeypatch.setattr(transport, "linprog", record)
    space = FiniteMmSpace.from_points(np.arange(12.0)[:, None], np.full(12, 1 / 12))
    for na in range(1, 13):
        for nb in range(1, 13):
            mu = np.zeros(12)
            mu[:na] = 1.0 / na
            nu = np.zeros(12)
            nu[12 - nb:] = 1.0 / nb
            w2_exact(space, mu, nu)
            for got, want in zip(seen.pop(), pattern_csc(na, nb)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (na, nb)


def test_w2_metric_axioms_sampled():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        s = random_space(rng, n)
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        lam = rng.dirichlet(np.ones(n))
        d_mn = w2_exact(s, mu, nu).value
        d_nm = w2_exact(s, nu, mu).value
        assert abs(d_mn - d_nm) <= 1e-10
        d_ml = w2_exact(s, mu, lam).value
        d_nl = w2_exact(s, nu, lam).value
        assert d_ml <= d_mn + d_nl + 1e-9
        assert w2_exact(s, mu, mu).value <= 1e-10


def test_w2_lower_semicontinuity_surrogate():
    # along entrywise-converging weights the limit value never exceeds the
    # tail of computed values by more than the coupling perturbation bound
    rng = np.random.default_rng(3)
    s = random_space(rng, 5)
    mu = rng.dirichlet(np.ones(5))
    nu = rng.dirichlet(np.ones(5))
    target = w2_exact(s, mu, nu).value
    diam = s.diam
    for k in (10, 100, 1000):
        mu_k = (1 - 1.0 / k) * mu + (1.0 / k) * np.full(5, 0.2)
        nu_k = (1 - 1.0 / k) * nu + (1.0 / k) * np.full(5, 0.2)
        val = w2_exact(s, mu_k, nu_k).value
        slack = 2.0 * diam * math.sqrt(1.0 / k)
        assert target <= val + slack + 1e-12


def head_lp_w2_squared(space, mu, nu):
    """The earlier ``w2_exact``, kept as an oracle: HiGHS dual simplex with
    presolve on, on all na + nb marginal rows, accepted only when its duals
    give nonnegative reduced costs and a gap within ``SOLVER_TOL`` times the
    cost scale and its plan meets the marginals within 1e-9.  Returns the
    optimal squared cost, or None where that procedure raised."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix
    sa, sb = np.flatnonzero(mu > 0), np.flatnonzero(nu > 0)
    wa, wb = mu[sa], nu[sb]
    cost = space.dist[np.ix_(sa, sb)] ** 2
    na, nb = sa.size, sb.size
    rows, cols = _marginal_pattern(na, nb)
    A_eq = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(na + nb, na * nb))
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=np.concatenate([wa, wb]),
                  bounds=(0, None), method="highs-ds")
    if res.status != 0:
        return None
    scale = max(float(cost.max()), 1.0)
    u, v = res.eqlin.marginals[:na], res.eqlin.marginals[na:]
    if (cost - u[:, None] - v[None, :]).min() < -SOLVER_TOL * scale:
        return None
    if abs(res.fun - (u @ wa + v @ wb)) > SOLVER_TOL * scale:
        return None
    plan = np.zeros((space.n, space.n))
    plan[np.ix_(sa, sb)] = res.x.reshape(na, nb)
    try:
        Coupling(plan, mu, nu, marginal_tol=SOLVER_TOL * 10)
    except ValidationError:
        return None
    return float(res.fun)


def _bench_inputs():
    # the benchmark's input generator imports numpy alone, so it loads by path
    path = Path(__file__).resolve().parents[1] / "mmbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("mmbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_w2_value_is_the_cost_of_its_coupling():
    # every w2_exact result of the finite-lp benchmark inputs, seeds 0-39:
    # value is the cost of the coupling returned, sqrt(upper), and the
    # reported bracket never inverts (the float dual bound can pass the
    # primal cost by rounding)
    inputs = _bench_inputs()
    count = 0
    for seed in range(40):
        for bundle in inputs.finite_lp(seed)["bundles"]:
            for s in bundle:
                space = FiniteMmSpace(tuple(range(s["n"])), s["dist"],
                                      s["weights"])
                sq = space.dist ** 2
                mu, nu, lam = s["mu"], s["nu"], s["lam"]
                for a, b in ((mu, nu), (nu, mu), (mu, lam), (nu, lam)):
                    rep = w2_exact(space, a, b)
                    assert rep.value == math.sqrt(rep.upper)
                    assert rep.lower <= rep.upper
                    assert rep.dual_gap == rep.upper - rep.lower
                    cost = float(np.sum(rep.coupling.matrix * sq))
                    assert abs(cost - rep.upper) <= 1e-14 * rep.upper
                    count += 1
    assert count == 6400


def assert_certified(space, mu, nu):
    """``w2_exact`` brackets value**2 between its bounds (up to rounding)
    within ``SOLVER_TOL`` times the cost scale, and agrees with the oracle
    where the oracle succeeds.  Returns the oracle's result."""
    rep = w2_exact(space, mu, nu)
    scale = max(float(space.dist.max()) ** 2, 1.0)
    sq = rep.value ** 2
    assert rep.lower <= sq + 1e-14 * scale
    assert sq <= rep.upper + 1e-14 * scale
    assert rep.dual_gap == abs(rep.upper - rep.lower)
    assert rep.dual_gap <= SOLVER_TOL * scale
    # the plan is rounded onto the marginals, not left at HiGHS's tolerance
    assert np.abs(rep.coupling.matrix.sum(axis=1) - mu).max() <= 1e-14
    assert np.abs(rep.coupling.matrix.sum(axis=0) - nu).max() <= 1e-14
    oracle = head_lp_w2_squared(space, np.asarray(mu), np.asarray(nu))
    if oracle is not None:
        assert abs(sq - oracle) <= SOLVER_TOL * scale
    return oracle


# 64 cube points with Dirichlet(0.3) masses: the earlier LP missed the
# coupling's 1e-9 marginal check on six of these seeds, and presolve called
# seeds 10 and 16 infeasible (total masses a few ulp apart)
CUBE_SEEDS = [0, 5, 8, 10, 12, 15, 16, 19]


def dirichlet_cube(seed):
    rng = np.random.default_rng(seed)
    space = FiniteMmSpace.from_points(rng.random((64, 3)), np.full(64, 1 / 64))
    mu = rng.dirichlet(np.full(64, 0.3))
    nu = rng.dirichlet(np.full(64, 0.3))
    return space, mu, nu


@pytest.mark.parametrize("seed", CUBE_SEEDS)
def test_w2_certified_on_dirichlet_cube(seed):
    assert_certified(*dirichlet_cube(seed))


def dyadic_line_space(rng):
    """Sorted uniform points on [0, 1] with |x_i - x_j| and two mass vectors
    on multiples of 2**-10."""
    n = int(rng.integers(8, 33))
    x = np.sort(rng.random(n))

    def masses():
        counts = np.floor(rng.dirichlet(np.ones(n)) * 1024).astype(int)
        counts[np.argmax(counts)] += 1024 - counts.sum()
        return counts / 1024

    space = FiniteMmSpace(tuple(range(n)), np.abs(x[:, None] - x[None, :]),
                          np.full(n, 1 / n))
    return space, masses(), masses()


def test_w2_certified_on_dyadic_lines():
    # line metrics are degenerate transportation LPs; in this batch the
    # earlier LP's duals failed their reduced-cost check at least once
    rng = np.random.default_rng(12345)
    oracles = [assert_certified(*dyadic_line_space(rng)) for _ in range(100)]
    assert any(o is None for o in oracles)


def test_round_to_marginals_meets_marginals():
    rng = np.random.default_rng(9)
    for _ in range(50):
        na, nb = rng.integers(1, 12, size=2)
        r = rng.dirichlet(np.ones(na))
        c = rng.dirichlet(np.ones(nb))
        plan = np.outer(r, c) * rng.uniform(0.5, 1.5, size=(na, nb))
        plan[rng.random((na, nb)) < 0.3] = 0.0
        plan[0, 0] -= 1e-12  # a slightly negative entry is clipped
        out = _round_to_marginals(plan, r, c)
        assert out.min() >= 0.0
        assert np.abs(out.sum(axis=1) - r).max() <= 1e-15
        assert np.abs(out.sum(axis=0) - c).max() <= 1e-15
    # a plan that already has the marginals is left as it is
    plan = np.array([[0.25, 0.25], [0.5, 0.0]])
    assert np.array_equal(
        _round_to_marginals(plan, np.array([0.5, 0.5]), np.array([0.75, 0.25])),
        plan)


def tamper_lp_results(monkeypatch, tamper):
    """Pass every result of ``transport.linprog`` through ``tamper(res)``."""
    solve = transport.linprog

    def tampered(*args, **kwargs):
        res = solve(*args, **kwargs)
        tamper(res)
        return res

    monkeypatch.setattr(transport, "linprog", tampered)


def eight_point_case():
    rng = np.random.default_rng(4)
    return random_space(rng, 8), rng.dirichlet(np.ones(8)), rng.dirichlet(np.ones(8))


def test_w2_lower_bound_ignores_lp_column_duals(monkeypatch):
    # the column duals are the c-transform of the row duals, feasible by
    # construction; infeasible column duals from the solver change nothing
    clean = w2_exact(*eight_point_case())

    def raise_last_column_dual(res):
        res.row_dual[-1] += 0.5

    tamper_lp_results(monkeypatch, raise_last_column_dual)
    rep = w2_exact(*eight_point_case())
    assert (rep.lower, rep.upper, rep.value) == (clean.lower, clean.upper,
                                                 clean.value)


def test_w2_rounds_plan_within_solver_tolerance(monkeypatch):
    # HiGHS may return a plan off its marginals and slightly negative
    # within its feasibility tolerance; the reported coupling is exact
    noise = np.random.default_rng(5)

    def perturb_plan(res):
        res.x = res.x * (1.0 + 1e-11 * noise.standard_normal(res.x.size))
        res.x[np.argmin(res.x)] = -1e-12

    tamper_lp_results(monkeypatch, perturb_plan)
    s, mu, nu = eight_point_case()
    plan = w2_exact(s, mu, nu).coupling.matrix
    assert plan.min() >= 0.0
    assert np.abs(plan.sum(axis=1) - mu).max() <= 1e-15
    assert np.abs(plan.sum(axis=0) - nu).max() <= 1e-15


def spread_plan(res):
    res.x = np.full_like(res.x, 1.0 / res.x.size)


def lower_first_row_dual(res):
    res.row_dual[0] -= 0.5


@pytest.mark.parametrize("tamper", [spread_plan, lower_first_row_dual])
def test_w2_certificate_rejects_corrupted_solution(monkeypatch, tamper):
    # a plan that is not optimal raises the upper bound, row duals that are
    # not optimal lower the lower bound; either opens the gap
    tamper_lp_results(monkeypatch, tamper)
    with pytest.raises(SolverFailure, match="primal-dual gap"):
        w2_exact(*eight_point_case())


def oracle_cases():
    """(space, mu, nu) for the scipy oracle: random spaces of 1 to 40
    points, one-atom supports on either side, the Dirichlet cubes and a few
    dyadic line spaces."""
    rng = np.random.default_rng(31)
    for n in range(1, 41):
        yield random_space(rng, n), rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    space = random_space(rng, 6)
    spread = rng.dirichlet(np.ones(6))
    yield space, np.eye(6)[2], spread
    yield space, spread, np.eye(6)[4]
    for seed in CUBE_SEEDS:
        yield dirichlet_cube(seed)
    rng = np.random.default_rng(12345)
    for _ in range(5):
        yield dyadic_line_space(rng)
    # the scale of the benchmark's largest finite spaces
    rng = np.random.default_rng(120)
    yield random_space(rng, 120), rng.dirichlet(np.ones(120)), rng.dirichlet(np.ones(120))


def test_linprog_matches_scipy_bit_for_bit(monkeypatch):
    # the slow oracle: transport.linprog calls scipy's private HiGHS
    # bindings, and must return what the public scipy.optimize.linprog
    # returns on the same LP; a scipy release that changes them fails here
    from scipy.optimize import linprog as scipy_linprog
    from scipy.sparse import csc_array
    lps = []
    solve = transport.linprog

    def recording(*lp):
        lps.append(lp)
        return solve(*lp)

    monkeypatch.setattr(transport, "linprog", recording)
    cases = list(oracle_cases())
    for case in cases:
        w2_exact(*case)
    assert len(lps) == len(cases)
    # _HIGHS_OPTIONS in scipy's spelling
    options = {"presolve": False, "primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}
    for c, (indptr, indices, data), b_eq in lps:
        ours = solve(c, (indptr, indices, data), b_eq)
        ref = scipy_linprog(c, A_eq=csc_array((data, indices, indptr),
                                              shape=(b_eq.size, c.size)),
                            b_eq=b_eq, bounds=(0, None), method="highs-ds",
                            options=options)
        assert ours.status == ref.status == 0
        assert ours.x.tobytes() == ref.x.tobytes()
        assert float(ours.fun).hex() == float(ref.fun).hex()
        assert ours.nit == ref.nit
        assert ours.row_dual.tobytes() == ref.eqlin.marginals.tobytes()


# LPs through transport.linprog in a fresh interpreter, then scipy.optimize:
# its public linprog must give the same bits and reuse the extension module
# that linprog loaded, one object with one set of pybind11 types
LINPROG_FIRST = """
import sys
import numpy as np
from mmlab import transport
from mmlab.core import FiniteMmSpace
lps, solve = [], transport.linprog
def recording(*lp):
    lps.append((*lp, solve(*lp)))
    return lps[-1][-1]
transport.linprog = recording
rng = np.random.default_rng(31)
for n in (1, 2, 7, 40):
    space = FiniteMmSpace.from_points(rng.random((n, 3)),
                                      rng.dirichlet(np.ones(n)))
    transport.w2_exact(space, rng.dirichlet(np.ones(n)),
                       rng.dirichlet(np.ones(n)))
assert "scipy.optimize" not in sys.modules
highs = sys.modules["scipy.optimize._highspy._core"]
from scipy.optimize import linprog
from scipy.optimize._linprog_highs import HighsModelStatus
from scipy.sparse import csc_array
import scipy.optimize._highspy._core as core
assert core is highs and transport._highs() is highs
assert HighsModelStatus is highs.HighsModelStatus
options = {"presolve": False, "primal_feasibility_tolerance": 1e-10,
           "dual_feasibility_tolerance": 1e-10}
for c, (indptr, indices, data), b_eq, ours in lps:
    ref = linprog(c, A_eq=csc_array((data, indices, indptr),
                                    shape=(b_eq.size, c.size)),
                  b_eq=b_eq, bounds=(0, None), method="highs-ds",
                  options=options)
    assert ours.status == ref.status == 0
    assert ours.x.tobytes() == ref.x.tobytes()
    assert float(ours.fun).hex() == float(ref.fun).hex()
    assert ours.nit == ref.nit
    assert ours.row_dual.tobytes() == ref.eqlin.marginals.tobytes()
print(len(lps))
"""


def test_linprog_matches_scipy_when_it_loads_highs_first():
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    res = subprocess.run([sys.executable, "-c", LINPROG_FIRST],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.split() == ["4"]


# one column that two rows pin to 0.5 and to 0.7
INFEASIBLE_LP = {"A_eq": (np.array([0, 2]), np.array([0, 1]), np.ones(2)),
                 "b_eq": np.array([0.5, 0.7])}


def test_missing_highs_extension_names_its_path(monkeypatch):
    monkeypatch.delitem(sys.modules, transport._HIGHS_MODULE, raising=False)
    monkeypatch.setattr(transport, "EXTENSION_SUFFIXES", [".absent.so"])
    with pytest.raises(ImportError, match="scipy >= 1.15") as err:
        transport.linprog(np.ones(1), **INFEASIBLE_LP)
    assert err.value.path.endswith(
        os.path.join("scipy", "optimize", "_highspy", "_core.absent.so"))
    assert err.value.path in str(err.value)
    assert transport._HIGHS_MODULE not in sys.modules


def test_linprog_reports_a_model_that_is_not_optimal():
    res = transport.linprog(np.ones(1), **INFEASIBLE_LP)
    assert res.status != 0
    assert res.message == "Infeasible"


@pytest.mark.parametrize("option, change", [
    ({"primal_feasibility_tolerance": -1.0}, {}),
    ({}, {"b_eq": np.array([0.5])}),
], ids=["refused_option", "malformed_model"])
def test_linprog_rejects_what_it_does_not_solve(monkeypatch, option, change):
    # an option HiGHS refuses or a malformed model raise, rather than solve
    # under HiGHS's default settings or an empty model
    for key, value in option.items():
        monkeypatch.setitem(transport._HIGHS_OPTIONS, key, value)
    with pytest.raises(ValueError):
        transport.linprog(np.ones(1), **{**INFEASIBLE_LP, **change})


@pytest.mark.parametrize("change", [
    {"c": np.broadcast_to(1.0, 2 ** 31)},
    {"A_eq": (np.array([0, 2 ** 31]), np.array([0, 1]), np.ones(2))},
])
def test_linprog_rejects_counts_past_int32(change):
    # HiGHS counts in int32; a cast would wrap.  The huge column vector is a
    # broadcast view, so nothing large is allocated
    lp = {"c": np.ones(1), **INFEASIBLE_LP, **change}
    with pytest.raises(ValueError, match="HiGHS counts to 2147483647"):
        transport.linprog(lp.pop("c"), **lp)


def fresh_solve(c, A_eq, b_eq):
    """The oracle for linprog's kept solver: a new ``_Highs`` given the
    options and then the LP, as linprog built one for each LP before it
    kept one per thread.  The result as ``linprog_summary`` gives it."""
    highs = transport._highs()
    settings = highs.HighsOptions()
    for key, value in transport._HIGHS_OPTIONS.items():
        setattr(settings, key, value)
    solver = highs._Highs()
    assert solver.passOptions(settings) != highs.HighsStatus.kError
    indptr, indices, data = A_eq
    n = c.size
    if solver.passModel(n, b_eq.size, int(indptr[-1]),
                        highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize,
                        0.0, c, np.zeros(n), np.full(n, highs.kHighsInf),
                        b_eq, b_eq, indptr.astype(np.int32),
                        indices.astype(np.int32), data,
                        np.zeros(n, np.int32)) == highs.HighsStatus.kError:
        return "rejected"
    solver.run()
    info = solver.getInfo()
    if solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        return 1, info.simplex_iteration_count
    solution = solver.getSolution()
    return (0, np.array(solution.col_value).tobytes(),
            float(info.objective_function_value).hex(),
            np.array(solution.row_dual).tobytes(),
            info.simplex_iteration_count)


def linprog_summary(lp):
    """(status, x bytes, fun hex, row_dual bytes, nit) of
    ``transport.linprog(*lp)``; (status, nit) when it is not optimal, and
    "rejected" when it raises ``ValueError``."""
    try:
        res = transport.linprog(*lp)
    except ValueError:
        return "rejected"
    if res.status != 0:
        return res.status, res.nit
    return (0, res.x.tobytes(), float(res.fun).hex(), res.row_dual.tobytes(),
            res.nit)


def transport_lp(rng, n):
    """The LP that ``w2_exact`` builds on a random space of ``n`` points."""
    lps = []
    solve = transport.linprog
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "linprog", lambda *lp: lps.append(lp) or solve(*lp))
        w2_exact(random_space(rng, n), rng.dirichlet(np.ones(n)),
                 rng.dirichlet(np.ones(n)))
    return lps[0]


def test_kept_solver_solves_each_lp_as_a_fresh_one():
    # linprog passes every LP to one solver per thread; a size, basis or
    # solution kept from the LP before, or a state left by a failed or
    # rejected one, would show as a difference from a fresh solver (a kept
    # basis as nit 0 on the repeated LP)
    rng = np.random.default_rng(17)
    large, small, single, large_again = (transport_lp(rng, n)
                                         for n in (40, 3, 1, 32))
    infeasible = (np.ones(1), INFEASIBLE_LP["A_eq"], INFEASIBLE_LP["b_eq"])
    rejected = (np.ones(1), INFEASIBLE_LP["A_eq"], np.array([0.5]))
    sequence = [large, small, single, large_again, large_again, infeasible,
                rejected, small, large]
    highs = transport._highs()
    solver = transport._solver(highs)
    summaries = [linprog_summary(lp) for lp in sequence]
    assert transport._solver(highs) is solver
    for lp, summary in zip(sequence, summaries):
        assert summary == fresh_solve(*lp)
    assert summaries[3] == summaries[4] and summaries[4][-1] > 0
    assert summaries[5] == (1, summaries[5][1])
    assert summaries[6] == "rejected"
    assert summaries[8] == summaries[0]


def test_each_thread_solves_on_its_own_solver():
    lp = transport_lp(np.random.default_rng(18), 24)
    highs = transport._highs()
    solver = transport._solver(highs)
    seen = {}

    def solve_in_thread():
        seen["summary"] = linprog_summary(lp)
        seen["solver"] = transport._solver(highs)

    thread = threading.Thread(target=solve_in_thread)
    thread.start()
    thread.join()
    assert seen["solver"] is not solver
    assert seen["summary"] == linprog_summary(lp) == fresh_solve(*lp)
    assert transport._solver(highs) is solver


def test_w2_raises_when_the_lp_is_not_optimal(monkeypatch):
    failed = transport.linprog(np.ones(1), **INFEASIBLE_LP)
    monkeypatch.setattr(transport, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(SolverFailure, match="transport LP failed: Infeasible"):
        w2_exact(*eight_point_case())


# ---------------------------------------------------------------------------
# quantile transport


def test_quantile_zero_for_equal_densities():
    sp = segment(64)
    rho = random_density(sp, np.random.default_rng(1))
    assert w2_quantile_1d(sp, rho, rho).value == pytest.approx(0.0, abs=1e-12)


def test_quantile_translates():
    sp = segment(200, L=10.0)
    x = sp.grid
    base = np.exp(-((x - 3.0) / 0.5) ** 2)
    shifted = np.exp(-((x - 5.0) / 0.5) ** 2)
    base /= base.sum() * sp.h
    shifted /= shifted.sum() * sp.h
    rep = w2_quantile_1d(sp, base, shifted)
    assert rep.value == pytest.approx(2.0, abs=2e-3)
    assert rep.method == "quantile-cells"


def test_quantile_disjoint_blocks_translate():
    # two disjoint uniform blocks of mass 1/2, against their translate by c
    sp = segment(400, L=8.0)
    x = sp.grid
    c = 1.5
    rho0 = (np.where((x >= 0.5) & (x <= 1.5), 1.0, 0.0)
            + np.where((x >= 3.0) & (x <= 4.0), 1.0, 0.0))
    rho1 = (np.where((x >= 0.5 + c) & (x <= 1.5 + c), 1.0, 0.0)
            + np.where((x >= 3.0 + c) & (x <= 4.0 + c), 1.0, 0.0))
    rho0 /= rho0.sum() * sp.h
    rho1 /= rho1.sum() * sp.h
    rep = w2_quantile_1d(sp, rho0, rho1)
    assert rep.value == pytest.approx(c, abs=1e-9)


def test_quantile_single_blocks_offset():
    # single blocks: the quantile shift equals the offset between them
    sp = segment(400, L=4.0)
    x = sp.grid
    rho0 = np.where(x <= 1.0, 1.0, 0.0)
    rho1 = np.where(x >= 3.0, 1.0, 0.0)
    rho0 /= rho0.sum() * sp.h
    rho1 /= rho1.sum() * sp.h
    rep = w2_quantile_1d(sp, rho0, rho1)
    assert rep.value == pytest.approx(3.0, abs=1e-9)


def test_quantile_atoms_match_lp():
    rng = np.random.default_rng(9)
    sp = segment(24, L=3.0)
    rho0 = random_density(sp, rng)
    rho1 = random_density(sp, rng)
    atoms = discretize(sp)
    w0 = rho0 * sp.h
    w1 = rho1 * sp.h
    lp = w2_exact(atoms, w0 / w0.sum(), w1 / w1.sum())
    qt = w2_quantile_1d(sp, rho0, rho1, model="atoms")
    assert qt.value == pytest.approx(lp.value, rel=1e-9)


def test_quantile_rejects_circle():
    circle = WeightedOneDimSpace.from_density(
        "circle", 4.0, 16, lambda x: np.full_like(x, 0.25))
    rho = np.full(16, 0.25)
    with pytest.raises(NonSegment):
        w2_quantile_1d(circle, rho, rho)


# ---------------------------------------------------------------------------
# displacement interpolation


def test_interpolation_endpoints():
    rng = np.random.default_rng(2)
    sp = segment(64)
    rho0 = random_density(sp, rng)
    rho1 = random_density(sp, rng)
    assert np.allclose(displacement_interpolate_1d(sp, rho0, rho1, 0.0), rho0,
                       atol=1e-12)
    assert np.allclose(displacement_interpolate_1d(sp, rho0, rho1, 1.0), rho1,
                       atol=1e-12)


def test_interpolation_equal_densities_fixed():
    sp = segment(64)
    rho = random_density(sp, np.random.default_rng(4))
    for t in (0.25, 0.5, 0.75):
        assert np.allclose(displacement_interpolate_1d(sp, rho, rho, t), rho,
                           atol=1e-12)


def test_interpolation_moves_bump_to_midpoint():
    sp = segment(512, L=8.0)
    x = sp.grid
    rho0 = np.exp(-((x - 2.0) / 0.15) ** 2)
    rho1 = np.exp(-((x - 6.0) / 0.15) ** 2)
    rho0 /= rho0.sum() * sp.h
    rho1 /= rho1.sum() * sp.h
    mid = displacement_interpolate_1d(sp, rho0, rho1, 0.5)
    peak = x[int(np.argmax(mid))]
    assert peak == pytest.approx(4.0, abs=3 * sp.h)


def test_interpolation_geodesic_property():
    rng = np.random.default_rng(11)
    sp = segment(256, L=5.0)
    rho0 = random_density(sp, rng)
    rho1 = random_density(sp, rng)
    d01 = w2_quantile_1d(sp, rho0, rho1).value
    ts = np.linspace(0.0, 1.0, 5)
    tol = 2.5 * sp.h
    for i, s in enumerate(ts):
        rs = displacement_interpolate_1d(sp, rho0, rho1, s)
        for t in ts[i + 1:]:
            rt = displacement_interpolate_1d(sp, rho0, rho1, t)
            dst = w2_quantile_1d(sp, rs, rt).value
            assert abs(dst - (t - s) * d01) <= tol


def _piece_of(q, u):
    """The piece of ``q`` that holds each mass in ``u``, by binary search:
    the last break at or below it, within the pieces."""
    idx = np.searchsorted(q.breaks, u, side="right") - 1
    return np.clip(idx, 0, q.breaks.size - 2)


def merged_intervals(q0, q1):
    """Mass intervals on which both quantiles are affine, unsplit, with the
    pieces that hold each interval's midpoint."""
    breaks = np.union1d(q0.breaks, q1.breaks)
    a, b = breaks[:-1], breaks[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    mid = 0.5 * (a + b)
    return a, b, mid, _piece_of(q0, mid), _piece_of(q1, mid)


def cell_quantiles(space, rho0, rho1):
    edges = space.cell_edges
    return (PiecewiseQuantile.from_cells(edges[:-1], edges[1:], rho0 * space.h),
            PiecewiseQuantile.from_cells(edges[:-1], edges[1:], rho1 * space.h))


def loop_interpolate(space, rho0, rho1, t):
    """Reference interpolant: one Python pass over the merged intervals,
    each spread over the cells it covers."""
    q0, q1 = cell_quantiles(space, rho0, rho1)
    a, b, _, p0, p1 = merged_intervals(q0, q1)
    xa = (1.0 - t) * q0.affine_at(a, p0) + t * q1.affine_at(a, p1)
    xb = (1.0 - t) * q0.affine_at(b, p0) + t * q1.affine_at(b, p1)
    return loop_spread(space, xa, xb, b - a)


def loop_spread(space, xa, xb, masses):
    edges, h, m = space.cell_edges, space.h, space.m
    out = np.zeros(m)
    x0 = edges[0]
    tiny = 1e-15 * max(space.total_length, 1.0)
    for lo, hi, mass in zip(xa, xb, masses):
        if hi - lo <= tiny:
            cell = int(np.clip((0.5 * (lo + hi) - x0) // h, 0, m - 1))
            out[cell] += mass
            continue
        c_lo = int(np.clip((lo - x0) // h, 0, m - 1))
        c_hi = int(np.clip((hi - x0) // h, 0, m - 1))
        if c_lo == c_hi:
            out[c_lo] += mass
            continue
        dens = mass / (hi - lo)
        out[c_lo] += dens * (edges[c_lo + 1] - lo)
        out[c_hi] += dens * (hi - edges[c_hi])
        if c_hi > c_lo + 1:
            out[c_lo + 1:c_hi] += dens * h
    return out / h


def simpson_sq_distance(q0, q1):
    """Simpson on the unsplit merged intervals, exact per affine piece."""
    a, b, mid, p0, p1 = merged_intervals(q0, q1)
    da = q0.affine_at(a, p0) - q1.affine_at(a, p1)
    dm = q0.affine_at(mid, p0) - q1.affine_at(mid, p1)
    db = q0.affine_at(b, p0) - q1.affine_at(b, p1)
    return float(np.sum((b - a) / 6.0 * (da * da + 4.0 * dm * dm + db * db)))


def oracle_pairs():
    rng = np.random.default_rng(17)
    for m, L in ((64, 4.0), (256, 5.0)):
        sp = segment(m, L=L)
        for _ in range(3):
            yield sp, random_density(sp, rng, bumps=3), random_density(sp, rng)
    for K, N, m in ((1.0, -1.0, 128), (4.0, -2.5, 512)):
        sp = cosh_family(K, N, 1.5 * math.sqrt(K / (1.0 - N)), 3.0, m)
        for _ in range(2):
            yield sp, random_density(sp, rng, bumps=2), random_density(sp, rng, bumps=1)


def assert_matches_loop(sp, rho0, rho1, t):
    got = MonotonePlan.build(sp, rho0, rho1).interpolate(t)
    ref = loop_interpolate(sp, rho0, rho1, t)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), t
    assert abs(got.sum() * sp.h - 1.0) <= 1e-12


def test_interpolation_matches_loop_oracle():
    for sp, rho0, rho1 in oracle_pairs():
        for t in np.arange(1, 10) / 10.0:
            assert_matches_loop(sp, rho0, rho1, t)


def test_interpolation_point_piece_matches_loop_oracle():
    # equal first halves, mirrored second halves: the two cumulative sums
    # agree on the first half, and the totals differ by rounding, so
    # breaks there come in pairs about 1e-17 apart
    sp = segment(64, L=4.0)
    rho0 = random_density(sp, np.random.default_rng(5), bumps=3)
    rho1 = rho0.copy()
    rho1[32:] = rho0[32:][::-1]
    rho1 /= rho1.sum() * sp.h
    plan = MonotonePlan.build(sp, rho0, rho1)
    width = plan.u_hi - plan.u_lo
    assert np.any((width > 0) & (width < 1e-16))
    for t in (0.1, 0.5, 0.9):
        assert_matches_loop(sp, rho0, rho1, t)


def test_interpolation_spreads_wide_pieces_like_the_loop():
    # on one grid a plan's pieces span at most two cells; a plan made by
    # hand with wider pieces reaches the cells wholly inside a piece
    sp = segment(16, L=4.0)
    u = np.array([0.0, 0.25, 0.7, 1.0])
    x0 = np.array([0.0, 0.6, 2.9, 4.0])
    x1 = np.array([0.3, 1.0, 1.7, 3.1])
    rho = np.full(16, 0.25)
    none = np.zeros(3, dtype=int)
    plan = MonotonePlan(sp, rho, rho, None, None, u[:-1], u[1:], x0[:-1],
                        x0[1:], x1[:-1], x1[1:], none, none)
    for t in (0.2, 0.5, 0.8):
        x = (1.0 - t) * x0 + t * x1
        ref = loop_spread(sp, x[:-1], x[1:], np.diff(u))
        got = plan.interpolate(t)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), t


def test_plan_splits_at_displacement_sign_changes():
    splits = 0
    for sp, rho0, rho1 in oracle_pairs():
        plan = MonotonePlan.build(sp, rho0, rho1)
        widths, d_lo, d_hi, _, _ = plan.signed_pieces()
        # one sign per piece, up to the rounding of positions at a root
        flips = d_lo * d_hi < 0
        ulps = 4.0 * np.finfo(float).eps * sp.total_length
        assert np.all(np.minimum(np.abs(d_lo), np.abs(d_hi))[flips] <= ulps)
        assert np.all(widths >= 0)
        assert np.array_equal(plan.u_lo[1:], plan.u_hi[:-1])
        splits += widths.size - plan.u_lo.size
        q0, q1 = cell_quantiles(sp, rho0, rho1)
        assert plan.sq_distance() == pytest.approx(simpson_sq_distance(q0, q1),
                                                   rel=1e-12)
    assert splits > 0


def test_interpolation_rejects_support_gap():
    sp = segment(40, L=4.0)
    rho = np.zeros(40)
    rho[4:10] = 1.0
    rho[15:20] = 1.0
    rho /= rho.sum() * sp.h
    other = random_density(sp, np.random.default_rng(0))
    with pytest.raises(DegenerateDensity):
        displacement_interpolate_1d(sp, rho, other, 0.5)


def test_circle_cut_search_near_lp():
    m = 24
    circle = WeightedOneDimSpace.from_density(
        "circle", 6.0, m, lambda x: np.full_like(x, 1.0 / 6.0))
    rng = np.random.default_rng(8)
    rho0 = random_density(circle, rng)
    rho1 = random_density(circle, rng)
    val, cut = w2_circle_quantile(circle, rho0, rho1)
    atoms = discretize(circle)
    w0 = rho0 * circle.h
    w1 = rho1 * circle.h
    lp = w2_exact(atoms, w0 / w0.sum(), w1 / w1.sum())
    assert 0 <= cut < m
    # cell model vs atom model differ by at most one cell width in W2
    assert abs(val - lp.value) <= 2.0 * circle.h


def test_circle_cut_search_takes_smallest_tied_cut():
    # a two-cell block against its rotation by nine cells: every cut off the
    # transport path has the same cost, but those costs round apart by 2e-15
    m = 24
    circle = WeightedOneDimSpace.from_density(
        "circle", 4.0, m, lambda x: np.full_like(x, 0.25))
    rho0 = np.zeros(m)
    rho0[:2] = 1.0
    rho0 /= rho0.sum() * circle.h
    val, cut = w2_circle_quantile(circle, rho0, np.roll(rho0, 9))
    assert cut == 0
    assert val == pytest.approx(9 * circle.h, rel=1e-12)


def test_circle_translate_of_compact_bump():
    # for disjoint translated supports inside a half-circle the shift map is
    # the monotone optimum, so the cost equals the shift exactly
    m = 40
    circle = WeightedOneDimSpace.from_density(
        "circle", 10.0, m, lambda x: np.full_like(x, 0.1))
    x = circle.grid
    rho0 = np.where((x >= 1.0) & (x <= 2.0), 1.0, 0.0)
    rho0 /= rho0.sum() * circle.h
    for k in (8, 12):
        rho1 = np.roll(rho0, k)
        val, _ = w2_circle_quantile(circle, rho0, rho1)
        assert val == pytest.approx(k * circle.h, rel=1e-9)


def split_sq_distance(plan):
    """Simpson over the plan's pieces, split where the displacement
    changes sign."""
    widths, d_lo, d_hi, _, _ = plan.signed_pieces()
    d_mid = 0.5 * (d_lo + d_hi)
    return float(np.sum(widths / 6.0
                        * (d_lo * d_lo + 4.0 * d_mid * d_mid + d_hi * d_hi)))


def loop_circle_quantile(space, rho0, rho1):
    """Reference cut search: one plan per cut, priced over its split pieces,
    and the smallest cut within 1e-12 relative of the minimum."""
    vals = np.array([
        split_sq_distance(MonotonePlan.build(space, np.roll(rho0, -cut),
                                             np.roll(rho1, -cut)))
        for cut in range(space.m)])
    best = vals.min()
    cut = int(np.flatnonzero(vals <= best + 1e-12 * abs(best))[0])
    return math.sqrt(max(vals[cut], 0.0)), cut


def circle_pairs():
    rng = np.random.default_rng(29)
    for m in (8, 64, 256):
        circle = WeightedOneDimSpace.from_density(
            "circle", 5.0, m, lambda x: np.full_like(x, 0.2))
        flat = circle.density
        bump = np.where(np.arange(m) < max(m // 8, 1), 1.0, 0.0) + 0.01
        bump /= bump.sum() * circle.h
        sparse = []
        for _ in range(2):
            rho = rng.lognormal(size=m)
            rho[rng.choice(m, m // 4, replace=False)] = 0.0
            sparse.append(rho / (rho.sum() * circle.h))
        yield circle, flat, flat  # every cut ties at 0
        yield circle, flat, random_density(circle, rng)
        yield circle, bump, np.roll(bump, 3 * m // 8 + 1)
        yield circle, sparse[0], sparse[1]
        yield circle, *(random_density(circle, rng, bumps=3) for _ in "01")


def test_circle_cut_search_matches_plan_per_cut_loop():
    for circle, rho0, rho1 in circle_pairs():
        val, cut = w2_circle_quantile(circle, rho0, rho1)
        ref_val, ref_cut = loop_circle_quantile(circle, rho0, rho1)
        assert cut == ref_cut, circle.m
        assert abs(val - ref_val) <= 4.0 * np.spacing(ref_val), circle.m
        # one cost formula: the plan at the returned cut reports this value
        plan = MonotonePlan.build(circle, np.roll(rho0, -cut),
                                  np.roll(rho1, -cut))
        assert math.sqrt(plan.sq_distance()) == val


def where_affine(q, u, piece):
    """Q at masses ``u`` on the given pieces, with the zero-width test and
    the span formed inside ``np.where``."""
    b0 = q.breaks[piece]
    b1 = q.breaks[piece + 1]
    frac = np.where(b1 > b0, (u - b0) / np.where(b1 > b0, b1 - b0, 1.0), 0.0)
    return q.x_lo[piece] + frac * (q.x_hi[piece] - q.x_lo[piece])


def union_merge(q0, q1):
    """Reference for ``transport._merge``: ``np.union1d`` of the breaks,
    so no shared break reaches the zero-width filter."""
    a, b, _, p0, p1 = merged_intervals(q0, q1)
    ends = np.stack((a, b))
    return ends, p0, p1, where_affine(q0, ends, p0), where_affine(q1, ends, p1)


def compressed_quantile(edges, masses):
    """Reference for ``PiecewiseQuantile.from_cells``: the cells of positive
    mass compressed out, and a leading 0 concatenated to their cumulative
    sum."""
    pos = masses > 0
    w = masses[pos]
    cum = np.concatenate([[0.0], np.cumsum(w)]) / w.sum()
    cum[-1] = 1.0
    return PiecewiseQuantile(cum, edges[:-1][pos], edges[1:][pos],
                             np.flatnonzero(pos))


def roll_circle_quantile(space, rho0, rho1):
    """Reference cut search: the cell masses rolled to each cut, the
    compressed quantiles, a ``np.union1d`` merge and ``_sq_cost``; the
    smallest cut within 1e-12 relative of the minimum."""
    edges = space.cell_edges
    mass0, mass1 = rho0 * space.h, rho1 * space.h
    vals = np.empty(space.m)
    for cut in range(space.m):
        ends, _, _, x0, x1 = union_merge(
            compressed_quantile(edges, np.roll(mass0, -cut)),
            compressed_quantile(edges, np.roll(mass1, -cut)))
        vals[cut] = transport._sq_cost(*ends, *(x0 - x1))
    best = vals.min()
    cut = int(np.flatnonzero(vals <= best + 1e-12 * abs(best))[0])
    return math.sqrt(max(vals[cut], 0.0)), cut


def seeded_circles():
    """Circles with m from 2 to 256: flat against flat (every cut ties),
    cells of mass 0, rotated copies and a block against its rotation."""
    rng = np.random.default_rng(31)
    for m in (2, 3, 5, 64, 256):
        L = float(rng.uniform(2.0, 6.0))
        circle = WeightedOneDimSpace.from_density(
            "circle", L, m, lambda x: np.full_like(x, 1.0 / L))

        def density(zeros):
            rho = rng.lognormal(size=m)
            rho[rng.choice(m, zeros, replace=False)] = 0.0
            return rho / (rho.sum() * circle.h)

        flat = circle.density
        some = max(m // 3, 1)
        block = np.where(np.arange(m) < max(m // 8, 1), 1.0, 0.0)
        block /= block.sum() * circle.h
        yield circle, flat, flat
        yield circle, flat, density(some)
        yield circle, density(0), density(0)
        yield circle, density(some), density(some)
        for zeros in (0, some):
            rho = density(zeros)
            yield circle, rho, np.roll(rho, int(rng.integers(1, m)))
        yield circle, block, np.roll(block, int(rng.integers(1, m)))


def test_cell_quantile_matches_compressed_quantile():
    rng = np.random.default_rng(5)
    edges = np.linspace(0.0, 3.0, 65)
    for zeros in (0, 1, 20, 63):
        masses = rng.lognormal(size=64)
        masses[rng.choice(64, zeros, replace=False)] = 0.0
        got = PiecewiseQuantile.from_cells(edges[:-1], edges[1:], masses)
        ref = compressed_quantile(edges, masses)
        for field in ("breaks", "x_lo", "x_hi", "cells"):
            a, b = getattr(got, field), getattr(ref, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def narrow_bumps(space, rng):
    """A density of 1 to 3 narrow Gaussian bumps with no floor: far from
    the bumps the cell masses fall below the rounding of the total, or
    to 0."""
    x = space.grid
    rho = np.zeros_like(x)
    for _ in range(int(rng.integers(1, 4))):
        c = rng.uniform(x[0], x[-1])
        rho += np.exp(-((x - c) / rng.uniform(0.05, 0.3)) ** 2)
    return rho / (rho.sum() * space.h)


def test_quantile_breaks_never_decrease():
    # the sequential cumulative sum over the pairwise total can round past
    # 1 before the last break, which is set to 1
    rng = np.random.default_rng(41)
    for m in (128, 256, 512):
        sp = segment(m, L=4.0)
        for _ in range(20):
            plan = MonotonePlan.build(sp, narrow_bumps(sp, rng),
                                      narrow_bumps(sp, rng))
            for q in (plan.q0, plan.q1):
                assert q.breaks[0] == 0.0 and q.breaks[-1] == 1.0
                assert np.all(np.diff(q.breaks) >= 0.0)
            assert plan.u_lo.min() == 0.0 and plan.u_hi.max() == 1.0


def label_masses(rng):
    """Pairs of cell masses that stress the labelling of merged intervals:
    cells of mass 0, masses about one ulp of the running sum or below it
    (pieces one ulp wide, or of width 0), a tiny last mass, both quantiles
    equal (every break shared) and uniform masses (some breaks shared)."""
    def masses(m):
        w = rng.lognormal(size=m)
        w[rng.random(m) < 0.2] = 0.0
        ulps = rng.random(m) < 0.4
        w[ulps] = (np.finfo(float).eps * max(w.sum(), 1.0)
                   * rng.choice([0.25, 0.5, 1.0, 1.5, 2.0, 3.0], ulps.sum()))
        if rng.random() < 0.3:
            w[-1] = 1e-30
        if w.max() == 0.0:
            w[0] = 1.0
        return w

    for _ in range(1500):
        w0 = masses(int(rng.integers(1, 24)))
        yield w0, masses(int(rng.integers(1, 24)))
        yield w0, w0.copy()
    for k0, k1 in ((1, 1), (3, 6), (4, 8), (5, 7), (10, 20)):
        yield np.ones(k0), np.ones(k1)


def test_merged_intervals_lie_in_their_labelled_pieces():
    # b_j <= a < b <= b_{j+1} on both quantiles, so each labelled piece has
    # positive width; the old merge searched the midpoints and agrees
    # wherever the midpoint lies strictly inside its interval
    rng = np.random.default_rng(43)
    narrow = 0
    for w0, w1 in label_masses(rng):
        q0, q1 = (PiecewiseQuantile.from_cells(np.arange(w.size, dtype=float),
                                               np.arange(1, w.size + 1.0), w)
                  for w in (w0, w1))
        ends, p0, p1, x0, x1 = transport._merge(q0, q1)
        a, b = ends
        assert a[0] == 0.0 and b[-1] == 1.0
        assert np.array_equal(a[1:], b[:-1]) and np.all(a < b)
        for q, p in ((q0, p0), (q1, p1)):
            assert np.all((q.breaks[p] <= a) & (b <= q.breaks[p + 1]))
        ref_ends, ref_p0, ref_p1, ref_x0, ref_x1 = union_merge(q0, q1)
        assert np.array_equal(ends, ref_ends)
        mid = 0.5 * (a + b)
        inside = (a < mid) & (mid < b)
        narrow += int(np.sum(~inside))
        for got, ref in ((p0, ref_p0), (p1, ref_p1), (x0, ref_x0),
                         (x1, ref_x1)):
            got, ref = got[..., inside], ref[..., inside]
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert narrow > 0


@pytest.mark.parametrize("pairs", [circle_pairs, seeded_circles])
def test_circle_cut_search_matches_rolled_union_loop(pairs):
    # the windows of the doubled masses and the sorted merge change no bit
    for circle, rho0, rho1 in pairs():
        got = w2_circle_quantile(circle, rho0, rho1)
        assert got == roll_circle_quantile(circle, rho0, rho1), circle.m


PLAN_FIELDS = ("u_lo", "u_hi", "x0_lo", "x0_hi", "x1_lo", "x1_hi", "p0", "p1")


def merge_pairs():
    """Segment pairs with cells of mass 0: scattered ones, and runs at the
    ends that leave the support without a gap."""
    rng = np.random.default_rng(37)
    for m, L in ((7, 2.0), (64, 4.0), (256, 5.0)):
        sp = segment(m, L=L)
        for _ in range(3):
            rho0 = random_density(sp, rng, bumps=3)
            rho1 = random_density(sp, rng)
            yield sp, rho0, rho1, True
            gaps = [rho.copy() for rho in (rho0, rho1)]
            for rho in gaps:
                rho[rng.choice(m, m // 3, replace=False)] = 0.0
            yield sp, *(rho / (rho.sum() * sp.h) for rho in gaps), False
            ends = [rho.copy() for rho in (rho0, rho1)]
            for rho in ends:
                rho[:int(rng.integers(1, m // 3 + 1))] = 0.0
                rho[m - int(rng.integers(0, m // 3 + 1)):] = 0.0
            yield sp, *(rho / (rho.sum() * sp.h) for rho in ends), True


def test_plan_matches_union1d_merge(monkeypatch):
    def outputs():
        for sp, rho0, rho1, spread in merge_pairs():
            for model in ("cells", "atoms"):
                plan = MonotonePlan.build(sp, rho0, rho1, model=model)
                out = [getattr(plan, f) for f in PLAN_FIELDS]
                out += plan.signed_pieces()
                out.append(np.float64(plan.sq_distance()))
                if spread:
                    out += [plan.interpolate(t) for t in (0.1, 0.5, 0.85)]
                yield out

    got = list(outputs())
    monkeypatch.setattr(transport, "_merge", union_merge)
    ref = list(outputs())
    assert len(got) == len(ref) == 54
    for a_out, b_out in zip(got, ref):
        assert len(a_out) == len(b_out)
        for a, b in zip(a_out, b_out):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def atom_quantile(xs, ws):
    """``PiecewiseQuantile.from_atoms`` as it was before an atom became a
    cell of zero length: the atoms in stable sorted order, those of mass 0
    dropped."""
    order = np.argsort(xs, kind="stable")
    xs = np.asarray(xs, dtype=float)[order]
    ws = np.asarray(ws, dtype=float)[order]
    pos = ws > 0
    idx = order[pos]
    xs, ws = xs[pos], ws[pos]
    cum = np.concatenate([[0.0], np.cumsum(ws)]) / ws.sum()
    cum[-1] = 1.0
    return PiecewiseQuantile(cum, xs, xs, idx)


def split_plan(space, rho0, rho1, model):
    """The plan as ``MonotonePlan.build`` stored it before only the
    quadrature split it: the merged intervals split at each zero of the
    displacement into pieces with their cells, ``crossing`` marking each
    second half."""
    if model == "cells":
        q0, q1 = (compressed_quantile(space.cell_edges, rho * space.h)
                  for rho in (rho0, rho1))
    else:
        q0, q1 = (atom_quantile(space.grid, rho * space.h)
                  for rho in (rho0, rho1))
    ends, p0, p1, x0, x1 = transport._merge(q0, q1)
    a, b = ends
    d_a, d_b = x0 - x1
    cross = d_a * d_b < 0
    root = a[cross] + (b[cross] - a[cross]) * d_a[cross] / (d_a[cross] - d_b[cross])
    reps = 1 + cross
    second = (np.cumsum(reps) - 1)[cross]
    lo_hi = np.repeat(np.concatenate((ends, x0, x1)), reps, axis=1)
    at_root = np.stack((root, q0.affine_at(root, p0[cross]),
                        q1.affine_at(root, p1[cross])))
    lo_hi[0::2, second] = at_root
    lo_hi[1::2, second - 1] = at_root
    cell0, cell1 = np.repeat(np.stack((q0.cells[p0], q1.cells[p1])), reps, axis=1)
    crossing = np.zeros(cell0.size, dtype=bool)
    crossing[second] = True
    return SimpleNamespace(**dict(zip(PLAN_FIELDS, lo_hi)), cell0=cell0,
                           cell1=cell1, crossing=crossing)


def unsplit(old):
    """The merged intervals of a split plan, ``PLAN_FIELDS`` less the
    pieces: low ends from the first piece of each, high ends from the
    last."""
    starts = ~old.crossing
    ends = np.append(starts[1:], True)
    return [getattr(old, f)[starts if f.endswith("_lo") else ends]
            for f in PLAN_FIELDS[:6]]


def plan_pairs():
    """``merge_pairs`` and ``oracle_pairs``, with whether the densities
    have a support without a gap, so that they interpolate."""
    yield from merge_pairs()
    for sp, rho0, rho1 in oracle_pairs():
        yield sp, rho0, rho1, True


def assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model", ["cells", "atoms"])
def test_plan_matches_split_plan(model):
    # the plan keeps the merged intervals and only signed_pieces splits
    # them: every piece, cost and interpolant is the split plan's, bit for
    # bit, with the interpolant spread by the reference loop
    crossings = 0
    for sp, rho0, rho1, spread in plan_pairs():
        plan = MonotonePlan.build(sp, rho0, rho1, model=model)
        old = split_plan(sp, rho0, rho1, model)
        merged = unsplit(old)
        for field, ref in zip(PLAN_FIELDS, merged):
            assert_same(getattr(plan, field), ref)
        pieces = (old.u_hi - old.u_lo, old.x0_lo - old.x1_lo,
                  old.x0_hi - old.x1_hi, old.cell0, old.cell1)
        for got, ref in zip(plan.signed_pieces(), pieces, strict=True):
            assert_same(got, ref)
        u_lo, u_hi, x0_lo, x0_hi, x1_lo, x1_hi = merged
        assert plan.sq_distance() == transport._sq_cost(
            u_lo, u_hi, x0_lo - x1_lo, x0_hi - x1_hi)
        if spread:
            for t in (0.1, 0.5, 0.85):
                ref = loop_spread(sp, (1.0 - t) * x0_lo + t * x1_lo,
                                  (1.0 - t) * x0_hi + t * x1_hi, u_hi - u_lo)
                assert_same(plan.interpolate(t), ref)
        crossings += int(old.crossing.sum())
    # atom quantiles are steps: no interval has a zero of the displacement
    assert (crossings > 0) == (model == "cells")


def test_atoms_are_cells_of_zero_length():
    for sp, rho0, rho1, _ in plan_pairs():
        for rho in (rho0, rho1):
            w = rho * sp.h
            got = PiecewiseQuantile.from_cells(sp.grid, sp.grid, w)
            ref = atom_quantile(sp.grid, w)
            for field in ("breaks", "x_lo", "x_hi", "cells"):
                assert_same(getattr(got, field), getattr(ref, field))


# ---------------------------------------------------------------------------
# Prokhorov distance


def oracle_prokhorov(dist, mu, nu):
    """Independent oracle from the neighbourhood-enlargement definition,
    by subset enumeration (primal side of the coupling characterisation)."""
    n = mu.size

    def T(eps):
        worst = 0.0
        for mask in range(1, 1 << n):
            a = [i for i in range(n) if mask >> i & 1]
            enlarged = np.min(dist[a, :], axis=0) <= eps
            worst = max(worst, mu[a].sum() - nu[enlarged].sum())
        return worst

    cands = np.unique(np.concatenate([[0.0], dist.ravel()]))
    best = math.inf
    for i, c in enumerate(cands):
        t = T(c)
        cand = max(c, t)
        nxt = cands[i + 1] if i + 1 < cands.size else math.inf
        if cand < nxt or cand == c:
            best = min(best, cand)
    return best


def test_prokhorov_identical_measures():
    rng = np.random.default_rng(1)
    s = random_space(rng, 6)
    assert prokhorov(s, s.weights, s.weights) == pytest.approx(0.0, abs=1e-12)


def test_prokhorov_point_masses():
    for d in (0.25, 0.9, 1.7):
        s = FiniteMmSpace((0, 1), np.array([[0.0, d], [d, 0.0]]), [0.5, 0.5])
        val = prokhorov(s, [1.0, 0.0], [0.0, 1.0])
        assert val == pytest.approx(min(d, 1.0), abs=1e-9)


def test_prokhorov_mass_shift():
    # moving 0.1 of the mass across distance 5 costs exactly 0.1
    dist = np.array([
        [0.0, 5.0, 5.0],
        [5.0, 0.0, 5.0],
        [5.0, 5.0, 0.0],
    ])
    s = FiniteMmSpace((0, 1, 2), dist, [1 / 3] * 3)
    mu = np.array([1 / 3, 1 / 3, 1 / 3])
    nu = np.array([1 / 3 - 0.1, 1 / 3, 1 / 3 + 0.1])
    assert prokhorov(s, mu, nu) == pytest.approx(0.1, abs=1e-9)


GOOD_BLOCK = (np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]]),
              np.array([0.5, 0.5]), np.array([0.25, 0.25, 0.5]))


@pytest.mark.parametrize("change, message", [
    ({"wa": np.array([0.7, 0.7])}, "sum to 1"),
    ({"wb": np.array([0.75, 0.75, -0.5])}, r"nonnegative, weights\[2\]"),
    ({"wa": np.array([np.nan, 1.0])}, "finite"),
    ({"dist": np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 1.0]])},
     r"dist\[0, 2\] = nan"),
    ({"dist": np.array([[0.0, 1.0, 2.0], [1.0, -1.0, 1.0]])},
     r"dist\[1, 1\] = -1.0"),
    ({"dist": np.array([[0.0, 1.0, 2.0], [np.inf, 0.0, 1.0]])},
     r"dist\[1, 0\] = inf"),
    ({"dist": np.zeros((3, 2))}, r"shape \(3, 2\) does not match 2 x 3"),
    ({"wa": np.array([1.0, np.nan])}, r"finite, weights\[1\] = nan"),
    ({"wb": np.array([0.5, 0.5, -np.inf])}, r"finite, weights\[2\] = -inf"),
])
def test_prokhorov_from_distances_rejects_bad_input(change, message):
    # unvalidated, the threshold search returns 0.0 or 1.0 on the sums,
    # signs and NaNs here without an error: it assumes probability masses
    case = dict(zip(("dist", "wa", "wb"), GOOD_BLOCK))
    assert prokhorov_from_distances(**case) == 0.5
    with pytest.raises(ValidationError, match=message):
        prokhorov_from_distances(**{**case, **change})


def test_prokhorov_against_subset_oracle():
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        s = random_space(rng, n)
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        fast = prokhorov(s, mu, nu)
        slow = oracle_prokhorov(s.dist, mu, nu)
        assert fast == pytest.approx(slow, abs=1e-8)


def test_prokhorov_metric_properties():
    rng = np.random.default_rng(23)
    s = random_space(rng, 5)
    mu = rng.dirichlet(np.ones(5))
    nu = rng.dirichlet(np.ones(5))
    lam = rng.dirichlet(np.ones(5))
    dmn = prokhorov(s, mu, nu)
    assert prokhorov(s, nu, mu) == pytest.approx(dmn, abs=1e-9)
    assert prokhorov(s, mu, lam) <= dmn + prokhorov(s, nu, lam) + 1e-9


def random_bipartite_case(rng, na, nb):
    # distances rounded to one decimal, so that thresholds tie pairs
    dist = np.round(rng.random((na, nb)) * 2.0, 1)
    return dist, rng.dirichlet(np.ones(na)), rng.dirichlet(np.ones(nb))


def lp_close_mass(allowed, wa, wb):
    """Oracle: the max-flow as an LP over the allowed pairs (HiGHS)."""
    from scipy import sparse
    from scipy.optimize import linprog

    ii, jj = np.nonzero(allowed)
    na, nb = allowed.shape
    nvar = ii.size
    A_ub = sparse.coo_matrix(
        (np.ones(2 * nvar), (np.concatenate([ii, na + jj]),
                             np.tile(np.arange(nvar), 2))),
        shape=(na + nb, nvar)).tocsr()
    res = linprog(-np.ones(nvar), A_ub=A_ub, b_ub=np.concatenate([wa, wb]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(-res.fun)


def lp_flow(allowed, wa, wb, warm, target=None):
    """``transport._flow_close_mass`` with the LP oracle in its place."""
    return lp_close_mass(allowed, wa, wb), None


def subset_close_mass(allowed, wa, wb):
    """Oracle: the smallest cut, w(rows outside U) + w(columns allowed to U),
    over every row subset U."""
    na = allowed.shape[0]
    best = math.inf
    for size in range(na + 1):
        for U in itertools.combinations(range(na), size):
            U = list(U)
            outside = np.ones(na, dtype=bool)
            outside[U] = False
            best = min(best, wa[outside].sum()
                       + wb[allowed[U].any(axis=0)].sum())
    return best


def flow_case(rng, na, nb):
    """Random masses (some atoms of zero mass) and tied distances."""
    dist, wa, wb = random_bipartite_case(rng, na, nb)
    for w in (wa, wb):
        if w.size > 1 and rng.random() < 0.3:
            w[rng.integers(w.size)] = 0.0
            w /= w.sum()
    return dist, wa, wb


def test_hall_close_mass_matches_lp():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(120):
        small = int(rng.integers(1, HALL_MAX_ATOMS + 1))
        large = int(rng.integers(small, 40))
        na, nb = (small, large) if rng.random() < 0.5 else (large, small)
        dist, wa, wb = random_bipartite_case(rng, na, nb)
        for thr in rng.choice(dist.ravel(), size=3):
            allowed = dist <= thr
            if allowed.all():
                continue
            hall = _hall_close_mass(allowed, wa, wb)
            assert hall == pytest.approx(lp_close_mass(allowed, wa, wb),
                                         abs=1e-12)
            # the two orientations are the same flow
            assert _hall_close_mass(allowed.T, wb, wa) == pytest.approx(
                hall, abs=1e-12)
            checked += 1
    assert checked > 200


def test_flow_close_mass_matches_lp():
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(60):
        na = int(rng.integers(HALL_MAX_ATOMS + 1, 61))
        nb = int(rng.integers(HALL_MAX_ATOMS + 1, 61))
        dist, wa, wb = flow_case(rng, na, nb)
        for thr in rng.choice(dist.ravel(), size=3):
            allowed = dist <= thr
            lp = lp_close_mass(allowed, wa, wb)
            value, _ = _flow_close_mass(allowed, wa, wb)
            assert value == pytest.approx(lp, abs=1e-12)
            # the two orientations are the same flow
            value_t, _ = _flow_close_mass(allowed.T, wb, wa)
            assert value_t == pytest.approx(lp, abs=1e-12)
            checked += 1
    assert checked == 180


def test_flow_close_mass_matches_subset_oracle():
    rng = np.random.default_rng(59)
    for _ in range(150):
        na = int(rng.integers(1, 8))
        nb = int(rng.integers(1, 12))
        dist, wa, wb = flow_case(rng, na, nb)
        allowed = dist <= rng.choice(dist.ravel())
        value, _ = _flow_close_mass(allowed, wa, wb)
        assert value == pytest.approx(subset_close_mass(allowed, wa, wb),
                                      abs=1e-12)


def test_flow_warm_start_matches_cold_start():
    # allowed sets grow with the threshold, so each flow starts the next
    rng = np.random.default_rng(61)
    for _ in range(20):
        na = int(rng.integers(HALL_MAX_ATOMS + 1, 40))
        nb = int(rng.integers(HALL_MAX_ATOMS + 1, 40))
        dist, wa, wb = flow_case(rng, na, nb)
        warm = None
        for thr in np.unique(dist)[::3]:
            allowed = dist <= thr
            cold, _ = _flow_close_mass(allowed, wa, wb)
            value, warm = _flow_close_mass(allowed, wa, wb, warm)
            assert value == cold


def corrupt_open_cut(allowed, wa, flow, rows, cols):
    rows[:] = True
    cols[:] = False


def corrupt_negative(allowed, wa, flow, rows, cols):
    i, j = np.argwhere(flow > 0)[0]
    flow[i, j] = -flow[i, j]


def corrupt_off_allowed(allowed, wa, flow, rows, cols):
    i, j = np.argwhere(~allowed)[0]
    flow[i, j] = 1e-3


def corrupt_over_marginal(allowed, wa, flow, rows, cols):
    i = int(np.argmax(flow.sum(axis=1) - wa))  # a saturated row
    flow[i, np.argmax(flow[i])] += 1e-3


def corrupt_zero_flow(allowed, wa, flow, rows, cols):
    flow[:] = 0.0


@pytest.mark.parametrize("corrupt, message", [
    (corrupt_open_cut, "crosses an allowed pair"),
    (corrupt_negative, "negative or off"),
    (corrupt_off_allowed, "negative or off"),
    (corrupt_over_marginal, "exceeds a marginal"),
    (corrupt_zero_flow, "misses its cut"),
])
def test_flow_certificate_rejects_corrupted_flow(corrupt, message):
    rng = np.random.default_rng(67)
    dist, wa, wb = random_bipartite_case(rng, 16, 20)
    allowed = dist <= 0.8
    value, (flow, rs, rt) = _flow_close_mass(allowed, wa, wb)
    rows, cols, _, _, sink = _augmenting_search(allowed, flow, rs, rt)
    assert sink == -1
    assert _certify_flow(allowed, wa, wb, flow, rows, cols) == value
    corrupt(allowed, wa, flow, rows, cols)
    with pytest.raises(SolverFailure, match=message):
        _certify_flow(allowed, wa, wb, flow, rows, cols)


@pytest.mark.parametrize("corrupt, message", [
    (corrupt_negative, "negative or off"),
    (corrupt_off_allowed, "negative or off"),
    (corrupt_over_marginal, "exceeds a marginal"),
    (corrupt_zero_flow, "below its target"),
])
def test_partial_flow_certificate_rejects_corrupted_flow(corrupt, message):
    # a flow that stops at its target is certified as a sub-coupling on the
    # allowed pairs with at least that mass
    rng = np.random.default_rng(67)
    dist, wa, wb = random_bipartite_case(rng, 16, 20)
    allowed = dist <= 0.8
    greedy, _ = _flow_close_mass(allowed, wa, wb, target=-math.inf)
    full, _ = _flow_close_mass(allowed, wa, wb)
    target = 0.5 * (greedy + full)
    value, (flow, _, _) = _flow_close_mass(allowed, wa, wb, target=target)
    assert greedy < target <= value < full  # stopped after an augmentation
    assert _certify_partial_flow(allowed, wa, wb, flow, target) == value
    corrupt(allowed, wa, flow, None, None)
    with pytest.raises(SolverFailure, match=message):
        _certify_partial_flow(allowed, wa, wb, flow, target)


def test_prokhorov_hall_path_matches_lp_path(monkeypatch):
    rng = np.random.default_rng(43)
    cases = []
    for _ in range(40):
        small = int(rng.integers(1, HALL_MAX_ATOMS + 1))
        large = int(rng.integers(1, 30))
        cases.append(random_bipartite_case(rng, small, large))
        cases.append(random_bipartite_case(rng, large, small))
    hall = [prokhorov_from_distances(*c) for c in cases]
    monkeypatch.setattr(transport, "HALL_MAX_ATOMS", 0)
    monkeypatch.setattr(transport, "_flow_close_mass", lp_flow)
    lp = [prokhorov_from_distances(*c) for c in cases]
    assert hall == pytest.approx(lp, abs=1e-12)


def test_prokhorov_flow_path_matches_lp_path(monkeypatch):
    rng = np.random.default_rng(71)
    cases = [flow_case(rng, int(rng.integers(HALL_MAX_ATOMS + 1, 61)),
                       int(rng.integers(HALL_MAX_ATOMS + 1, 61)))
             for _ in range(30)]
    flow = [prokhorov_from_distances(*c) for c in cases]
    monkeypatch.setattr(transport, "_flow_close_mass", lp_flow)
    lp = [prokhorov_from_distances(*c) for c in cases]
    assert flow == pytest.approx(lp, abs=1e-12)


def test_prokhorov_stop_matches_run_to_cut_and_lp(monkeypatch):
    # steps that pass stop at a flow certificate; forcing every step to its
    # cut, or the LP oracle, must give the same distance
    rng = np.random.default_rng(79)
    cases = [flow_case(rng, int(rng.integers(HALL_MAX_ATOMS + 1, 61)),
                       int(rng.integers(HALL_MAX_ATOMS + 1, 61)))
             for _ in range(40)]
    stop = [prokhorov_from_distances(*c) for c in cases]
    close_mass = transport._max_close_mass

    def to_the_cut(allowed, wa, wb, warm, target):
        return close_mass(allowed, wa, wb, warm, math.inf)

    monkeypatch.setattr(transport, "_max_close_mass", to_the_cut)
    assert [prokhorov_from_distances(*c) for c in cases] == stop
    monkeypatch.setattr(transport, "_flow_close_mass", lp_flow)
    lp = [prokhorov_from_distances(*c) for c in cases]
    assert stop == pytest.approx(lp, abs=1e-12)


def test_prokhorov_hall_path_matches_subset_oracle():
    rng = np.random.default_rng(47)
    for _ in range(40):
        na = int(rng.integers(1, 6))
        nb = int(rng.integers(1, HALL_MAX_ATOMS + 1))
        dist, mu, nu = random_bipartite_case(rng, na, nb)
        slow = oracle_prokhorov(dist, mu, nu)
        assert prokhorov_from_distances(dist, mu, nu) == pytest.approx(
            slow, abs=1e-12)
        assert prokhorov_from_distances(dist.T, nu, mu) == pytest.approx(
            slow, abs=1e-12)


def test_prokhorov_flow_path_matches_subset_oracle(monkeypatch):
    monkeypatch.setattr(transport, "HALL_MAX_ATOMS", 0)
    rng = np.random.default_rng(73)
    for _ in range(40):
        na = int(rng.integers(1, 6))
        nb = int(rng.integers(1, 12))
        dist, mu, nu = flow_case(rng, na, nb)
        slow = oracle_prokhorov(dist, mu, nu)
        assert prokhorov_from_distances(dist, mu, nu) == pytest.approx(
            slow, abs=1e-12)
        assert prokhorov_from_distances(dist.T, nu, mu) == pytest.approx(
            slow, abs=1e-12)


def test_collapse_prokhorov_solves_no_lp(monkeypatch):
    # the two-atom limit measure puts every collapse row on the Hall path
    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(transport, "linprog", no_lp)
    params = CounterexampleParams(K=-1.0, N=-1.0,
                                  n_list=(1, 2, 4, 8, 16, 32, 64), m=2048,
                                  eps=0.2)
    rep = counterexample_report(params)
    assert len(rep.column("prokhorov")) == 7


def test_box_upper_bound():
    # twice the Prokhorov distance bounds the box distance between two
    # measures on one space; the CLI's prokhorov report prints it
    rng = np.random.default_rng(5)
    s = random_space(rng, 5)
    mu = rng.dirichlet(np.ones(5))
    nu = rng.dirichlet(np.ones(5))
    assert 0.0 < 2.0 * prokhorov(s, mu, nu) <= 2.0
    assert 2.0 * prokhorov(s, mu, mu) == 0.0


@pytest.fixture
def lp_calls(monkeypatch):
    """The column count of every LP solved through ``transport.linprog``."""
    calls = []
    solve = transport.linprog

    def counting(c, A_eq, b_eq):
        calls.append(c.size)
        return solve(c, A_eq, b_eq)

    monkeypatch.setattr(transport, "linprog", counting)
    return calls


def test_lp_solves_go_through_transport_linprog(lp_calls):
    # the benchmark's tracer and test_collapse_prokhorov_solves_no_lp rebind
    # this module-level name; an LP that bypassed it would go unseen
    rng = np.random.default_rng(6)
    s = random_space(rng, HALL_MAX_ATOMS + 4)
    mu = rng.dirichlet(np.ones(s.n))
    nu = rng.dirichlet(np.ones(s.n))
    w2_exact(s, mu, nu)
    assert lp_calls == [s.n * s.n]
    prokhorov(s, mu, nu)  # more than HALL_MAX_ATOMS atoms on both sides
    assert lp_calls == [s.n * s.n]


def test_w2_exact_is_one_lp_without_presolve(monkeypatch):
    # the benchmark's transport.linprog counts rely on one solve per call
    calls = []
    solve = transport.linprog

    def recording(*lp):
        calls.append(lp)
        return solve(*lp)

    monkeypatch.setattr(transport, "linprog", recording)
    rng = np.random.default_rng(2)
    s = random_space(rng, 10)
    w2_exact(s, rng.dirichlet(np.ones(10)), rng.dirichlet(np.ones(10)))
    assert len(calls) == 1
    assert transport._HIGHS_OPTIONS["presolve"] == "off"


def test_prokhorov_lp_count_is_pinned(lp_calls, monkeypatch):
    # the threshold search asks F(0), then bisects, and reads F(hi - 1)
    # from the bisection; any drift in that order changes the count
    evaluations = []
    close_mass = transport._max_close_mass

    def counting(allowed, *args):
        evaluations.append(int(allowed.sum()))
        return close_mass(allowed, *args)

    monkeypatch.setattr(transport, "_max_close_mass", counting)
    rng = np.random.default_rng(17)
    s = random_space(rng, 16)
    mu = rng.dirichlet(np.ones(16))
    nu = rng.dirichlet(np.ones(16))
    prokhorov(s, mu, nu)
    assert len(lp_calls) == 0
    assert len(evaluations) == 8


def test_prokhorov_augmenting_search_count_is_pinned(monkeypatch):
    # steps that pass stop at their flow certificate: 77 searches ran to
    # the cut on every step, 26 stop there; a lost stop raises the count
    searches = []
    search = transport._augmenting_search

    def counting(*args):
        searches.append(1)
        return search(*args)

    monkeypatch.setattr(transport, "_augmenting_search", counting)
    rng = np.random.default_rng(17)
    s = random_space(rng, 40)
    mu = rng.dirichlet(np.ones(40))
    nu = rng.dirichlet(np.ones(40))
    prokhorov(s, mu, nu)
    assert len(searches) < 77
    assert len(searches) == 26


# ---------------------------------------------------------------------------
# Ky Fan metric


def test_ky_fan_equal_functions():
    w = np.full(5, 0.2)
    f = np.arange(5.0)
    assert ky_fan(w, f, f) == 0.0


def test_ky_fan_constant_gap():
    w = np.full(4, 0.25)
    f = np.zeros(4)
    for c in (0.4, 1.0, 3.0):
        assert ky_fan(w, f, f + c) == pytest.approx(min(c, 1.0), abs=1e-12)


def test_ky_fan_single_heavy_point():
    w = np.array([0.3, 0.5, 0.2])
    f = np.array([2.0, 1.0, 1.0])
    g = np.array([0.0, 1.0, 1.0])
    assert ky_fan(w, f, g) == pytest.approx(0.3, abs=1e-12)


def test_ky_fan_against_scan_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        w = rng.dirichlet(np.ones(n))
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        val = ky_fan(w, f, g)
        # oracle: scan a fine epsilon grid for the smallest feasible level
        gaps = np.abs(f - g)
        eps_grid = np.unique(np.concatenate(
            [gaps, np.linspace(0, gaps.max() + 1e-6, 4001)]))
        feasible = eps_grid[[float(w[gaps > e].sum()) <= e for e in eps_grid]]
        assert val <= feasible.min() + 1e-12
        assert float(w[gaps > val].sum()) <= val + 1e-12


@pytest.mark.parametrize("f, g, where", [
    ([0.0, math.nan], [0.0, 0.0], "f[1] = nan"),
    ([0.0, math.inf], [0.0, math.inf], "f[1] = inf"),
    ([0.0, 1.0], [-math.inf, 0.0], "g[0] = -inf"),
])
def test_ky_fan_rejects_non_finite_samples(f, g, where):
    # a NaN gap, or inf - inf, left no level below it and ended in numpy's
    # "zero-size array" error; a lone infinite gap gave 0.5
    with pytest.raises(ValidationError, match=re.escape(where)):
        ky_fan([0.5, 0.5], f, g)
