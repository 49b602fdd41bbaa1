import collections
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmlab import concentration
from mmlab.concentration import (
    N_EXACT_PARTIAL_DIAM,
    OBSDIAM_WITNESS_POTENTIALS,
    OBSDIAM_WITNESS_SUBSETS,
    Certified,
    ObsDiamSandwich,
    _partial_diameters,
    cd_obsdiam_bound,
    cd_separation_bound,
    cdstar_obsdiam_bound,
    cdstar_separation_bound,
    levy_bound_sequence,
    line_embedding,
    obsdiam_sandwich,
    partial_diameter,
    partial_diameter_1d,
    separation,
)
from mmlab.config import STRUCTURAL_TOL, default_config
from mmlab.core import (
    FiniteMmSpace,
    first_feasible,
    prob_weights,
    row_masks,
    subset_diameter,
    subset_diameters,
    subset_sums,
)
from mmlab.errors import SolverFailure, ValidationError
from mmlab.transport import WeightedOneDimSpace, discretize, prokhorov, w2_exact


def two_point_space(D=2.0, w=(0.5, 0.5)):
    return FiniteMmSpace((0, 1), np.array([[0.0, D], [D, 0.0]]), w)


def random_space(rng, n, dim=3):
    pts = rng.random((n, dim))
    return FiniteMmSpace.from_points(pts, rng.dirichlet(np.ones(n)))


def line_space(rng, n, span=5.0):
    xs = np.sort(rng.uniform(0, span, size=n))
    dist = np.abs(xs[:, None] - xs[None, :])
    return FiniteMmSpace(tuple(range(n)), dist, rng.dirichlet(np.ones(n))), xs


# ---------------------------------------------------------------------------
# oracles


def oracle_partial_diameter(dist, w, alpha):
    n = w.size
    best = math.inf
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if w[idx].sum() >= alpha - 1e-12:
            best = min(best, subset_diameter(dist, idx))
    return best


def oracle_separation(dist, w, k0, k1):
    n = w.size
    best = 0.0
    for assign in itertools.product((0, 1, 2), repeat=n):
        a0 = [i for i in range(n) if assign[i] == 1]
        a1 = [i for i in range(n) if assign[i] == 2]
        if not a0 or not a1:
            continue
        if w[a0].sum() < k0 - 1e-12 or w[a1].sum() < k1 - 1e-12:
            continue
        best = max(best, dist[np.ix_(a0, a1)].min())
    return best


# ---------------------------------------------------------------------------
# partial diameter


def test_partial_diameter_alpha_zero():
    s = two_point_space()
    assert partial_diameter(s, s.weights, 0.0).value == 0.0


def test_partial_diameter_two_point_examples():
    s = two_point_space(D=3.0)
    assert partial_diameter(s, s.weights, 0.6).value == pytest.approx(3.0)
    assert partial_diameter(s, s.weights, 0.5).value == pytest.approx(0.0)


def test_partial_diameter_1d_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        xs = rng.uniform(0, 3, size=n)
        w = rng.dirichlet(np.ones(n))
        alpha = float(rng.uniform(0.1, 1.0))
        # the full mass, and values rounded to integers so that some tie
        for x, a in ((xs, alpha), (xs, 1.0), (np.round(xs), alpha),
                     (np.round(xs), 1.0)):
            dist = np.abs(x[:, None] - x[None, :])
            val = partial_diameter_1d(x, w, a)
            assert val == pytest.approx(oracle_partial_diameter(dist, w, a),
                                        abs=1e-9)


def test_partial_diameter_1d_full_window_that_float_widths_miss():
    # xs[0] + (xs[1] - xs[0]) rounds below xs[1], so no float width reaches
    # the only window that carries the full mass
    xs = [0.3487416591545386, 1.983069342085405]
    assert xs[0] + (xs[1] - xs[0]) < xs[1]
    assert partial_diameter_1d(xs, [0.5, 0.5], 1.0) == xs[1] - xs[0]
    # alpha at the total plus mass_tol, where alpha - mass_tol rounds above
    # the cumulative mass: the whole set is the window
    w = np.array([0.3930412548950492, 0.14819406680697655,
                  0.011734595315458654, 0.23767590751730877,
                  0.05958191474231669, 0.12035994414703281,
                  0.02941231657585719])
    assert w.sum() + 1e-12 - 1e-12 > np.cumsum(w)[-1]
    assert partial_diameter_1d(np.arange(7.0), w, w.sum() + 1e-12) == 6.0


@pytest.mark.parametrize("values, weights, where", [
    ([0.0, 1.0, 2.0], [0.25] * 4, "shapes (3,) and (4,)"),
    ([0.0, 1.0, 2.0], [0.5, 0.5], "shapes (3,) and (2,)"),
    ([[0.0, 1.0]], [[0.5, 0.5]], "shapes (1, 2) and (1, 2)"),
    ([0.0, math.nan, 2.0], [0.25, 0.25, 0.5], "values[1] = nan"),
    ([0.0, 1.0, -math.inf], [0.25, 0.25, 0.5], "values[2] = -inf"),
    ([0.0, 1.0, 2.0], [0.5, -0.25, 0.75], "weights[1] = -0.25"),
    ([0.0, 1.0, 2.0], [0.5, 0.5, math.nan], "weights[2] = nan"),
    pytest.param([0.0, 1.0], [1e308, 1e308], "finite sum, got inf",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
])
def test_partial_diameter_1d_rejects_bad_input(values, weights, where):
    # a bad input is named, never answered with a number or an IndexError
    with pytest.raises(ValidationError, match=re.escape(where)):
        partial_diameter_1d(values, weights, 0.5)


def test_partial_diameter_1d_alpha_nan_is_named():
    # NaN passed every comparison and ended in a ValueError in the kernel
    x, w = [0.0, 1.0, 2.0], [0.25, 0.25, 0.5]
    with pytest.raises(ValidationError, match="^alpha must be a number, got nan$"):
        partial_diameter_1d(x, w, math.nan)
    assert partial_diameter_1d(x, w, -math.inf) == 0.0
    with pytest.raises(ValidationError, match="^no set reaches mass inf"):
        partial_diameter_1d(x, w, math.inf)


def test_obsdiam_sandwich_small_uniform_planar_spaces():
    # witnesses of these spaces hit the full-window rounding above
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        w = np.full(n, 1.0 / n)
        s = FiniteMmSpace.from_points(rng.random((n, 2)), w)
        sw = obsdiam_sandwich(s, w, 0.05)
        assert 0.0 <= sw.lower <= sw.upper


def test_partial_diameter_clique_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(3, 8))
        s = random_space(rng, n)
        alpha = float(rng.uniform(0.1, 1.0))
        res = partial_diameter(s, s.weights, alpha)
        assert res.exact
        assert res.value == pytest.approx(
            oracle_partial_diameter(s.dist, s.weights, alpha), abs=1e-9)


def test_partial_diameter_nondecreasing_in_alpha():
    rng = np.random.default_rng(4)
    s = random_space(rng, 7)
    vals = [partial_diameter(s, s.weights, a).value
            for a in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_partial_diameter_large_space_flagged():
    rng = np.random.default_rng(5)
    s = random_space(rng, 25)
    res = partial_diameter(s, s.weights, 0.5)
    assert not res.exact
    assert res.method == "ball-upper-bound"
    # the bound is achieved by some admissible set, so it dominates any
    # exact value from a subfamily: check against the ball at each center
    assert res.value <= s.diam


def test_line_embedding_detection():
    rng = np.random.default_rng(6)
    s, xs = line_space(rng, 30)
    emb = line_embedding(s.dist)
    assert emb is not None
    assert np.allclose(np.abs(emb[:, None] - emb[None, :]), s.dist, atol=1e-9)
    assert line_embedding(random_space(rng, 6).dist) is None


def test_partial_diameter_line_path_used():
    rng = np.random.default_rng(7)
    s, _ = line_space(rng, 60)
    res = partial_diameter(s, s.weights, 0.4)
    assert res.exact and res.method == "line-window"


def test_near_line_metric_takes_no_line_window():
    # a line metric with every off-diagonal distance raised by 4e-10 is a
    # metric, but a line metric only within 4e-10: the line window would be
    # off by up to that much and still report exact=True
    rng = np.random.default_rng(14)
    for trial in range(300):
        s, _ = line_space(rng, 7)
        dist = s.dist + 4e-10 * (1.0 - np.eye(7))
        s = FiniteMmSpace(s.point_ids, dist, s.weights)
        assert line_embedding(dist) is None
        res = partial_diameter(s, s.weights, 0.6)
        assert res.exact and res.method != "line-window"
        assert res.value == oracle_partial_diameter(dist, s.weights, 0.6)
        if trial < 20:
            k0, k1 = (float(v) for v in rng.uniform(0.1, 0.4, size=2))
            res = separation(s, s.weights, k0, k1)
            assert res.exact and res.method != "line-window"
            assert res.value == oracle_separation(dist, s.weights, k0, k1)


# ---------------------------------------------------------------------------
# the subset table against the clique search it replaced


def clique_feasible(adj, weights, target):
    """Is there a clique of weight >= target in the threshold graph?"""
    n = weights.size
    order = np.argsort(-weights, kind="stable")

    def rec(pos, allowed, acc):
        if acc >= target:
            return True
        remaining = acc
        for k in range(pos, n):
            if allowed >> order[k] & 1:
                remaining += weights[order[k]]
        if remaining < target:
            return False
        for k in range(pos, n):
            v = int(order[k])
            if not (allowed >> v & 1):
                continue
            if rec(k + 1, allowed & adj[v], acc + weights[v]):
                return True
            allowed &= ~(1 << v)
        return False

    return rec(0, (1 << n) - 1, 0.0)


def clique_partial_diameter(dist, w, alpha):
    """``partial_diameter`` on a small support as it was computed before the
    subset table: bisection over the distances, each step a clique search
    in the graph of the pairs within that distance."""
    target = alpha - STRUCTURAL_TOL
    cands = np.unique(np.concatenate([[0.0], dist.ravel()]))
    # the whole support is a clique at the largest distance
    k = first_feasible(lambda k: clique_feasible(
        row_masks(dist <= cands[k]).tolist(), w, target), cands.size)
    return float(cands[k])


# alpha = 0.5 + STRUCTURAL_TOL gives a target of exactly 0.5, which dyadic
# masses reach exactly
TABLE_ALPHAS = (1e-13, 0.1, 0.5, 0.5 + STRUCTURAL_TOL, 0.77, 0.999, 1.0,
                1.0 + 5e-13)


def table_dist(rng, kind, n):
    """Distances of n points: a random cube, an integer grid (many ties),
    points repeated from a few (zero distances), or a circle."""
    if kind == "circle":
        length = float(rng.uniform(1.0, 8.0))
        x = np.floor(rng.uniform(0.0, length, size=n) * 2.0) / 2.0
        gap = np.abs(x[:, None] - x[None, :])
        return np.minimum(gap, length - gap)
    if kind == "cube":
        pts = rng.random((n, int(rng.choice([2, 3, 10]))))
    elif kind == "grid":
        pts = rng.integers(0, 3, size=(n, 2)).astype(float)
    else:
        base = rng.random((max(1, n // 3), 3))
        pts = base[rng.integers(0, base.shape[0], size=n)]
    return FiniteMmSpace.from_points(pts, np.full(n, 1.0 / n)).dist


def table_weights(rng, n, dyadic, partial):
    """Dirichlet weights or exact multiples of 1/64, on every point or on a
    random part of them."""
    live = np.ones(n, dtype=bool)
    if partial:
        live = rng.random(n) < 0.6
        live[rng.integers(n)] = True
    m = int(live.sum())
    w = np.zeros(n)
    if dyadic:
        w[live] = (1 + rng.multinomial(64 - m, np.full(m, 1.0 / m))) / 64.0
    else:
        w[live] = rng.dirichlet(np.ones(m))
    return w


def support_without_line(space, mu):
    """The support, never taken as a line: every support reaches the table."""
    sup = np.flatnonzero(mu > 0)
    return space.dist[np.ix_(sup, sup)], mu[sup], None


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       kind=st.sampled_from(["cube", "grid", "duplicates", "circle"]),
       n=st.integers(1, 18), dyadic=st.booleans(), partial=st.booleans(),
       excess=st.sampled_from([0.0, 8e-13, -8e-13]))
def test_partial_diameter_table_matches_clique_search(seed, kind, n, dyadic,
                                                      partial, excess):
    # excess moves the total mass within STRUCTURAL_TOL of 1, so that at
    # alpha = 1 + 5e-13 no subset reaches the target and the whole support,
    # at the largest distance, answers
    rng = np.random.default_rng(seed)
    space = FiniteMmSpace(tuple(range(n)), table_dist(rng, kind, n),
                          np.full(n, 1.0 / n))
    mu = prob_weights(table_weights(rng, n, dyadic, partial) * (1.0 + excess))
    sup = np.flatnonzero(mu > 0)
    dist, w = space.dist[np.ix_(sup, sup)], mu[sup]
    with mock.patch.object(concentration, "_support", support_without_line):
        for alpha in TABLE_ALPHAS:
            assert partial_diameter(space, mu, alpha) == Certified(
                clique_partial_diameter(dist, w, alpha), True, "subset-table")


@pytest.mark.parametrize("n", range(1, 11))
def test_subset_diameters_match_subset_diameter(n):
    # a metric with ties, and a nonnegative matrix that is not symmetric:
    # a subset's diameter is its largest entry in either direction
    rng = np.random.default_rng(n)
    asym = rng.random((n, n))
    np.fill_diagonal(asym, 0.0)
    for dist in (table_dist(rng, "grid", n), asym):
        diam = subset_diameters(dist)
        assert diam.shape == (1 << n,)
        assert all(diam[mask] == subset_diameter(
            dist, [i for i in range(n) if mask >> i & 1])
            for mask in range(1 << n))


def test_small_support_partial_diameter_runs_no_search(monkeypatch):
    # the table replaces the bisection and the clique search: within
    # partial_diameter neither first_feasible nor the threshold graphs'
    # row_masks is called; separation still searches its thresholds
    calls = collections.Counter()
    for name in ("first_feasible", "row_masks"):
        def counted(*args, _name=name, _fn=getattr(concentration, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(concentration, name, counted)
    rng = np.random.default_rng(15)
    for n in (3, 10, N_EXACT_PARTIAL_DIAM):
        space = random_space(rng, n)
        for alpha in TABLE_ALPHAS:
            res = partial_diameter(space, space.weights, alpha)
            assert res.method == "subset-table"
            assert res.value == clique_partial_diameter(
                space.dist, space.weights, alpha)
    assert not calls
    space = random_space(rng, 10)
    assert separation(space, space.weights, 0.3, 0.3).method == "subset-threshold"
    assert calls["first_feasible"] == 1 and calls["row_masks"] > 0


def test_results_are_python_floats():
    # every method of partial_diameter and separation, and both sides of
    # the sandwich, give a float, never a numpy scalar
    rng = np.random.default_rng(16)
    line, _ = line_space(rng, 7)
    spaces = (line, random_space(rng, 6), random_space(rng, 25))
    results = [f(s, s.weights, *args) for s in spaces for f, args in (
        (partial_diameter, (0.0,)), (partial_diameter, (0.6,)),
        (separation, (0.3, 0.3)), (separation, (1.5, 0.3)))]
    assert {r.method for r in results} == {
        "empty", "line-window", "subset-table", "ball-upper-bound",
        "no-admissible-set", "subset-threshold", "diam-upper-bound"}
    assert all(type(r.value) is float for r in results)
    for s in spaces:
        for kappa in (0.3, 1.0):
            sw = obsdiam_sandwich(s, s.weights, kappa)
            assert type(sw.lower) is float and type(sw.upper) is float


# ---------------------------------------------------------------------------
# separation


def test_separation_two_point_examples():
    s = two_point_space(D=1.7)
    assert separation(s, s.weights, 0.4, 0.4).value == pytest.approx(1.7)
    assert separation(s, s.weights, 0.6, 0.4).value == 0.0
    with pytest.raises(ValidationError):
        separation(s, s.weights, 0.0, 0.4)


def test_separation_witness_lower_bound():
    # two clusters with enough mass at distance >= d witness sep >= d
    pts = [[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]]
    s = FiniteMmSpace.from_points(pts, [0.25] * 4)
    assert separation(s, s.weights, 0.5, 0.5).value >= 4.9


def test_separation_symmetry():
    rng = np.random.default_rng(8)
    s = random_space(rng, 7)
    a = separation(s, s.weights, 0.2, 0.5).value
    b = separation(s, s.weights, 0.5, 0.2).value
    assert a == pytest.approx(b, abs=1e-12)


def test_separation_matches_bruteforce():
    rng = np.random.default_rng(9)
    for _ in range(6):
        n = int(rng.integers(3, 7))
        s = random_space(rng, n)
        k0 = float(rng.uniform(0.1, 0.5))
        k1 = float(rng.uniform(0.1, 0.5))
        res = separation(s, s.weights, k0, k1)
        assert res.exact
        assert res.value == pytest.approx(
            oracle_separation(s.dist, s.weights, k0, k1), abs=1e-9)


def test_separation_line_matches_bruteforce():
    rng = np.random.default_rng(10)
    for _ in range(6):
        n = int(rng.integers(3, 8))
        s, _ = line_space(rng, n)
        k0 = float(rng.uniform(0.1, 0.5))
        k1 = float(rng.uniform(0.1, 0.5))
        res = separation(s, s.weights, k0, k1)
        assert res.method == "line-window"
        assert res.value == pytest.approx(
            oracle_separation(s.dist, s.weights, k0, k1), abs=1e-9)


def loop_subset_masses(w):
    # each subset adds its lowest atom to the mass of the rest
    mass = np.zeros(1 << w.size)
    for s in range(1, 1 << w.size):
        low = s & -s
        mass[s] = mass[s ^ low] + w[low.bit_length() - 1]
    return mass


def test_subset_masses_match_loop():
    # the same single addition per entry as the loop, so the same floats
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 15))
        w = rng.dirichlet(np.full(n, rng.uniform(0.2, 3.0)))
        assert np.array_equal(subset_sums(w), loop_subset_masses(w))


def test_separation_too_large_masses():
    s = two_point_space()
    assert separation(s, s.weights, 1.2, 0.1).value == 0.0


# ---------------------------------------------------------------------------
# observable diameter sandwich


def test_obsdiam_kappa_above_one():
    s = two_point_space()
    sw = obsdiam_sandwich(s, s.weights, 1.0)
    assert sw.lower == 0.0 and sw.upper == 0.0


def test_obsdiam_two_point_closes():
    s = two_point_space(D=2.0)
    sw = obsdiam_sandwich(s, s.weights, 0.3)
    assert sw.lower == pytest.approx(2.0)
    assert sw.upper == pytest.approx(2.0)


def test_obsdiam_point_space():
    s = FiniteMmSpace((0,), np.zeros((1, 1)), [1.0])
    sw = obsdiam_sandwich(s, s.weights, 0.5)
    assert sw.lower == 0.0 and sw.upper == 0.0


def test_obsdiam_sandwich_order():
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = random_space(rng, int(rng.integers(3, 9)))
        sw = obsdiam_sandwich(s, s.weights, float(rng.uniform(0.1, 0.9)))
        assert sw.lower <= sw.upper + 1e-9


def test_obsdiam_lower_nonincreasing_in_kappa():
    rng = np.random.default_rng(12)
    s = random_space(rng, 8)
    lows = [obsdiam_sandwich(s, s.weights, k).lower
            for k in (0.1, 0.3, 0.5, 0.8)]
    assert all(b <= a + 1e-12 for a, b in zip(lows, lows[1:]))


# ---------------------------------------------------------------------------
# the row kernel against the per-witness loop it replaced


def partial_diameter_1d_oracle(values, weights, alpha):
    """One row as ``partial_diameter_1d`` computed it before the row kernel:
    each window end started from a searchsorted of ``cum[i] + target``."""
    w = np.asarray(weights, dtype=float)
    x = np.asarray(values, dtype=float)
    if alpha <= 0.0:
        return 0.0
    total = w.sum()
    if alpha > total + STRUCTURAL_TOL:
        raise ValidationError(f"no set reaches mass {alpha} (total {total})")
    target = alpha - STRUCTURAL_TOL
    if target <= 0.0:
        return 0.0
    order = np.argsort(x, kind="stable")
    xs, ws = x[order], w[order]
    n = xs.size
    cum = np.concatenate([[0.0], np.cumsum(ws), [np.inf]])
    left = cum[:n]
    i = np.arange(n)
    k = np.maximum(np.searchsorted(cum[:-1], left + target, side="left"), i + 1)
    while True:
        down = (k - 1 > i) & (cum[k - 1] - left >= target)
        if not down.any():
            break
        k[down] -= 1
    while True:
        up = cum[k] - left < target
        if not up.any():
            break
        k[up] += 1
    ok = k <= n
    if not ok.any():
        return float(xs[-1] - xs[0])
    return float(np.min(xs[k[ok] - 1] - xs[ok]))


def obsdiam_oracle(space, mu, kappa):
    """``obsdiam_sandwich`` as a loop over witnesses, one 1D partial
    diameter each, built from the columns of ``dist``; a witness replaces
    the best only on a strict improvement."""
    if kappa >= 1.0:
        return ObsDiamSandwich(0.0, 0.0, "mass defect >= 1", True)
    mu = prob_weights(mu)
    rng = np.random.default_rng(default_config().seed)
    n = space.n
    dist = space.dist
    alpha = 1.0 - kappa
    best = 0.0
    witness = "point distance"
    for p in range(n):
        val = partial_diameter_1d_oracle(dist[:, p], mu, alpha)
        if val > best:
            best, witness = val, f"d(., {space.point_ids[p]!r})"
    for _ in range(OBSDIAM_WITNESS_SUBSETS):
        size = int(rng.integers(2, max(3, n // 2 + 1)))
        subset = rng.choice(n, size=min(size, n), replace=False)
        f = dist[:, subset].min(axis=1)
        val = partial_diameter_1d_oracle(f, mu, alpha)
        if val > best:
            best, witness = val, f"d(., A) for |A| = {subset.size}"
    diam = space.diam
    for _ in range(OBSDIAM_WITNESS_POTENTIALS):
        v = rng.uniform(0.0, diam, size=n)
        f = (v[None, :] + dist).min(axis=1)
        val = partial_diameter_1d_oracle(f, mu, alpha)
        if val > best:
            best, witness = val, "regularised random potential"
    sep = separation(space, mu, kappa / 2.0, kappa / 2.0)
    if best > sep.value + 1e-9:
        raise SolverFailure(
            f"witness value {best} exceeds separation bound {sep.value}"
        )
    return ObsDiamSandwich(best, sep.value, witness, sep.exact)


def random_weights(rng, n, zeros):
    w = rng.dirichlet(np.ones(n))
    if zeros and n > 1:
        w[rng.random(n) < 0.4] = 0.0
        w[int(rng.integers(n))] += 0.1
        w /= w.sum()
    return w


# n = 300 puts the 300 point witnesses in three blocks of at most 109 rows
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.one_of(st.integers(1, 24), st.just(300)),
       ties=st.booleans(), zeros=st.booleans(), asym=st.booleans(),
       kappa=st.one_of(st.sampled_from([1e-13, 1e-12, 0.5, 1.0 - 1e-13]),
                       st.floats(0.01, 0.99)),
       excess=st.sampled_from([0.0, 5e-13, -5e-13]))
def test_obsdiam_sandwich_matches_per_witness_oracle(seed, n, ties, zeros, asym,
                                                     kappa, excess):
    # ties: coordinates on a quarter grid give equal distances and
    # coincident points; excess moves the total mass within STRUCTURAL_TOL
    # of 1, so 1 - kappa can sit above it; asym breaks symmetry within the
    # tolerance FiniteMmSpace accepts
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    if ties:
        pts = np.round(pts * 4.0) / 4.0
    w = random_weights(rng, n, zeros) * (1.0 + excess)
    dist = FiniteMmSpace.from_points(pts, np.full(n, 1.0 / n)).dist
    if asym:
        atol = STRUCTURAL_TOL * max(float(dist.max()), 1.0)
        dist = dist + rng.uniform(0.0, atol / 4.0, size=(n, n)) * (1.0 - np.eye(n))
    space = FiniteMmSpace(tuple(f"p{i}" for i in range(n)), dist, w)
    assert obsdiam_sandwich(space, space.weights, kappa) == obsdiam_oracle(
        space, space.weights, kappa)


# ---------------------------------------------------------------------------
# the space's own line coordinates against the sub-block embedded afresh


def parent_support(space, mu):
    """The support as ``partial_diameter`` and ``separation`` took it before
    spaces kept their line coordinates: the sub-block of ``dist`` over the
    points ``mu`` charges, embedded afresh."""
    sup = np.flatnonzero(mu > 0)
    dist = space.dist[np.ix_(sup, sup)]
    return dist, mu[sup], line_embedding(dist)


def no_embedding(dist):
    raise AssertionError("line_embedding called on a full support")


def support_space(rng, kind, n, ties):
    if kind == "points":
        x = rng.random(n) * 6.0
        if ties:
            x = np.round(x * 4.0) / 4.0
        return FiniteMmSpace.from_points(x, rng.dirichlet(np.ones(n)))
    r = rng.uniform(0.2, 2.0, size=n)
    L = float(rng.uniform(0.5, 8.0))
    log_density = np.log(r / (r.sum() * (L / n)))
    return discretize(WeightedOneDimSpace(kind, L, log_density))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), kind=st.sampled_from(["points", "segment", "circle"]),
       n=st.one_of(st.integers(1, 24), st.integers(25, 80)), ties=st.booleans(),
       measure=st.sampled_from(["space", "random", "zeros"]),
       kappa=st.one_of(st.sampled_from([1e-13, 0.5, 1.0 - 1e-13]), st.floats(0.01, 0.99)),
       k0=st.floats(0.01, 0.7), k1=st.floats(0.01, 0.7))
def test_support_results_match_fresh_sub_block(seed, kind, n, ties, measure, kappa,
                                               k0, k1):
    # 1D point clouds and discretised segments are line metrics, circles
    # take the clique, subset and bound branches; "zeros" leaves points
    # uncharged, so the sub-block is cut out and embedded as before
    rng = np.random.default_rng(seed)
    space = support_space(rng, kind, n, ties)
    mu = (space.weights if measure == "space"
          else random_weights(rng, space.n, measure == "zeros"))
    mu = prob_weights(mu)
    full = bool(np.all(mu > 0))
    assert (space.line_coords is not None) == (line_embedding(space.dist) is not None)

    def results():
        return (partial_diameter(space, mu, 1.0 - kappa),
                separation(space, mu, k0, k1),
                obsdiam_sandwich(space, mu, kappa))

    with mock.patch.object(concentration, "_support", parent_support):
        want = results()
    if full:
        # the validated coordinates serve: no second embedding
        with mock.patch.object(concentration, "line_embedding", no_embedding):
            got = results()
    else:
        got = results()
    assert got == want


@pytest.mark.parametrize("mu", [[0.5, 0.5], [0.2] * 5 + [0.0]])
def test_measure_of_another_length_is_rejected(mu):
    # two weights gave partial diameter and separation over the first two
    # points, and obsdiam_sandwich an IndexError; a trailing zero weight was
    # read as a sixth point.  Transport checks the length the same way
    space = FiniteMmSpace.from_points(np.arange(5.0), np.full(5, 0.2))
    message = f"^{len(mu)} weights for 5 points$"
    for call in (lambda: partial_diameter(space, mu, 0.5),
                 lambda: separation(space, mu, 0.3, 0.3),
                 lambda: obsdiam_sandwich(space, mu, 0.2),
                 lambda: w2_exact(space, mu, space.weights),
                 lambda: w2_exact(space, space.weights, mu),
                 lambda: prokhorov(space, mu, space.weights),
                 lambda: prokhorov(space, space.weights, mu)):
        with pytest.raises(ValidationError, match=message):
            call()


def assert_rows_match_loop(F, w, alpha):
    want = [partial_diameter_1d_oracle(row, w, alpha) for row in F]
    assert [partial_diameter_1d(row, w, alpha) for row in F] == want
    target = alpha - STRUCTURAL_TOL
    if alpha <= w.sum() + STRUCTURAL_TOL and target > 0.0:
        assert _partial_diameters(F, w, target).tolist() == want


# n = 1500 with more than 21 rows splits the rows into two blocks
# (PARTIAL_DIAM_BLOCK_ELEMENTS = 2^15)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), rows=st.integers(1, 30),
       n=st.one_of(st.integers(1, 30), st.just(1500)), ties=st.booleans(),
       zeros=st.booleans(),
       alpha=st.one_of(st.sampled_from(["total", "total + tol", "total - tol"]),
                       st.floats(2e-12, 1.0)))
@example(seed=0, rows=30, n=1500, ties=True, zeros=True, alpha="total + tol")
def test_row_kernel_matches_one_row_loop(seed, rows, n, ties, zeros, alpha):
    rng = np.random.default_rng(seed)
    F = rng.uniform(0.0, 3.0, size=(rows, n))
    if ties:
        F = np.round(F)
    w = random_weights(rng, n, zeros)
    a = {"total": w.sum(), "total + tol": w.sum() + STRUCTURAL_TOL,
         "total - tol": w.sum() - STRUCTURAL_TOL}.get(alpha, alpha)
    assert_rows_match_loop(F, w, a)


SEVEN_WEIGHTS = np.array([0.3930412548950492, 0.14819406680697655,
                          0.011734595315458654, 0.23767590751730877,
                          0.05958191474231669, 0.12035994414703281,
                          0.02941231657585719])


# cum[1] + (cum[5] - cum[1]) rounds above cum[5]: a window end started from
# that sum lands past the end of the narrowest window and must step back
STEP_BACK_WEIGHTS = np.array([0.1080696999358321, 0.47182870367956486,
                              0.1408895274098062, 0.0069012073819575805,
                              0.1927141521113439, 0.07959670948149548])
STEP_BACK_CUM = np.concatenate([[0.0], np.cumsum(STEP_BACK_WEIGHTS)])
STEP_BACK_TARGET = STEP_BACK_CUM[5] - STEP_BACK_CUM[1]


@pytest.mark.parametrize("row, w, alpha", [
    # the full-window cases of test_partial_diameter_1d_full_window_...
    ([0.3487416591545386, 1.983069342085405], np.array([0.5, 0.5]), 1.0),
    (np.arange(7.0), SEVEN_WEIGHTS, SEVEN_WEIGHTS.sum() + 1e-12),
    ([0.0, 10.0, 10.1, 10.2, 10.3, 20.0], STEP_BACK_WEIGHTS,
     STEP_BACK_TARGET + STRUCTURAL_TOL),
])
def test_row_kernel_rounding_cases(row, w, alpha):
    assert (STEP_BACK_CUM[1] + STEP_BACK_TARGET > STEP_BACK_CUM[5]
            and STEP_BACK_TARGET + STRUCTURAL_TOL - STRUCTURAL_TOL == STEP_BACK_TARGET)
    # the case row among others, in every position of a block
    row = np.asarray(row)
    others = np.random.default_rng(1).uniform(0.0, 3.0, size=(3, row.size))
    for pos in range(4):
        assert_rows_match_loop(np.insert(others, pos, row, axis=0), w, alpha)


# ---------------------------------------------------------------------------
# closed-form bounds


def test_cd_separation_bound_values():
    import mpmath
    mpmath.mp.dps = 40
    K, N, k = 1.0, -1.0, 0.1
    # mean of k^{1/N} twice is 1/k; exponent -N/(1-N) = 1/2
    expect = 2.0 * math.sqrt(2.0) * math.acosh(math.sqrt(10.0))
    got = cd_separation_bound(K, N, k, k)
    assert got == pytest.approx(expect, abs=1e-12)
    hp = 2 * mpmath.sqrt((1 - mpmath.mpf(N)) / K) * mpmath.acosh(
        ((mpmath.mpf(k) ** (1 / mpmath.mpf(N)) * 2) / 2) ** (-mpmath.mpf(N) / (1 - mpmath.mpf(N))))
    assert got == pytest.approx(float(hp), abs=1e-12)


def test_cdstar_separation_bound_value():
    got = cdstar_separation_bound(1.0, -1.0, 0.1, 0.1)
    assert got == pytest.approx(2.0 * math.acosh(10.0), abs=1e-12)


def test_bounds_decreasing_in_K():
    for fn, args in ((cd_separation_bound, (0.2, 0.3)),
                     (cdstar_separation_bound, (0.2, 0.3)),
                     (cd_obsdiam_bound, (0.25,)),
                     (cdstar_obsdiam_bound, (0.25,))):
        vals = [fn(K, -2.0, *args) for K in (0.5, 1.0, 4.0, 9.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # explicit 1/sqrt(K) scaling
        assert vals[1] / vals[2] == pytest.approx(2.0, rel=1e-12)


def test_obsdiam_bound_high_precision():
    import mpmath
    mpmath.mp.dps = 40
    K, N, kap = 3.0, -0.7, 0.2
    hp = 2 * mpmath.sqrt((1 - mpmath.mpf(N)) / K) * mpmath.acosh(
        (2 / mpmath.mpf(kap)) ** (1 / (1 - mpmath.mpf(N))))
    assert cd_obsdiam_bound(K, N, kap) == pytest.approx(float(hp), abs=1e-12)
    hp2 = 2 * mpmath.sqrt(-mpmath.mpf(N) / K) * mpmath.acosh(
        (2 / mpmath.mpf(kap)) ** (-1 / mpmath.mpf(N)))
    assert cdstar_obsdiam_bound(K, N, kap) == pytest.approx(float(hp2), abs=1e-12)


def test_cdstar_obsdiam_bound_kappa_one():
    # boundary mass defect: argument becomes 2^{-1/N}
    N = -2.0
    got = cdstar_obsdiam_bound(4.0, N, 1.0)
    assert got == pytest.approx(
        2.0 * math.sqrt(-N / 4.0) * math.acosh(2.0 ** (-1.0 / N)), abs=1e-13)


def test_bound_preconditions():
    with pytest.raises(ValidationError):
        cd_separation_bound(-1.0, -1.0, 0.1, 0.1)
    with pytest.raises(ValidationError):
        cd_separation_bound(1.0, -1.0, 0.6, 0.6)  # masses sum above 1
    with pytest.raises(ValidationError):
        cd_obsdiam_bound(1.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# Levy trends


def test_levy_bounds_halve_with_quadrupling_K():
    K = [4.0 ** n for n in range(1, 8)]
    vals, flag = levy_bound_sequence(K, [-1.0] * len(K), 0.1, "CD")
    ratios = vals[:-1] / vals[1:]
    assert np.allclose(ratios, 2.0, rtol=1e-12)
    assert flag


def test_levy_constant_sequence_not_flagged():
    vals, flag = levy_bound_sequence([2.0] * 6, [-1.0] * 6, 0.1, "CD")
    assert np.allclose(vals, vals[0])
    assert not flag


def test_levy_cdstar_mode_decays():
    K = [4.0 ** n for n in range(1, 9)]
    N = [-(2.0 ** n) for n in range(1, 9)]  # K_n N_n -> -inf fast
    vals, flag = levy_bound_sequence(K, N, 0.2, "CDstar")
    assert vals[-1] < 0.05
    assert flag
