import itertools
import math

import numpy as np
import pytest

from mmlab.concentration import (
    _subset_masses,
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
from mmlab.core import FiniteMmSpace, subset_diameter
from mmlab.errors import ValidationError


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
        assert np.array_equal(_subset_masses(w), loop_subset_masses(w))


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
