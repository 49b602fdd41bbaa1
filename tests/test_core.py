import copy
import dataclasses
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmlab import coefficients, concentration, curvature, transport
from mmlab.config import STRUCTURAL_TOL
from mmlab.core import (
    FiniteMmSpace,
    _triangle_scan,
    _validate_distance_matrix,
    condition_measure,
    first_feasible,
    line_embedding,
    partition_average,
    prob_weights,
    pushforward,
    subset_diameter,
)
from mmlab.errors import ValidationError, ZeroMassSet
from mmlab.transport import WeightedOneDimSpace, discretize


def square_space(weights=(0.25, 0.25, 0.25, 0.25)):
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    return FiniteMmSpace.from_points(pts, weights)


# ---------------------------------------------------------------------------
# weights and conditioning


def test_prob_weights_validation():
    w = prob_weights([0.5, 0.5])
    assert not w.flags.writeable
    with pytest.raises(ValidationError):
        prob_weights([0.6, 0.6])
    with pytest.raises(ValidationError):
        prob_weights([1.2, -0.2])


NAN, INF = math.nan, math.inf
# every array-entry check, each with its bad entry after a good one, and the
# message it gives: "<rule>, <argument>[<index>] = <value>"
ENTRY_CHECKS = {
    "prob_weights-finite": (
        lambda: prob_weights([0.5, NAN, 0.5]),
        "weights must be finite, weights[1] = nan"),
    "prob_weights-nonnegative": (
        lambda: prob_weights([0.75, -0.25, 0.5]),
        "weights must be nonnegative, weights[1] = -0.25"),
    "check_t": (
        lambda: coefficients.sigma_vals(1.0, np.array([[0.5, 0.2], [0.3, 1.5]]),
                                        0.1),
        "t must lie in [0,1], t[1, 1] = 1.5"),
    "sigma_vals-thetas": (
        lambda: coefficients.sigma_vals(1.0, 0.5, [0.1, -0.2]),
        "theta must be nonnegative, thetas[1] = -0.2"),
    "partial_diameter_1d-values": (
        lambda: concentration.partial_diameter_1d([0.0, INF], [0.5, 0.5], 0.5),
        "values must be finite, values[1] = inf"),
    "partial_diameter_1d-weights": (
        lambda: concentration.partial_diameter_1d([0.0, 1.0], [0.5, -0.5], 0.5),
        "weights must be finite and nonnegative, weights[1] = -0.5"),
    "levy_bound_sequence-N": (
        lambda: concentration.levy_bound_sequence([1.0, 2.0], [-1.0, 0.5],
                                                  0.1, "CD"),
        "dimension parameters must be negative, N_list[1] = 0.5"),
    "levy_bound_sequence-K": (
        lambda: concentration.levy_bound_sequence([1.0, INF], [-1.0, -1.0],
                                                  0.1, "CD"),
        "every K must be finite, K_list[1] = inf"),
    "renyi_entropy-mu": (
        lambda: curvature.renyi_entropy([0.5, -0.5, 1.0], [0.5, 0.5, 0.0], -1.0),
        "masses must be finite and nonnegative, mu[1] = -0.5"),
    "renyi_entropy-nu": (
        lambda: curvature.renyi_entropy([0.5, 0.5], [0.5, NAN], -1.0),
        "masses must be finite and nonnegative, nu[1] = nan"),
    "kn_convexity_check": (
        lambda: curvature.kn_convexity_check([0.0, NAN, 0.0, 0.0, 0.0],
                                             1.0, -1.0, 0.1),
        "f samples must be finite, f_samples[1] = nan"),
    "WeightedOneDimSpace-log_density": (
        lambda: WeightedOneDimSpace("segment", 1.0, [0.0, INF]),
        "log_density must not contain NaN or +inf (-inf marks empty cells), "
        "log_density[1] = inf"),
    "validate_density": (
        lambda: WeightedOneDimSpace("segment", 1.0, np.zeros(4))
        .validate_density([1.0, -1.0, 2.0, 2.0]),
        "density samples must be finite and nonnegative, rho[1] = -1.0"),
    "from_density": (
        lambda: WeightedOneDimSpace.from_density("segment", 1.0, 2, [1.0, 0.0]),
        "density samples must be positive; use masses 0 through measures on "
        "a sub-grid instead, density[1] = 0.0"),
    "prokhorov_from_distances": (
        lambda: transport.prokhorov_from_distances(
            np.array([[0.0, 1.0, -1.0], [NAN, 0.0, 1.0]]), [0.5, 0.5],
            [0.25, 0.25, 0.5]),
        "distances must be finite and nonnegative, dist[0, 2] = -1.0"),
    "ky_fan": (
        lambda: transport.ky_fan([0.5, 0.5], [0.0, 1.0], [0.0, -INF]),
        "function samples must be finite, g[1] = -inf"),
}


@pytest.mark.parametrize("name", ENTRY_CHECKS)
def test_bad_entry_is_named(name):
    call, message = ENTRY_CHECKS[name]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_prob_weights_names_the_first_negative_weight():
    # the first in index order, not the most negative
    with pytest.raises(ValidationError) as err:
        prob_weights([0.75, -0.25, 1.0, -0.5])
    assert str(err.value) == "weights must be nonnegative, weights[1] = -0.25"


def test_sigma_vals_lets_a_nan_theta_through():
    # the rule rejects negative thetas only, so a NaN theta raises nothing
    assert coefficients.sigma_vals(1.0, 0.5, [0.1, NAN]).shape == (2,)


def test_condition_uniform_two_points():
    mu = np.full(4, 0.25)
    out = condition_measure(mu, [0, 1])
    assert np.allclose(out, [0.5, 0.5, 0.0, 0.0])


def test_condition_weighted_tail():
    out = condition_measure(np.array([0.1, 0.2, 0.3, 0.4]), [2, 3])
    assert np.allclose(out, [0.0, 0.0, 3.0 / 7.0, 4.0 / 7.0], atol=1e-15)


def test_condition_whole_space_is_identity():
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(condition_measure(mu, range(4)), mu)


def test_condition_zero_mass_raises():
    with pytest.raises(ZeroMassSet):
        condition_measure(np.array([0.5, 0.5, 0.0]), [2])


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10 ** 6))
def test_condition_idempotent(n, seed):
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(n))
    subset = rng.random(n) < 0.6
    if not mu[subset].sum() > 0:
        subset[int(np.argmax(mu))] = True
    once = condition_measure(mu, subset)
    twice = condition_measure(once, subset)
    assert np.allclose(once, twice, atol=1e-14)


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_identity_and_constant():
    mu = np.array([0.3, 0.7])
    assert np.allclose(pushforward(mu, [0, 1]), mu)
    assert np.allclose(pushforward(mu, [0, 0], 1), [1.0])


def test_pushforward_merge_two_points():
    out = pushforward(np.array([0.5, 0.5]), [0, 0], 1)
    assert out.shape == (1,) and out[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10 ** 6))
def test_pushforward_preserves_mass_exactly(n, seed):
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(n))
    f = rng.integers(0, max(1, n - 1), size=n)
    out = pushforward(mu, f, n)
    assert abs(out.sum() - mu.sum()) <= 1e-15


# ---------------------------------------------------------------------------
# partition averaging


def test_partition_average_singletons_is_identity():
    nu = np.array([0.1, 0.2, 0.3, 0.4])
    mu = np.full(4, 0.25)
    out = partition_average(nu, [[i] for i in range(4)], mu)
    assert np.allclose(out, nu)


def test_partition_average_whole_space_uniform():
    nu = np.array([0.7, 0.1, 0.1, 0.1])
    mu = np.full(4, 0.25)
    assert np.allclose(partition_average(nu, [range(4)], mu), mu)


def test_partition_average_two_blocks():
    nu = np.array([1.0, 0.0, 0.0, 0.0])
    mu = np.full(4, 0.25)
    out = partition_average(nu, [[0, 1], [2, 3]], mu)
    assert np.allclose(out, [0.5, 0.5, 0.0, 0.0])


def test_partition_average_is_projection():
    rng = np.random.default_rng(7)
    nu = rng.dirichlet(np.ones(6))
    mu = rng.dirichlet(np.ones(6))
    blocks = [[0, 1], [2], [3, 4, 5]]
    once = partition_average(nu, blocks, mu)
    twice = partition_average(once, blocks, mu)
    assert np.allclose(once, twice, atol=1e-14)


def test_partition_average_zero_mass_block():
    nu = np.array([0.0, 1.0])
    mu = np.array([1.0, 0.0])
    with pytest.raises(ZeroMassSet):
        partition_average(nu, [[0], [1]], mu)


def test_partition_average_stray_mass_rejected():
    nu = np.array([0.5, 0.5])
    mu = np.array([0.5, 0.5])
    with pytest.raises(ValidationError):
        partition_average(nu, [[0]], mu)


# ---------------------------------------------------------------------------
# diameters and space validation


def test_subset_diameter_conventions():
    s = square_space()
    assert subset_diameter(s.dist, []) == 0.0
    assert subset_diameter(s.dist, [2]) == 0.0
    d = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert subset_diameter(d, [0, 1]) == 3.0


def test_space_rejects_asymmetry():
    dist = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError, match="asymmetric"):
        FiniteMmSpace((0, 1), dist, [0.5, 0.5])


def test_space_rejects_triangle_violation_naming_triple():
    dist = np.array([
        [0.0, 1.0, 5.0],
        [1.0, 0.0, 1.0],
        [5.0, 1.0, 0.0],
    ])
    with pytest.raises(ValidationError, match=r"\(i,j,k\)"):
        FiniteMmSpace((0, 1, 2), dist, [1 / 3] * 3)


def passes(check, *args) -> bool:
    try:
        check(*args)
    except ValidationError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 24), st.integers(0, 10 ** 6),
       st.sampled_from([0.0, 0.05, 0.2, 0.25, 0.3, 1.0, 4.0]),
       st.sampled_from([0.5, 1.0, 10.0, 1e4]))
def test_line_certificate_is_sound(n, seed, noise, scale):
    # a line metric perturbed by symmetric noise of up to noise * atol on
    # each entry; whenever the O(n^2) certificate accepts, the full triangle
    # scan passes too, so the validator accepts exactly what the scan does
    rng = np.random.default_rng(seed)
    x = rng.random(n) * scale
    dist = np.abs(x[:, None] - x[None, :])
    atol = STRUCTURAL_TOL * max(float(dist.max()), 1.0)
    bump = np.triu(rng.uniform(-1.0, 1.0, (n, n)) * noise * atol, 1)
    dist = np.maximum(dist + bump + bump.T, 0.0)
    atol = STRUCTURAL_TOL * max(float(dist.max()), 1.0)
    scan_ok = passes(_triangle_scan, dist, atol)
    if line_embedding(dist) is not None:
        assert scan_ok
    assert passes(_validate_distance_matrix, dist) == scan_ok


def test_line_certificate_accepts_exact_line_metrics():
    x = np.random.default_rng(3).random(64) * 7.0
    dist = np.abs(x[:, None] - x[None, :])
    emb = line_embedding(dist)
    assert emb is not None
    assert np.allclose(np.abs(emb[:, None] - emb[None, :]), dist)
    assert concentration.line_embedding is line_embedding


def test_line_metric_with_raised_entry_names_triple():
    x = np.sort(np.random.default_rng(5).random(64))
    dist = np.abs(x[:, None] - x[None, :])
    dist[3, 40] = dist[40, 3] = dist[3, 40] + 1e-6
    with pytest.raises(ValidationError,
                       match=r"triangle inequality violated for \(i,j,k\) = "
                             r"\((3,40|40,3),\d+\)"):
        FiniteMmSpace(tuple(range(64)), dist, np.full(64, 1 / 64))


def parent_validate(dist):
    """The validator before the line certificate ran first: diagonal,
    asymmetry, then the certificate or the triangle scan; it returns
    nothing."""
    if not np.all(np.isfinite(dist)):
        raise ValidationError("distance matrix must be finite")
    if np.any(dist < 0):
        i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
        raise ValidationError(f"negative distance at ({i},{j}): {dist[i, j]}")
    atol = STRUCTURAL_TOL * max(float(dist.max(initial=0.0)), 1.0)
    if np.any(np.abs(np.diagonal(dist)) > atol):
        i = int(np.argmax(np.abs(np.diagonal(dist))))
        raise ValidationError(f"nonzero diagonal at ({i},{i}): {dist[i, i]}")
    asym = np.abs(dist - dist.T)
    if asym.max(initial=0.0) > atol:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise ValidationError(
            f"asymmetric distances at ({i},{j}): {dist[i, j]} vs {dist[j, i]}")
    if line_embedding(dist) is None:
        _triangle_scan(dist, atol)


def validation_message(check, dist):
    try:
        check(dist)
    except ValidationError as e:
        return str(e)
    return None


LINE3 = np.abs(np.subtract.outer([0.0, 1.0, 3.0], [0.0, 1.0, 3.0]))


def line3_with(*entries):
    d = LINE3.copy()
    for i, j, v in entries:
        d[i, j] = v
    return d


@pytest.mark.parametrize("dist, message", [
    (line3_with((1, 1, 0.5)), "nonzero diagonal at (1,1): 0.5"),
    (np.array([[0.25]]), "nonzero diagonal at (0,0): 0.25"),
    (line3_with((0, 2, 3.5)), "asymmetric distances at (0,2): 3.5 vs 3.0"),
    (line3_with((0, 2, 4.5), (2, 0, 4.5)),
     "triangle inequality violated for (i,j,k) = (0,2,1): "
     "d(0,2) = 4.5 > 1.0 + 2.0"),
    (line3_with((1, 2, -0.25), (2, 1, -0.25)), "negative distance at (1,2): -0.25"),
    (line3_with((2, 0, math.nan)), "distance matrix must be finite"),
    (line3_with((2, 0, math.inf)), "distance matrix must be finite"),
])
def test_validation_messages_unchanged(dist, message):
    # the certificate now runs before the asymmetry check; every rejected
    # input still gets the message it got before
    assert validation_message(parent_validate, dist) == message
    n = dist.shape[0]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        FiniteMmSpace(tuple(range(n)), dist, np.full(n, 1.0 / n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.integers(0, 10 ** 6),
       st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 3.0]),
       st.sampled_from(["diagonal", "upper", "both", "one"]))
def test_validation_message_matches_parent_order(n, seed, noise, where):
    # a line metric with noise of up to noise * atol on its diagonal, on
    # its upper triangle only (asymmetric), on both triangles, or on one
    # entry: the validator accepts what the old order accepted and names
    # the same entry when it rejects
    rng = np.random.default_rng(seed)
    x = np.round(rng.random(n) * 8.0) / 4.0
    dist = np.abs(x[:, None] - x[None, :])
    atol = STRUCTURAL_TOL * max(float(dist.max()), 1.0)
    bump = rng.uniform(0.0, 1.0, (n, n)) * noise * atol
    if where == "diagonal":
        dist += np.diag(np.diagonal(bump))
    elif where == "upper":
        dist += np.triu(bump, 1)
    elif where == "both":
        dist += bump
    else:
        dist[rng.integers(n), rng.integers(n)] += bump[0, 0]
    want = validation_message(parent_validate, dist)
    assert validation_message(_validate_distance_matrix, dist) == want


def test_space_keeps_its_line_coordinates():
    x = np.random.default_rng(11).random(40) * 3.0
    s = FiniteMmSpace.from_points(x, np.full(40, 1 / 40))
    assert s.line_coords.tobytes() == line_embedding(s.dist).tobytes()
    assert not s.line_coords.flags.writeable
    with pytest.raises(ValueError):
        s.line_coords[0] = 1.0
    assert FiniteMmSpace((0,), [[0.0]], [1.0]).line_coords.tobytes() == \
        np.zeros(1).tobytes()
    cube = FiniteMmSpace.from_points(
        [[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)], np.full(8, 1 / 8))
    assert line_embedding(cube.dist) is None and cube.line_coords is None


def test_line_coordinates_take_no_part_in_eq_or_repr():
    s = FiniteMmSpace.from_points([0.0, 1.0, 3.0], [0.25, 0.25, 0.5])
    t = copy.copy(s)
    object.__setattr__(t, "line_coords", None)
    assert s.line_coords is not None
    assert s == t and repr(s) == repr(t)
    assert "line_coords" not in repr(s)
    f = {f.name: f for f in dataclasses.fields(FiniteMmSpace)}["line_coords"]
    assert not f.init and not f.repr and not f.compare


def test_discretized_segment_validates_in_quadratic_time():
    # the cubic scan takes about 0.7 s at 512 cells and would take over a
    # minute here
    space = WeightedOneDimSpace.from_density(
        "segment", 3.0, 2048, lambda x: np.full_like(x, 1.0 / 3.0))
    t0 = time.perf_counter()
    fin = discretize(space)
    assert time.perf_counter() - t0 < 5.0
    assert fin.n == 2048


def test_space_rejects_bad_weights():
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        FiniteMmSpace((0, 1), dist, [0.7, 0.7])


def test_space_json_round_trip():
    s = square_space((0.1, 0.2, 0.3, 0.4))
    t = FiniteMmSpace.from_json(s.to_json())
    assert np.allclose(t.dist, s.dist)
    assert np.allclose(t.weights, s.weights)
    assert t.point_ids == s.point_ids


def test_space_json_missing_key():
    with pytest.raises(ValidationError, match="weights"):
        FiniteMmSpace.from_json('{"points": [0], "dist": [[0.0]]}')


SPACE_DOC = {"points": [0, 1], "dist": [[0.0, 1.0], [1.0, 0.0]],
             "weights": [0.5, 0.5]}


@pytest.mark.parametrize("doc, message", [
    ({**SPACE_DOC, "dist": [[0, 1], [1]]}, "field 'dist': setting an array"),
    ({**SPACE_DOC, "dist": "ab"}, "field 'dist': could not convert"),
    ({**SPACE_DOC, "dist": [[0, {}], [1, 0]]}, "field 'dist'"),
    ({**SPACE_DOC, "points": 5}, "field 'points'"),
    ({**SPACE_DOC, "weights": "ab"}, "field 'weights'"),
    ({**SPACE_DOC, "weights": [0.5, [0.5]]}, "field 'weights'"),
    (list(SPACE_DOC), "must be a JSON object, got list"),
    (5, "must be a JSON object, got int"),
])
def test_space_json_rejects_malformed_fields(doc, message):
    # each was a bare ValueError or TypeError, which the CLI took for a
    # failed check
    assert FiniteMmSpace.from_json(json.dumps(SPACE_DOC)).n == 2
    with pytest.raises(ValidationError, match=re.escape(message)):
        FiniteMmSpace.from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# threshold search


@pytest.mark.parametrize("n", range(1, 65))
def test_first_feasible_every_threshold(n):
    for t in range(n):
        asked = []

        def pred(k):
            asked.append(k)
            return k >= t

        assert first_feasible(pred, n) == t
        assert asked[0] == 0
        assert n - 1 not in asked[1:]
        assert len(asked) <= 1 + (math.ceil(math.log2(n - 1)) if n > 1 else 0)
