import math
import re
import sys

import mpmath
import numpy as np
import pytest

from mmlab.coefficients import (
    f_softabs,
    omega,
    s_kappa,
    sigma,
    sigma_range_sup,
    sigma_vals,
    tau,
    tau_sup,
    tau_vals,
)
from mmlab.errors import InvalidDimension, ValidationError


def test_omega_branches():
    assert omega(4.0) == math.pi / 2.0
    assert omega(0.0) == math.inf
    assert omega(-3.0) == math.inf


def test_s_kappa_flat_and_origin():
    for theta in (0.0, 0.5, 10.0):
        assert s_kappa(0.0, theta) == 1.0
    for kappa in (-2.0, 0.0, 3.0):
        assert s_kappa(kappa, 0.0) == 1.0


def test_s_kappa_hyperbolic_value():
    assert s_kappa(-1.0, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-14)


def test_s_kappa_series_matches_direct():
    # around the series switch the two evaluation paths must agree
    for kappa in (2.0, -2.0):
        for theta in (5e-5, 9.99e-5, 1.01e-4, 2e-4):
            z = math.sqrt(abs(kappa)) * theta
            direct = (math.sin(z) if kappa > 0 else math.sinh(z)) / z
            assert s_kappa(kappa, theta) == pytest.approx(direct, abs=1e-15)


SINH_MAX_Z = math.asinh(sys.float_info.max)  # sinh overflows past about 710.48


def test_s_kappa_keeps_sinh_bits_below_its_overflow():
    for theta in (1.0, 50.0, 700.0, 710.0, math.nextafter(SINH_MAX_Z, 0.0)):
        assert s_kappa(-1.0, theta) == math.sinh(theta) / theta
    assert s_kappa(-4.0, 350.0) == math.sinh(700.0) / 700.0


@pytest.mark.parametrize("kappa, theta", [
    (-1.0, 710.5), (-1.0, 712.0), (-4.0, 356.0), (-1.0, 715.0),
    (-1.0, 716.0), (-1.0, 717.0), (-2.25, 478.0),
])
def test_s_kappa_past_sinh_overflow_matches_mpmath(kappa, theta):
    # sinh(z) leaves the float range while sinh(z)/z = e^z/(2z) does not
    z = math.sqrt(-kappa) * theta
    with pytest.raises(OverflowError):
        math.sinh(z)
    with mpmath.workprec(200):
        ref = float(mpmath.sinh(mpmath.mpf(z)) / mpmath.mpf(z))
    got = s_kappa(kappa, theta)
    assert math.isfinite(got)
    assert abs(got - ref) <= 4.0 * math.ulp(ref)


@pytest.mark.parametrize("kappa, theta", [
    (-1.0, 718.0), (-1.0, 1000.0), (-4.0, 400.0), (-1.0, 1420.0),
    (-1.0, 1e6), (-1.0, 1e300), (-1e300, 1e300),
])
def test_s_kappa_is_inf_past_the_float_range(kappa, theta):
    # the last case has sqrt(-kappa) theta = inf in floats
    with mpmath.workprec(200):
        z = mpmath.sqrt(-mpmath.mpf(kappa)) * theta
        assert mpmath.sinh(z) / z > sys.float_info.max
    assert s_kappa(kappa, theta) == math.inf


@pytest.mark.parametrize("kappa, theta", [
    (1e300, 1e300), (1e200, 1e300), (4.0, 1e308),
])
def test_s_kappa_is_zero_once_z_overflows(kappa, theta):
    # sqrt(kappa) theta = inf in floats, where |sin z / z| < 1/z is below
    # the float range
    assert math.sqrt(kappa) * theta == math.inf
    assert s_kappa(kappa, theta) == 0.0


def test_sigma_endpoints():
    for kappa in (-1.0, 0.0, 2.0):
        theta = 1.0 if omega(kappa) > 1.0 else 0.5 * omega(kappa)
        assert float(sigma(kappa, 1.0, theta)) == pytest.approx(1.0, abs=1e-14)
        assert float(sigma(kappa, 0.0, theta)) == 0.0
        assert float(sigma(kappa, 0.5, 0.0)) == pytest.approx(0.5, abs=1e-15)


def test_sigma_flat_is_t():
    for t in (0.0, 0.3, 1.0):
        for theta in (0.0, 2.0, 100.0):
            assert float(sigma(0.0, t, theta)) == t


def test_sigma_hyperbolic_half_closed_form():
    # sinh(theta/2)/sinh(theta) = 1/(2 cosh(theta/2))
    for theta in (0.1, 0.7, 3.0, 20.0):
        expect = 1.0 / (2.0 * math.cosh(theta / 2.0))
        assert float(sigma(-1.0, 0.5, theta)) == pytest.approx(expect, rel=1e-13)


def test_sigma_closed_branch_boundary():
    kappa = 4.0
    w = omega(kappa)
    assert math.isinf(sigma(kappa, 0.5, w))  # closed at the endpoint
    assert math.isinf(sigma(kappa, 0.5, w + 1.0))
    assert math.isfinite(sigma(kappa, 0.5, 0.999 * w))


def test_sigma_strictly_decreasing_negative_curvature():
    thetas = np.linspace(0.05, 40.0, 300)
    for t in (0.25, 0.5, 0.9):
        vals = sigma_vals(-1.0, t, thetas)
        assert np.all(np.diff(vals) < 0)
        # decays to zero at rate exp(-(1-t) theta)
        assert float(sigma_vals(-1.0, t, np.array([400.0]))[0]) < 1e-12


def test_sigma_reversed_fractions_sum_at_zero():
    for t in (0.0, 0.25, 0.7, 1.0):
        total = sigma(-2.0, 1.0 - t, 0.0) + sigma(-2.0, t, 0.0)
        assert total == pytest.approx(1.0, abs=1e-15)


def test_sigma_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        sigma(0.0, 1.5, 1.0)
    with pytest.raises(ValidationError):
        sigma(0.0, 0.5, -1.0)


def test_tau_flat_is_t_exactly():
    for t in (0.0, 0.3, 0.5, 1.0):
        for theta in (0.0, 1.0, 7.0):
            for N in (-0.5, -1.0, -3.0):
                assert float(tau(0.0, N, t, theta)) == t


def test_tau_half_closed_form():
    # for K > 0: (1/2) cosh((theta/2) sqrt(K/(1-N)))^{1/N - 1}
    for K in (0.5, 1.0, 4.0):
        for N in (-0.5, -1.0, -2.0):
            for theta in (0.3, 1.0, 2.0):
                expect = 0.5 * math.cosh(0.5 * theta * math.sqrt(K / (1.0 - N))) ** (1.0 / N - 1.0)
                assert float(tau(K, N, 0.5, theta)) == pytest.approx(expect, abs=1e-12)


def test_tau_specific_value():
    expect = 0.5 * math.cosh(1.0 * math.sqrt(1.0 / 2.0)) ** (-2.0)
    assert float(tau(1.0, -1.0, 0.5, 2.0)) == pytest.approx(expect, abs=1e-12)


def test_tau_unit_endpoint():
    for K in (-0.5, 0.0, 2.0):
        assert float(tau(K, -1.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-14)


def test_tau_closed_branch_negative_curvature():
    K, N = -1.0, -1.0
    w = math.pi * math.sqrt((N - 1.0) / K)
    assert math.isinf(tau(K, N, 0.5, w))
    assert math.isfinite(tau(K, N, 0.5, 0.99 * w))


def test_tau_rejects_nonnegative_dimension():
    with pytest.raises(InvalidDimension):
        tau(1.0, 0.5, 0.5, 1.0)
    with pytest.raises(InvalidDimension):
        tau_sup(1.0, 2.0, 0.5, 1.0)


def test_tau_sup_nonnegative_curvature_is_t():
    assert float(tau_sup(0.0, -1.0, 0.37, 100.0)) == 0.37
    assert float(tau_sup(2.0, -0.5, 0.8, 50.0)) == 0.8


def test_tau_sup_against_dense_grid():
    K, N, t = -1.0, -1.0, 0.5
    theta_max = 0.9 * math.pi * math.sqrt(2.0)
    grid = np.linspace(0.0, theta_max, 100_000)
    oracle = float(np.max(tau_vals(K, N, t, grid)))
    val = float(tau_sup(K, N, t, theta_max))
    assert val == pytest.approx(oracle, rel=1e-6)
    assert math.isinf(tau_sup(K, N, t, math.pi * math.sqrt(2.0)))


def test_sigma_range_sup_monotone_endpoints():
    assert float(sigma_range_sup(-1.0, 0.5, 0.2, 3.0)) == pytest.approx(
        float(sigma(-1.0, 0.5, 0.2)), abs=1e-15)
    assert float(sigma_range_sup(1.0, 0.5, 0.2, 1.0)) == pytest.approx(
        float(sigma(1.0, 0.5, 1.0)), abs=1e-15)
    assert sigma_range_sup(1.0, 0.5, 0.0, omega(1.0)) == math.inf


# ---------------------------------------------------------------------------
# smooth absolute value


def test_softabs_at_zero():
    assert f_softabs(1.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)


def test_softabs_band_property():
    rng = np.random.default_rng(5)
    for a in (0.5, 2.0, 17.0):
        x = rng.uniform(-4, 4, size=64)
        v = f_softabs(a, x)
        # strictly above |x| wherever the excess is representable in floats
        assert np.all(v >= np.abs(x))
        representable = 2.0 * a * np.abs(x) < 30.0
        assert np.all(v[representable] > np.abs(x)[representable])
        assert np.all(v <= np.abs(x) + math.log(2.0) / a + 1e-15)


# every closed-branch, z = 0 and series-free case of both branches: K/(N-1)
# and K/N are positive for K < 0 and negative for K > 0
ARRAY_T_CASES = [(K, N) for K in (-40.0, -2.0, 0.0, 1.5) for N in (-0.1, -1.0, -3.0)]


@pytest.mark.parametrize("K, N", ARRAY_T_CASES)
def test_array_t_matches_scalar_calls_bit_for_bit(K, N):
    rng = np.random.default_rng(11)
    thetas = np.abs(rng.normal(scale=1.5, size=(7, 12)))
    thetas[0, :3] = 0.0
    ts = np.array([0.0, 1e-9, 0.125, 0.3, 0.5, 0.875, 1.0 - 1e-12, 1.0])
    for arr, one in ((tau_vals(K, N, ts[:, None, None], thetas),
                      lambda t: tau_vals(K, N, t, thetas)),
                     (sigma_vals(K / N, ts[:, None, None], thetas),
                      lambda t: sigma_vals(K / N, t, thetas))):
        assert arr.shape == (ts.size,) + thetas.shape
        for row, t in zip(arr, ts):
            assert row.tobytes() == one(float(t)).tobytes()
    # a t array along the theta axis broadcasts the same way
    line = np.linspace(0.05, 0.95, thetas.shape[1])
    assert (tau_vals(K, N, line, thetas).tobytes()
            == np.stack([[tau(K, N, t, th) for t, th in zip(line, row)]
                         for row in thetas]).tobytes())


def masked_sigma(kappa, t, thetas):
    """``sigma_vals`` spelt out: the sin or sinh ratio, t at theta = 0 and
    inf on the closed branch, each replaced by mask."""
    th = np.asarray(thetas, dtype=float)
    shape = np.broadcast_shapes(np.shape(t), th.shape)
    if kappa == 0:
        return np.full(shape, t, dtype=float)
    z = math.sqrt(abs(kappa)) * th
    with np.errstate(divide="ignore", invalid="ignore"):
        if kappa > 0:
            vals = np.sin(t * z) / np.sin(z)
        else:
            vals = (np.exp((t - 1.0) * z)
                    * (np.expm1(-2.0 * t * z) / np.expm1(-2.0 * z)))
    out = np.where(z > 0, vals, t)
    if kappa > 0:
        out[np.broadcast_to(z >= math.pi, shape)] = math.inf
    return out


def masked_tau(K, N, t, thetas):
    """tau with both masks applied on every call: inf on the closed branch,
    0 at t = 0, t * (sigma/t)^(1 - 1/N) elsewhere."""
    sig = masked_sigma(K / (N - 1.0), t, thetas)
    closed = np.isinf(sig)
    out = np.where(closed, math.inf, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = t * (sig / t) ** (1.0 - 1.0 / N)
    np.copyto(out, vals, where=~closed & (t > 0.0))
    return out


# K >= 0 gives kappa = K/(N-1) <= 0; K < 0 gives kappa > 0 and reaches the
# closed branch
TAU_MASK_CASES = [(K, N) for K in (-9.0, -1.0, 0.0, 0.5, 4.0, 300.0)
                  for N in (-0.2, -1.0, -3.0)]


@pytest.mark.parametrize("K, N", TAU_MASK_CASES)
def test_tau_matches_the_fully_masked_formula(K, N):
    rng = np.random.default_rng(13)
    thetas = np.abs(rng.normal(scale=2.0, size=(5, 9)))
    thetas[0, :2] = 0.0
    thetas[1, :3] = (1e-9, 40.0, 700.0)  # with K = 300, z reaches ~7000
    fracs = np.array([1e-9, 0.125, 0.5, 0.875, 1.0])
    ts = [0.0, 0.3, 1.0, np.float64(0.7), fracs[:, None, None],
          np.concatenate(([0.0], fracs))[:, None, None],
          np.linspace(0.05, 0.95, thetas.shape[1])]
    for t in ts:
        for th in (thetas, thetas[1, 2], [0.0]):
            got, ref = tau_vals(K, N, t, th), masked_tau(K, N, t, th)
            assert isinstance(got, np.ndarray) and got.shape == ref.shape
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            # the CD* coefficients are the ratio itself, masked as before
            for kappa in (K / N, K / (N - 1.0)):
                got, ref = sigma_vals(kappa, t, th), masked_sigma(kappa, t, th)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad, where", [
    (math.nan, "t[2, 0] = nan"), (-0.1, "t[2, 0] = -0.1"),
    (1.5, "t[2, 0] = 1.5")])
def test_array_t_rejects_bad_entry_by_index(bad, where):
    t = np.array([[0.2], [0.4], [bad], [math.nan]])
    for call in (lambda: tau_vals(1.0, -1.0, t, [0.0, 1.0]),
                 lambda: sigma_vals(0.5, t, [0.0, 1.0])):
        with pytest.raises(ValidationError, match=re.escape(where)):
            call()


def test_softabs_sharp_limit():
    assert f_softabs(64.0, 0.5) == pytest.approx(0.5, abs=1e-8)


def test_softabs_even_and_overflow_safe():
    x = np.array([-800.0, -3.0, 3.0, 800.0])
    v = f_softabs(5.0, x)
    assert np.all(np.isfinite(v))
    assert v[0] == v[3] and v[1] == v[2]


@pytest.mark.parametrize("name,f,beta", [
    ("sine", lambda x: np.sin(x), 1.0),
    ("affine", lambda x: 2.0 + 0.3 * x, 0.0),
    ("cosh", lambda x: np.cosh(x), 0.0),
])
def test_softabs_preserves_modular_convexity(name, f, beta):
    # if f >= 0 and f'' + beta f >= 0 then the composed field satisfies the
    # same bound up to the stencil error
    a = 4.0
    h = 1e-3
    x = np.arange(0.2, 2.8, h)
    vals = f(x)
    assert np.all(vals >= 0)
    comp = f_softabs(a, vals)
    d2 = (comp[2:] - 2 * comp[1:-1] + comp[:-2]) / h ** 2
    resid = d2 + beta * comp[1:-1]
    d4 = (comp[4:] - 4 * comp[3:-1] + 6 * comp[2:-2] - 4 * comp[1:-3] + comp[:-4]) / h ** 4
    tol = np.max(np.abs(d4)) * h ** 2 / 6.0 + 1e-10
    assert resid.min() >= -tol
