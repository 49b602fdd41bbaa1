"""Scalar distortion coefficients and the smooth absolute value.

The comparison functions are defined branch-wise in the sign of the curvature
parameter ``kappa``; the closed infinite branch starts at ``omega(kappa)``.
All functions are pure and have vectorised ``*_vals`` variants used by the
quadrature code.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _check_dimension, _check_finite, _reject_entries, _require

__all__ = [
    "omega",
    "s_kappa",
    "sigma",
    "sigma_vals",
    "sigma_range_sup",
    "tau",
    "tau_vals",
    "tau_sup",
    "f_softabs",
]

_SERIES_Z = 1e-4  # below this |sqrt(|kappa|)*theta| a Taylor series is used


def omega(kappa: float) -> float:
    """Endpoint of the finite branch: pi/sqrt(kappa) for kappa > 0, else inf."""
    _check_finite(kappa, "kappa")
    if kappa > 0:
        return math.pi / math.sqrt(kappa)
    return math.inf


def s_kappa(kappa: float, theta: float) -> float:
    """sin(sqrt(kappa) theta)/(sqrt(kappa) theta) with the kappa <= 0 branches.

    Continuous in theta with value 1 at theta = 0.  For kappa < 0 it stays
    finite past the overflow of sinh itself, and is ``inf`` only once
    sinh(z)/z leaves the float range (z = sqrt(-kappa) theta above ~717.6).
    """
    _check_finite(kappa, "kappa")
    _require(theta >= 0, "theta", "must be nonnegative", theta)
    _check_finite(theta, "theta")
    if kappa == 0 or theta == 0.0:
        return 1.0
    z = math.sqrt(abs(kappa)) * theta
    if z < _SERIES_Z:
        z2 = z * z
        corr = z2 / 6.0 - z2 * z2 / 120.0
        return 1.0 - corr if kappa > 0 else 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    if kappa > 0:
        # z may overflow to inf, where |sin(z)/z| < 1/z is below the float range
        return math.sin(z) / z if z < math.inf else 0.0
    if z > 1418.0:  # e^z/(2z) is far past the float range; z may be inf
        return math.inf
    try:
        return math.sinh(z) / z
    except OverflowError:
        # past sinh's range sinh(z)/z is e^z/(2z), formed from two halves of
        # e^z so that no factor overflows before the quotient does; inf once
        # the quotient leaves the float range
        half = math.exp(0.5 * z)
        return half / (2.0 * z) * half


def _check_t(t):
    """t as a float, or as a float array when given an array; every entry
    must lie in [0, 1]."""
    if np.ndim(t) == 0:
        t = float(t)
        _require(0.0 <= t <= 1.0, "t", "must lie in [0,1]", t)
        return t
    t = np.asarray(t, dtype=float)
    _reject_entries((t >= 0.0) & (t <= 1.0), "t must lie in [0,1]", "t", t)
    return t


def _sin_ratio(t, z, sin_z):
    # sin(t z)/sin(z) on z in (0, pi); equals sigma for kappa > 0
    return np.sin(t * z) / sin_z


def _sinh_ratio(t, z, expm1_z):
    # sinh(t z)/sinh(z), stable for all z > 0 via expm1; expm1_z = expm1(-2z)
    num = np.expm1(-2.0 * t * z)
    return np.exp((t - 1.0) * z) * (num / expm1_z)


def sigma_vals(kappa: float, t, thetas) -> np.ndarray:
    """Vectorised distortion ratio; ``inf`` on the closed branch.

    ``t`` is a number or an array that broadcasts against ``thetas``; the
    terms that depend on theta alone are computed once on the theta shape.
    """
    _check_finite(kappa, "kappa")
    t = _check_t(t)
    th = np.asarray(thetas, dtype=float)
    _reject_entries(th >= 0, "theta must be nonnegative", "thetas", th)
    shape = np.broadcast_shapes(np.shape(t), th.shape)
    if kappa == 0:
        return np.full(shape, t, dtype=float)
    z = math.sqrt(abs(kappa)) * th
    # the denominators depend on theta alone; entries at z = 0 (0/0) and on
    # the closed branch are replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        if kappa > 0:
            vals = _sin_ratio(t, z, np.sin(z))
        else:
            vals = _sinh_ratio(t, z, np.expm1(-2.0 * z))
    out = np.where(z > 0, vals, t)
    if kappa > 0:
        out[np.broadcast_to(z >= math.pi, shape)] = math.inf
    return out


def sigma(kappa: float, t: float, theta: float) -> float:
    """Distortion coefficient; ``math.inf`` once theta reaches omega(kappa)."""
    return float(sigma_vals(kappa, t, np.asarray([theta]))[0])


def sigma_range_sup(kappa: float, t: float, theta_lo: float, theta_hi: float) -> float:
    """Supremum of the ratio over a theta interval.

    The ratio is monotone on the finite branch (nonincreasing for kappa <= 0,
    nondecreasing for kappa > 0), so the supremum sits at an endpoint.
    """
    _check_finite(kappa, "kappa")
    t = _check_t(t)
    _require(theta_lo >= 0, "theta_lo", "must be nonnegative", theta_lo)
    _require(theta_hi >= theta_lo, "theta_hi", "must be at least theta_lo",
             theta_hi)
    if kappa > 0 and theta_hi >= omega(kappa):
        return math.inf
    return sigma(kappa, t, theta_lo if kappa <= 0 else theta_hi)


def tau_vals(K: float, N: float, t, thetas) -> np.ndarray:
    """Vectorised tau coefficient for dimension parameter N < 0; ``t`` as
    in ``sigma_vals``."""
    _check_finite(K)
    _check_dimension(N)
    t = _check_t(t)
    sig = sigma_vals(K / (N - 1.0), t, thetas)
    # tau = t * (s(t theta)/s(theta))^{1-1/N} = t * (sigma/t)^{1-1/N}, which
    # is inf on the closed branch (sigma = inf, 1 - 1/N > 1) by itself
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = t * (sig / t) ** (1.0 - 1.0 / N)
    if np.all(t > 0.0):
        return np.asarray(vals)
    # at t = 0 the formula reads 0/0: tau is 0 there, inf on the closed branch
    return np.where(t > 0.0, vals, np.where(np.isinf(sig), math.inf, 0.0))


def tau(K: float, N: float, t: float, theta: float) -> float:
    """Distortion coefficient with dimensional weighting, N < 0."""
    return float(tau_vals(K, N, t, np.asarray([theta]))[0])


def tau_sup(K: float, N: float, t: float, theta_max: float) -> float:
    """Supremum of tau over theta in [0, theta_max].

    tau is monotone in theta on the finite branch: nonincreasing for K >= 0
    (so the supremum is t, attained at theta = 0) and nondecreasing for K < 0
    (supremum at theta_max, infinite once theta_max reaches the closed
    branch).  Monotonicity follows from the sign of
    (1 - t^2) s(t z) s(z) in the derivative of the ratio.
    """
    _check_finite(K)
    _check_dimension(N)
    t = _check_t(t)
    _require(theta_max >= 0, "theta_max", "must be nonnegative", theta_max)
    if K >= 0:
        return t
    kappa = K / (N - 1.0)  # positive here
    if theta_max >= omega(kappa):
        return math.inf
    return tau(K, N, t, theta_max)


def f_softabs(a: float, x):
    """Smooth absolute value a^{-1} log(e^{ax} + e^{-ax}).

    Overflow-safe: evaluated as |x| + a^{-1} log(1 + e^{-2a|x|}).  Satisfies
    |x| < value <= |x| + a^{-1} log 2, is even and smooth.
    """
    _require(a > 0, "softness parameter", "must be positive", a)
    _check_finite(a, "softness parameter")
    ax = np.abs(np.asarray(x, dtype=float))
    out = ax + np.log1p(np.exp(-2.0 * a * ax)) / a
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out
