"""Concentration-of-measure invariants and closed-form comparison bounds.

Partial diameter and separation distance are solved exactly on small spaces
(combinatorial search) and on spaces isometric to a subset of the line
(sliding windows); beyond the fixed size budgets a certified upper bound is
returned together with an ``exact=False`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import _check_finite
from .config import STRUCTURAL_TOL, RunConfig, default_config
from .core import (
    FiniteMmSpace,
    first_feasible,
    line_embedding,
    prob_weights,
    row_masks,
    subset_transform,
)
from .errors import DomainError, SolverFailure, ValidationError

__all__ = [
    "line_embedding",
    "partial_diameter_1d",
    "partial_diameter",
    "Certified",
    "separation",
    "obsdiam_sandwich",
    "ObsDiamSandwich",
    "cd_separation_bound",
    "cd_obsdiam_bound",
    "cdstar_separation_bound",
    "cdstar_obsdiam_bound",
    "levy_bound_sequence",
]

# exact combinatorial searches up to these support sizes; beyond them a
# certified upper bound is returned
N_EXACT_PARTIAL_DIAM = 18
N_EXACT_SEPARATION = 14
# random members of the observable-diameter witness family
OBSDIAM_WITNESS_SUBSETS = 16
OBSDIAM_WITNESS_POTENTIALS = 32
# the partial-diameter kernel sorts and sums its rows in blocks of at most
# this many entries (256 KiB per float array), so each block stays in cache
PARTIAL_DIAM_BLOCK_ELEMENTS = 1 << 15
# a Levy-trend bound sequence must decay below this fraction of its first value
LEVY_DECAY = 0.1


# ---------------------------------------------------------------------------
# partial diameter


def partial_diameter_1d(values, weights, alpha: float) -> float:
    """Smallest window width on the line carrying mass at least alpha.

    Window i closes at the smallest k with ``cum[k] - cum[i] >= alpha -
    STRUCTURAL_TOL``, so the result is the exact minimum of
    ``xs[k-1] - xs[i]`` over the achieved windows.  Values must be finite
    and weights finite and nonnegative, one per value; the first that is
    not is named.
    """
    x = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 1 or w.shape != x.shape:
        raise ValidationError(f"values and weights must be vectors of one "
                              f"length, got shapes {x.shape} and {w.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValidationError(
            f"values must be finite, values[{bad[0]}] = {x[bad[0]]}")
    bad = np.flatnonzero(~(np.isfinite(w) & (w >= 0.0)))
    if bad.size:
        raise ValidationError(f"weights must be finite and nonnegative, "
                              f"weights[{bad[0]}] = {w[bad[0]]}")
    if alpha <= 0.0:
        return 0.0
    total = w.sum()
    if not np.isfinite(total):
        raise ValidationError(f"weights must have a finite sum, got {total}")
    if alpha > total + STRUCTURAL_TOL:
        raise ValidationError(f"no set reaches mass {alpha} (total {total})")
    target = alpha - STRUCTURAL_TOL
    if target <= 0.0:
        return 0.0
    return float(_partial_diameters(x[None, :], w, target)[0])


def _partial_diameters(F: np.ndarray, w: np.ndarray, target: float) -> np.ndarray:
    """``partial_diameter_1d`` of every row of F against the weights w, for a
    mass target > 0 that the weights reach within ``STRUCTURAL_TOL``.

    Rows go in blocks of at most ``PARTIAL_DIAM_BLOCK_ELEMENTS`` entries.  Per
    row: a stable sort, a sequential cumulative sum, and each window's end k
    stepped until ``cum[k] - cum[i] >= target`` decides it.  That test is
    monotone in k, so the steps reach the smallest such k from any start.
    """
    r, n = F.shape
    out = np.empty(r)
    i = np.arange(n)
    rows = max(1, PARTIAL_DIAM_BLOCK_ELEMENTS // n)
    for s in range(0, r, rows):
        block = F[s:s + rows]
        b = block.shape[0]
        order = np.argsort(block, axis=1, kind="stable")
        xs = np.take_along_axis(block, order, axis=1)
        cum = np.zeros((b, n + 2))
        np.cumsum(w[order], axis=1, out=cum[:, 1:n + 1])
        cum[:, n + 1] = np.inf
        left = cum[:, :n]
        row = np.arange(b)[:, None]
        # start each k from one search over the rows laid end to end, each
        # shifted by a power of two past its sums so that the shifts are
        # exact; the sum cum[i] + target rounds apart from the difference
        # cum[k] - cum[i] that decides a window, so step k until it decides
        span = 2.0 ** math.ceil(math.log2(cum[:, n].max() + target + 1.0))
        start = np.searchsorted((cum[:, :n + 1] + row * span).ravel(),
                                (left + target + row * span).ravel())
        k = np.maximum(start.reshape(b, n) - row * (n + 1), i + 1)
        flat = cum.ravel()
        base = row * (n + 2)
        while True:
            down = (k - 1 > i) & (flat[base + k - 1] - left >= target)
            if not down.any():
                break
            k[down] -= 1
        while True:
            up = flat[base + k] - left < target
            if not up.any():
                break
            k[up] += 1
        ok = k <= n
        widths = np.take_along_axis(xs, np.minimum(k, n) - 1, axis=1) - xs
        widths[~ok] = np.inf
        vals = widths.min(axis=1)
        # the whole mass falls short of target by rounding only: the target
        # was accepted within STRUCTURAL_TOL of the total, so take the span
        short = ~ok.any(axis=1)
        vals[short] = xs[short, -1] - xs[short, 0]
        out[s:s + b] = vals
    return out


@dataclass(frozen=True)
class Certified:
    """A value, exact or else a certified bound, and the method behind it."""

    value: float
    exact: bool
    method: str

    def __float__(self) -> float:
        return self.value


def _clique_feasible(adj: list[int], weights: np.ndarray, target: float) -> bool:
    """Is there a clique of weight >= target in the threshold graph?"""
    n = weights.size
    order = np.argsort(-weights, kind="stable")

    def rec(pos: int, allowed: int, acc: float) -> bool:
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


def partial_diameter(space: FiniteMmSpace, mu, alpha: float) -> Certified:
    """Smallest diameter of a subset of mass at least alpha.

    Exact on line-embeddable spaces (any size) and, by threshold search with
    a clique feasibility check, on spaces with at most
    ``N_EXACT_PARTIAL_DIAM`` points; otherwise a certified upper bound from
    the metric-ball family is returned with ``exact=False``.
    """
    mu = prob_weights(mu)
    if not 0.0 <= alpha <= 1.0 + STRUCTURAL_TOL:
        raise ValidationError(f"alpha must lie in [0,1], got {alpha}")
    if alpha <= 0.0:
        return Certified(0.0, True, "empty")
    sup = np.flatnonzero(mu > 0)
    dist = space.dist[np.ix_(sup, sup)]
    w = mu[sup]
    coords = line_embedding(dist)
    if coords is not None:
        val = partial_diameter_1d(coords, w, alpha)
        return Certified(val, True, "line-window")
    n = w.size
    target = alpha - STRUCTURAL_TOL
    if n <= N_EXACT_PARTIAL_DIAM:
        cands = np.unique(np.concatenate([[0.0], dist.ravel()]))
        # the whole support is a clique at the largest distance
        k = first_feasible(lambda k: _clique_feasible(
            row_masks(dist <= cands[k]).tolist(), w, target), cands.size)
        return Certified(float(cands[k]), True, "clique-threshold")
    # certified upper bound: best metric ball reaching the target mass
    best = float(dist.max())
    for c in range(n):
        order = np.argsort(dist[c], kind="stable")
        acc = np.cumsum(w[order])
        k = int(np.searchsorted(acc, target))
        if k < n:
            members = order[:k + 1]
            best = min(best, float(dist[np.ix_(members, members)].max()))
    return Certified(best, False, "ball-upper-bound")


# ---------------------------------------------------------------------------
# separation distance


def _line_separation(x: np.ndarray, w: np.ndarray, k0: float, k1: float,
                     tol: float) -> float:
    order = np.argsort(x, kind="stable")
    xs, ws = x[order], w[order]
    pre = np.cumsum(ws)
    suf = np.cumsum(ws[::-1])[::-1]

    def candidate(ka: float, kb: float) -> float:
        ia = int(np.searchsorted(pre, ka - tol))
        ib = xs.size - 1 - int(np.searchsorted(suf[::-1], kb - tol))
        if ia >= xs.size or ib < 0:
            return 0.0
        return max(xs[ib] - xs[ia], 0.0)

    return max(candidate(k0, k1), candidate(k1, k0))


def _subset_masses(w: np.ndarray) -> np.ndarray:
    """Mass of every subset of the atoms, indexed by bitmask.  Filled from
    the highest bit down: entry t + 2^i, for t a multiple of 2^(i+1), is
    entry t plus w[i], one addition per entry, so a subset's mass adds its
    atoms from the highest index to the lowest."""
    n = w.size
    mass = np.zeros(1 << n)
    for i in range(n - 1, -1, -1):
        v = mass.reshape(-1, 2 << i)
        v[:, 1 << i] = v[:, 0] + w[i]
    return mass


def separation(space: FiniteMmSpace, mu, k0: float, k1: float) -> Certified:
    """Largest guaranteed gap between two sets of prescribed masses.

    Returns 0 when no admissible pair of sets exists (supremum over the
    empty family).  Exact on line-embeddable spaces and for at most
    ``N_EXACT_SEPARATION`` support points (subset feasibility over distance
    thresholds); otherwise the support diameter is returned as a certified
    upper bound with ``exact=False``.
    """
    if not k0 > 0 or not k1 > 0:
        raise ValidationError("mass thresholds must be positive")
    mu = prob_weights(mu)
    tol = STRUCTURAL_TOL
    if k0 > 1.0 + tol or k1 > 1.0 + tol:
        return Certified(0.0, True, "no-admissible-set")
    sup = np.flatnonzero(mu > 0)
    dist = space.dist[np.ix_(sup, sup)]
    w = mu[sup]
    coords = line_embedding(dist)
    if coords is not None:
        return Certified(_line_separation(coords, w, k0, k1, tol), True,
                         "line-window")
    n = w.size
    if n > N_EXACT_SEPARATION:
        return Certified(float(dist.max()), False, "diam-upper-bound")

    full = (1 << n) - 1
    mass = _subset_masses(w)
    bits = 1 << np.arange(n, dtype=np.int64)
    big = mass[1:] >= k0 - tol

    def feasible(d: float) -> bool:
        # conflict[s]: the points closer than d to some point of s, and s
        point = np.zeros(1 << n, dtype=np.int64)
        point[bits] = row_masks(dist < d) | bits
        conflict = subset_transform(point, n, np.bitwise_or)
        return bool(np.any(big & (mass[full & ~conflict[1:]] >= k1 - tol)))

    # feasibility only falls as the gap grows; the sentinel past the last
    # candidate is infeasible
    cands = np.unique(dist[dist > 0])
    k = first_feasible(lambda k: k == cands.size or not feasible(cands[k]),
                       cands.size + 1)
    value = float(cands[k - 1]) if k > 0 else 0.0
    return Certified(value, True, "subset-threshold")


# ---------------------------------------------------------------------------
# observable diameter sandwich


@dataclass(frozen=True)
class ObsDiamSandwich:
    """Lower witness value and separation upper bound for the observable
    diameter at a given mass defect."""

    lower: float
    upper: float
    witness: str
    upper_exact: bool = True


def obsdiam_sandwich(space: FiniteMmSpace, mu, kappa: float, *,
                     config: RunConfig | None = None) -> ObsDiamSandwich:
    """Sandwich the kappa-observable diameter between the best value over an
    explicit 1-Lipschitz witness family and the separation bound at
    (kappa/2, kappa/2).  For kappa >= 1 both sides are 0."""
    cfg = config or default_config()
    if not kappa > 0:
        raise ValidationError(f"kappa must be positive, got {kappa}")
    if kappa >= 1.0:
        return ObsDiamSandwich(0.0, 0.0, "mass defect >= 1", True)
    mu = prob_weights(mu)
    alpha = 1.0 - kappa
    total = mu.sum()
    if alpha > total + STRUCTURAL_TOL:
        raise ValidationError(f"no set reaches mass {alpha} (total {total})")
    rng = np.random.default_rng(cfg.seed)
    n = space.n
    # row p of DT is the point witness d(., p); the other witnesses are
    # minima over its rows, the same sums and exact minima as over the
    # columns of dist, so no symmetry is assumed
    DT = np.ascontiguousarray(space.dist.T)
    others = np.empty((OBSDIAM_WITNESS_SUBSETS + OBSDIAM_WITNESS_POTENTIALS, n))
    sizes = []
    for j in range(OBSDIAM_WITNESS_SUBSETS):
        size = int(rng.integers(2, max(3, n // 2 + 1)))
        subset = rng.choice(n, size=min(size, n), replace=False)
        others[j] = DT[subset].min(axis=0)
        sizes.append(subset.size)
    diam = space.diam
    for j in range(OBSDIAM_WITNESS_SUBSETS, others.shape[0]):
        v = rng.uniform(0.0, diam, size=n)
        others[j] = (DT + v[:, None]).min(axis=0)
    target = alpha - STRUCTURAL_TOL
    best, witness = 0.0, "point distance"
    if target > 0.0:
        vals = np.concatenate([_partial_diameters(DT, mu, target),
                               _partial_diameters(others, mu, target)])
        # the first witness of the largest value, as a scan keeping the
        # first strict improvement on 0 finds it
        j = int(np.argmax(vals))
        if vals[j] > 0.0:
            best = float(vals[j])
            if j < n:
                witness = f"d(., {space.point_ids[j]!r})"
            elif j < n + OBSDIAM_WITNESS_SUBSETS:
                witness = f"d(., A) for |A| = {sizes[j - n]}"
            else:
                witness = "regularised random potential"
    sep = separation(space, mu, kappa / 2.0, kappa / 2.0)
    if best > sep.value + 1e-9:
        raise SolverFailure(
            f"witness value {best} exceeds separation bound {sep.value}"
        )
    return ObsDiamSandwich(best, sep.value, witness, sep.exact)


# ---------------------------------------------------------------------------
# closed-form bounds for spaces with curvature-dimension control


def _acosh(x: float) -> float:
    if x < 1.0:
        raise DomainError(f"acosh argument {x} < 1")
    return math.log(x + math.sqrt(x * x - 1.0))


def _check_bound_params(K: float, N: float) -> None:
    _check_finite(K)
    if K <= 0:
        raise ValidationError(f"K must be positive, got {K}")
    if not N < 0:
        raise ValidationError(f"N must be negative, got {N}")


def cd_separation_bound(K: float, N: float, k0: float, k1: float) -> float:
    """Separation bound for CD(K, N) spaces with K > 0, N < 0."""
    _check_bound_params(K, N)
    if not (0 < k0 < 1 and 0 < k1 < 1 and k0 + k1 < 1):
        raise ValidationError("mass fractions must be positive with sum < 1")
    mean = 0.5 * (k0 ** (1.0 / N) + k1 ** (1.0 / N))
    arg = mean ** (-N / (1.0 - N))
    return 2.0 * math.sqrt((1.0 - N) / K) * _acosh(arg)


def cd_obsdiam_bound(K: float, N: float, kappa: float) -> float:
    """Observable-diameter bound for CD(K, N) spaces with K > 0, N < 0."""
    _check_bound_params(K, N)
    if not 0 < kappa <= 1:
        raise ValidationError(f"kappa must lie in (0,1], got {kappa}")
    arg = (2.0 / kappa) ** (1.0 / (1.0 - N))
    return 2.0 * math.sqrt((1.0 - N) / K) * _acosh(arg)


def cdstar_separation_bound(K: float, N: float, k0: float, k1: float) -> float:
    """Separation bound under the reduced condition CD*(K, N)."""
    _check_bound_params(K, N)
    if not (0 < k0 < 1 and 0 < k1 < 1 and k0 + k1 < 1):
        raise ValidationError("mass fractions must be positive with sum < 1")
    arg = 0.5 * (k0 ** (1.0 / N) + k1 ** (1.0 / N))
    return 2.0 * math.sqrt(-N / K) * _acosh(arg)


def cdstar_obsdiam_bound(K: float, N: float, kappa: float) -> float:
    """Observable-diameter bound under the reduced condition CD*(K, N)."""
    _check_bound_params(K, N)
    if not 0 < kappa <= 1:
        raise ValidationError(f"kappa must lie in (0,1], got {kappa}")
    arg = (2.0 / kappa) ** (-1.0 / N)
    return 2.0 * math.sqrt(-N / K) * _acosh(arg)


# ---------------------------------------------------------------------------
# Levy-trend bounds


def levy_bound_sequence(K_list, N_list, kappa: float, mode: str):
    """Per-instance observable-diameter bounds along a parameter sequence.

    ``mode="CD"`` uses 2*sqrt(2)/sqrt(K_n) * sqrt(2/kappa - 1); ``mode="CDstar"``
    uses 2*log(2/kappa)/sqrt(-K_n N_n) + 2*log(2)/sqrt(K_n).  Entries with
    K_n <= 0 get an infinite bound.  Returns (values, levy_flag): the flag is
    set when the finite tail is strictly decreasing and decays below
    ``LEVY_DECAY`` times its first value.
    """
    if not 0 < kappa < 1:
        raise ValidationError(f"kappa must lie in (0,1), got {kappa}")
    K = np.asarray(K_list, dtype=float)
    N = np.asarray(N_list, dtype=float)
    if K.shape != N.shape:
        raise ValidationError("K and N sequences must have equal length")
    if not np.all(N < 0):
        raise ValidationError("dimension parameters must be negative")
    if not np.all(np.isfinite(K)):
        raise ValidationError("every K must be finite")
    vals = np.full(K.shape, math.inf)
    pos = K > 0
    if mode == "CD":
        vals[pos] = 2.0 * math.sqrt(2.0) / np.sqrt(K[pos]) * math.sqrt(2.0 / kappa - 1.0)
    elif mode == "CDstar":
        vals[pos] = (2.0 * math.log(2.0 / kappa) / np.sqrt(-K[pos] * N[pos])
                     + 2.0 * math.log(2.0) / np.sqrt(K[pos]))
    else:
        raise ValidationError(f"mode must be CD or CDstar, got {mode!r}")
    finite = vals[np.isfinite(vals)]
    flag = (finite.size >= 2 and bool(np.all(np.diff(finite) < 0))
            and finite[-1] <= LEVY_DECAY * finite[0])
    return vals, flag
