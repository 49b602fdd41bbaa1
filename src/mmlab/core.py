"""Core value types: finite metric measure spaces, weights, couplings.

All types are immutable after construction and all operations are pure, so
values can be shared freely between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .config import STRUCTURAL_TOL
from .errors import InvalidDimension, ValidationError, ZeroMassSet

__all__ = [
    "json_object",
    "json_field",
    "float_array",
    "json_real",
    "json_count",
    "prob_weights",
    "FiniteMmSpace",
    "Coupling",
    "condition_measure",
    "pushforward",
    "partition_average",
    "subset_diameter",
    "subset_diameters",
    "subset_sums",
    "as_index_array",
    "line_embedding",
    "first_feasible",
    "row_masks",
    "subset_transform",
]


def json_object(text: str, what: str) -> dict:
    """Decode ``text``, which must hold a JSON object; ``what`` names the
    document in the error."""
    doc = json.loads(text)
    _require(isinstance(doc, dict), what, "must be a JSON object",
             type(doc).__name__)
    return doc


def json_field(doc: dict, key: str, convert, what: str):
    """``convert(doc[key])``.  A missing key, or the ``ValueError``,
    ``TypeError`` or ``OverflowError`` of the conversion (a ragged list, a
    string where numbers belong, ``int`` of Infinity), raises
    ``ValidationError`` naming ``what`` and the key."""
    if key not in doc:
        raise ValidationError(f"{what} is missing {key!r}")
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"{what} field {key!r}: {e}") from e


def float_array(value) -> np.ndarray:
    """``value`` as a float array, the conversion ``json_field`` wraps."""
    return np.asarray(value, dtype=float)


def json_real(value) -> float:
    """``float(value)`` for ``json_field``; a JSON boolean is no number."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    return float(value)


def json_count(value) -> int:
    """``int(value)`` for ``json_field``; a JSON boolean or a fraction is no
    count (``int`` would read ``true`` as 1 and truncate 2.7 to 2)."""
    n = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and n != value):
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return n


def _require(ok, name: str, rule: str, value, error=ValidationError) -> None:
    """Raise ``error(f"{name} {rule}, got {value}")`` unless ``ok``.  Write
    ``ok`` as the set of allowed values (``theta >= 0``, not
    ``not theta < 0``), so that NaN fails it."""
    if not ok:
        raise error(f"{name} {rule}, got {value}")


def _check_finite(value: float, name: str = "K") -> None:
    # a NaN curvature fails every branch test and reads as 0
    _require(math.isfinite(value), name, "must be finite", value)


def _check_dimension(N: float, name: str = "N") -> None:
    """The negative-dimension rule N < 0, as ``InvalidDimension``."""
    _require(N < 0, name, "must be negative", N, InvalidDimension)


def _reject_entries(ok: np.ndarray, rule: str, name: str, values,
                    error=ValidationError) -> None:
    """Raise ``error(f"{rule}, {name}[i] = {value}")`` at the first entry, in
    C order, where ``ok`` is False; return at once when every entry is ok.
    A matrix entry is named ``name[i, j]``."""
    if ok.all():
        return
    idx = np.unravel_index(int(np.argmin(ok)), ok.shape)
    where = ", ".join(str(int(i)) for i in idx)
    raise error(f"{rule}, {name}[{where}] = {values[idx]}")


def prob_weights(values) -> np.ndarray:
    """Validate a probability weight vector and return a read-only copy.

    Weights must be nonnegative and sum to 1 within ``STRUCTURAL_TOL``.
    """
    w = np.asarray(values, dtype=float).copy()
    if w.ndim != 1:
        raise ValidationError(f"weights must be a vector, got shape {w.shape}")
    if w.size == 0:
        raise ValidationError("weights must be nonempty")
    _reject_entries(np.isfinite(w), "weights must be finite", "weights", w)
    _reject_entries(w >= 0, "weights must be nonnegative", "weights", w)
    s = float(w.sum())
    if abs(s - 1.0) > STRUCTURAL_TOL:
        raise ValidationError(
            f"weights must sum to 1 within {STRUCTURAL_TOL}, got sum {s!r}")
    w.flags.writeable = False
    return w


def _space_weights(mu, n: int) -> np.ndarray:
    """``prob_weights(mu)``, one weight per point of an n-point space."""
    mu = prob_weights(mu)
    if mu.size != n:
        raise ValidationError(f"{mu.size} weights for {n} points")
    return mu


def as_index_array(subset, n: int) -> np.ndarray:
    """Normalise a point subset (indices or boolean mask) to sorted indices."""
    a = np.asarray(subset)
    if a.dtype == bool:
        if a.shape != (n,):
            raise ValidationError(f"boolean mask must have length {n}")
        return np.flatnonzero(a)
    idx = np.unique(a.astype(int))
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise ValidationError(f"subset indices out of range for n = {n}")
    return idx


def line_embedding(dist: np.ndarray) -> np.ndarray | None:
    """Coordinates x with dist[i,j] = |x_i - x_j| if the metric is a line
    metric within ``STRUCTURAL_TOL / 4`` (relative to the largest distance),
    else None."""
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    if n <= 1:
        return np.zeros(n)
    a = int(np.argmax(dist.max(axis=1)))
    x = dist[a].copy()
    scale = max(float(dist.max()), 1.0)
    # one n x n buffer: ||x_i - x_j| - dist[i,j]|
    gap = np.subtract.outer(x, x)
    np.abs(gap, out=gap)
    gap -= dist
    np.abs(gap, out=gap)
    if gap.max() <= STRUCTURAL_TOL / 4 * scale:
        return x
    return None


def first_feasible(pred, n: int) -> int:
    """Smallest k < n with ``pred(k)``, for a predicate monotone in k that
    holds at n - 1.  Asks ``pred(0)`` first, then bisects: at most
    1 + ceil(log2(n - 1)) calls, and ``pred(n - 1)`` only when n = 1."""
    if pred(0):
        return 0
    lo, hi = 0, n - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def row_masks(rel: np.ndarray) -> np.ndarray:
    """Each row of a boolean relation as a bitmask: bit j of entry i is
    ``rel[i, j]``."""
    return rel.astype(np.int64) @ (1 << np.arange(rel.shape[1], dtype=np.int64))


def subset_transform(v: np.ndarray, k: int, op) -> np.ndarray:
    """Zeta transform over k-bit masks: out[U] folds ``op`` over v[m] for
    every m ⊆ U (``np.add`` gives subset sums, ``np.bitwise_or`` unions)."""
    g = v.copy()
    for i in range(k):
        g = g.reshape(-1, 2, 1 << i)
        op(g[:, 1, :], g[:, 0, :], out=g[:, 1, :])
    return g.reshape(-1)


def subset_sums(w: np.ndarray) -> np.ndarray:
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


def subset_diameters(dist: np.ndarray) -> np.ndarray:
    """Diameter of every subset of the points, indexed by bitmask: the
    largest distance, in either direction, between two of its points (the
    diagonal is taken as zero).  Filled point by point: entry 2^i + s, for
    s < 2^i, is the larger of entry s and far[s], the largest distance from
    point i to a point of s, which is built the same way over j < i."""
    dist = np.maximum(dist, dist.T)
    n = dist.shape[0]
    diam = np.zeros(1 << n)
    for i in range(n):
        far = np.zeros(1 << i)
        for j in range(i):
            np.maximum(far[:1 << j], dist[i, j], out=far[1 << j:2 << j])
        np.maximum(diam[:1 << i], far, out=diam[1 << i:2 << i])
    return diam


def _validate_distance_matrix(dist: np.ndarray) -> np.ndarray | None:
    """Check that ``dist`` is a finite pseudometric within ``STRUCTURAL_TOL``
    (relative to the largest distance), naming the offending entry, and
    return ``line_embedding(dist)``: the line coordinates, or None.

    A line metric within a quarter of the tolerance has every triangle
    slack within three quarters of it and every asymmetry within half of
    it, so the O(n^2) line certificate runs before the asymmetry check and,
    when it passes, stands in for that check and the triangle scan.  An
    asymmetric input fails the certificate, so it still reaches the check
    and its message.  The O(n) diagonal check comes first, because one
    point is a line metric whatever its diagonal.  Otherwise the O(n^3)
    scan over every intermediate point decides, and names the first
    violated triple.
    """
    _require(dist.ndim == 2 and dist.shape[0] == dist.shape[1],
             "distance matrix", "must be square", dist.shape)
    if not np.all(np.isfinite(dist)):
        raise ValidationError("distance matrix must be finite")
    if np.any(dist < 0):
        i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
        raise ValidationError(f"negative distance at ({i},{j}): {dist[i, j]}")
    scale = float(dist.max(initial=0.0))
    atol = STRUCTURAL_TOL * max(scale, 1.0)
    if np.any(np.abs(np.diagonal(dist)) > atol):
        i = int(np.argmax(np.abs(np.diagonal(dist))))
        raise ValidationError(f"nonzero diagonal at ({i},{i}): {dist[i, i]}")
    coords = line_embedding(dist)
    if coords is not None:
        return coords
    asym = np.abs(dist - dist.T)
    if asym.max(initial=0.0) > atol:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise ValidationError(
            f"asymmetric distances at ({i},{j}): {dist[i, j]} vs {dist[j, i]}"
        )
    _triangle_scan(dist, atol)
    return None


def _triangle_scan(dist: np.ndarray, atol: float) -> None:
    """Raise on the first triangle slack above ``atol``, checked one
    intermediate point at a time to keep memory at O(n^2)."""
    for k in range(dist.shape[0]):
        slack = dist - (dist[:, k][:, None] + dist[k, :][None, :])
        bad = slack > atol
        if bad.any():
            i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
            raise ValidationError(
                f"triangle inequality violated for (i,j,k) = ({i},{j},{k}): "
                f"d({i},{j}) = {dist[i, j]} > {dist[i, k]} + {dist[k, j]}"
            )


@dataclass(frozen=True)
class FiniteMmSpace:
    """A finite metric measure space: points, distances, probability weights.

    ``line_coords`` keeps the coordinates that validation's line certificate
    found, ``line_embedding(dist)`` bit for bit, read-only, or None when
    ``dist`` is not a line metric.  It is derived from ``dist``, so it takes
    no part in ``==`` or ``repr``.
    """

    point_ids: tuple
    dist: np.ndarray
    weights: np.ndarray
    line_coords: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dist = np.asarray(self.dist, dtype=float).copy()
        coords = _validate_distance_matrix(dist)
        n = dist.shape[0]
        if len(self.point_ids) != n:
            raise ValidationError(
                f"{len(self.point_ids)} point ids for {n}x{n} distance matrix"
            )
        w = _space_weights(self.weights, n)
        dist.flags.writeable = False
        if coords is not None:
            coords.flags.writeable = False
        object.__setattr__(self, "point_ids", tuple(self.point_ids))
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "line_coords", coords)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diam(self) -> float:
        return float(self.dist.max(initial=0.0))

    @classmethod
    def from_points(cls, points, weights) -> "FiniteMmSpace":
        """Build a space from coordinates; Euclidean distances satisfy the
        triangle inequality by construction."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 1 and np.asarray(weights).size != 1:
            pts = pts.T
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        dist = 0.5 * (dist + dist.T)
        np.fill_diagonal(dist, 0.0)
        return cls(tuple(range(pts.shape[0])), dist, weights)

    def to_json(self) -> str:
        doc = {
            "points": list(self.point_ids),
            "dist": [[float(v) for v in row] for row in self.dist],
            "weights": [float(v) for v in self.weights],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FiniteMmSpace":
        what = "space document"
        doc = json_object(text, what)
        return cls(json_field(doc, "points", tuple, what),
                   json_field(doc, "dist", float_array, what),
                   json_field(doc, "weights", float_array, what))


@dataclass(frozen=True)
class Coupling:
    """A nonnegative matrix with prescribed marginals."""

    matrix: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    marginal_tol: float = field(default=1e-10, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        mu = np.asarray(self.mu, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        if m.ndim != 2 or m.shape != (mu.size, nu.size):
            raise ValidationError(
                f"coupling shape {m.shape} does not match marginals "
                f"({mu.size}, {nu.size})"
            )
        if np.any(m < -self.marginal_tol):
            raise ValidationError("coupling has a negative entry")
        row_err = float(np.max(np.abs(m.sum(axis=1) - mu), initial=0.0))
        col_err = float(np.max(np.abs(m.sum(axis=0) - nu), initial=0.0))
        if row_err > self.marginal_tol or col_err > self.marginal_tol:
            raise ValidationError(
                f"coupling marginals off by (rows {row_err:.3e}, cols {col_err:.3e}), "
                f"tolerance {self.marginal_tol:.3e}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "mu", np.array(mu, copy=True))
        object.__setattr__(self, "nu", np.array(nu, copy=True))


def _masses(values, name: str) -> np.ndarray:
    """``values`` as a float array of masses: each finite and nonnegative."""
    values = np.asarray(values, dtype=float)
    _reject_entries(np.isfinite(values) & (values >= 0),
                    "masses must be finite and nonnegative", name, values)
    return values


def condition_measure(mu, subset) -> np.ndarray:
    """Restrict ``mu`` to ``subset`` and renormalise.

    Raises ``ZeroMassSet`` when the subset carries no mass.
    """
    mu = _masses(mu, "mu")
    idx = as_index_array(subset, mu.size)
    mass = float(mu[idx].sum())
    if mass <= 0.0:
        raise ZeroMassSet(f"subset of mass {mass} cannot be conditioned on")
    out = np.zeros_like(mu)
    out[idx] = mu[idx] / mass
    return out


def pushforward(mu, point_map, n_target: int | None = None) -> np.ndarray:
    """Push weights forward along a point map (array of target indices).

    The map must be defined (a valid target index) on the support of ``mu``;
    entries outside the support may be negative placeholders.
    """
    mu = _masses(mu, "mu")
    f = np.asarray(point_map, dtype=int)
    if f.shape != mu.shape:
        raise ValidationError("point map must assign a target to every point")
    support = mu > 0
    if n_target is None:
        n_target = int(f[support].max(initial=-1)) + 1 if support.any() else 0
    if support.any() and (f[support].min() < 0 or f[support].max() >= n_target):
        raise ValidationError("point map leaves the support of the measure")
    out = np.zeros(n_target, dtype=float)
    np.add.at(out, f[support], mu[support])
    return out


def partition_average(nu, partition: Iterable, mu) -> np.ndarray:
    """Average ``nu`` over partition blocks using conditioned copies of ``mu``.

    Returns ``sum_j nu(B_j) * condition_measure(mu, B_j)``.  Blocks must be
    disjoint, ``nu`` must vanish outside their union, and every block that
    carries ``nu``-mass must carry ``mu``-mass.
    """
    nu = _masses(nu, "nu")
    mu = _masses(mu, "mu")
    n = nu.size
    blocks = [as_index_array(b, n) for b in partition]
    covered = np.zeros(n, dtype=bool)
    for b in blocks:
        if covered[b].any():
            raise ValidationError("partition blocks are not disjoint")
        covered[b] = True
    stray = float(nu[~covered].sum())
    if stray > STRUCTURAL_TOL:
        raise ValidationError(
            f"nu carries mass {stray} outside the partition blocks"
        )
    out = np.zeros(n, dtype=float)
    for b in blocks:
        nb = float(nu[b].sum())
        if nb <= 0.0:
            continue
        mb = float(mu[b].sum())
        if mb <= 0.0:
            raise ZeroMassSet(
                f"block with nu-mass {nb} has zero mu-mass"
            )
        out[b] += nb * mu[b] / mb
    return out


def subset_diameter(dist, subset) -> float:
    """Max pairwise distance over a subset; 0 for the empty set and singletons."""
    dist = np.asarray(dist, dtype=float)
    idx = as_index_array(subset, dist.shape[0])
    if idx.size <= 1:
        return 0.0
    sub = dist[np.ix_(idx, idx)]
    return float(sub.max())
