"""Optimal transport and measure-comparison solvers.

Covers the exact quadratic-cost transportation problem on finite spaces (LP
certified by a primal-dual bracket), monotone quantile transport and
displacement interpolation for piecewise-constant densities on segments and
circles, the Prokhorov distance through coupling feasibility, and the Ky Fan
metric.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from types import SimpleNamespace

import numpy as np

from .config import (
    DENSITY_MASS_TOL,
    ENTROPY_TOL,
    INTERP_MASS_TOL,
    MASS_1D_TOL,
    SOLVER_TOL,
    STRUCTURAL_TOL,
)
from .core import (
    Coupling,
    FiniteMmSpace,
    _reject_entries,
    _require,
    _space_weights,
    first_feasible,
    float_array,
    json_count,
    json_field,
    json_object,
    json_real,
    prob_weights,
    row_masks,
    subset_sums,
    subset_transform,
)
from .errors import (
    DegenerateDensity,
    NonSegment,
    SolverFailure,
    ValidationError,
)

__all__ = [
    "WeightedOneDimSpace",
    "interval_mass",
    "TransportPlanReport",
    "w2_exact",
    "w2_quantile_1d",
    "w2_circle_quantile",
    "displacement_interpolate_1d",
    "prokhorov",
    "prokhorov_from_distances",
    "ky_fan",
    "discretize",
    "PiecewiseQuantile",
    "MonotonePlan",
]


# ---------------------------------------------------------------------------
# one-dimensional weighted spaces


@dataclass(frozen=True)
class WeightedOneDimSpace:
    """A segment or circle carrying a density sampled on a uniform grid.

    ``log_density`` holds log(d mu / d length) on each of the M cells of the
    uniform partition of [0, total_length] into cells of width
    ``h = total_length / M``; ``grid`` gives their centers.  Densities are
    treated as piecewise constant on cells, and the declared quadrature rule
    is the midpoint rule ``mass = h * sum(exp(log_density))``, which must
    equal 1 within ``MASS_1D_TOL``.
    For circles ``total_length`` is the circumference.
    """

    kind: str
    total_length: float
    log_density: np.ndarray

    def __post_init__(self):
        _require(self.kind in ("segment", "circle"), "kind",
                 "must be segment or circle", repr(self.kind))
        ld = np.asarray(self.log_density, dtype=float).copy()
        if ld.ndim != 1 or ld.size < 1:
            raise ValidationError("log_density must be a nonempty vector")
        _reject_entries(~(np.isnan(ld) | (ld == np.inf)),
                        "log_density must not contain NaN or +inf "
                        "(-inf marks empty cells)", "log_density", ld)
        L = float(self.total_length)
        _require(L > 0 and math.isfinite(L), "total_length", "must be positive", L)
        mass = float(np.exp(ld).sum() * (L / ld.size))
        if abs(mass - 1.0) > MASS_1D_TOL:
            raise ValidationError(
                f"density mass {mass!r} deviates from 1 beyond {MASS_1D_TOL}")
        ld.flags.writeable = False
        object.__setattr__(self, "total_length", L)
        object.__setattr__(self, "log_density", ld)

    @property
    def m(self) -> int:
        return self.log_density.size

    @property
    def h(self) -> float:
        return self.total_length / self.m

    @cached_property
    def grid(self) -> np.ndarray:
        """The M cell centers (arclength coordinates)."""
        grid = (np.arange(self.m) + 0.5) * self.h
        grid.flags.writeable = False
        return grid

    @property
    def cell_edges(self) -> np.ndarray:
        return np.concatenate([self.grid - self.h / 2.0, [self.grid[-1] + self.h / 2.0]])

    @property
    def density(self) -> np.ndarray:
        return np.exp(self.log_density)

    @property
    def cell_masses(self) -> np.ndarray:
        return np.exp(self.log_density) * self.h

    def validate_density(self, rho) -> np.ndarray:
        """Density samples (per length) on this grid, with mass 1 within
        ``DENSITY_MASS_TOL``."""
        rho = np.asarray(rho, dtype=float)
        if rho.shape != self.grid.shape:
            raise ValidationError("density samples must match the space grid")
        _reject_entries(np.isfinite(rho) & (rho >= 0),
                        "density samples must be finite and nonnegative",
                        "rho", rho)
        mass = float(rho.sum() * self.h)
        if abs(mass - 1.0) > DENSITY_MASS_TOL:
            raise ValidationError(
                f"density mass {mass!r} deviates from 1 beyond {DENSITY_MASS_TOL}")
        return rho

    @classmethod
    def from_density(cls, kind: str, total_length: float, m: int,
                     density) -> "WeightedOneDimSpace":
        """Sample a density callable (or array) on the cell centers."""
        _require(m >= 1, "m", "must be at least 1", m)
        h = float(total_length) / m
        grid = (np.arange(m) + 0.5) * h
        rho = np.asarray(density(grid) if callable(density) else density, dtype=float)
        if rho.shape != grid.shape:
            raise ValidationError("density samples must match the grid")
        _reject_entries(~(rho <= 0), "density samples must be positive; use "
                        "masses 0 through measures on a sub-grid instead",
                        "density", rho)
        return cls(kind, float(total_length), np.log(rho))

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "total_length": float(self.total_length),
            "grid_size": int(self.m),
            "log_density": [float(v) for v in self.log_density],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WeightedOneDimSpace":
        what = "1D space document"
        doc = json_object(text, what)
        if "kind" not in doc:
            raise ValidationError(f"{what} is missing 'kind'")
        L = json_field(doc, "total_length", json_real, what)
        m = json_field(doc, "grid_size", json_count, what)
        ld = json_field(doc, "log_density", float_array, what)
        if ld.size != m:
            raise ValidationError(
                f"log_density has {ld.size} samples for grid_size {m}"
            )
        return cls(doc["kind"], L, ld)


def interval_mass(space: WeightedOneDimSpace, lo: float, hi: float) -> float:
    """Mass of a coordinate interval under the piecewise-constant density."""
    _require(not math.isnan(lo), "lo", "must be a number", lo)
    _require(not math.isnan(hi), "hi", "must be a number", hi)
    edges = space.cell_edges
    overlap = np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo),
                      0.0, None)
    return float(np.sum(overlap * space.density))


def discretize(space: WeightedOneDimSpace) -> FiniteMmSpace:
    """Atoms at cell centers with cell masses; circle metric where relevant."""
    x = space.grid
    if space.kind == "segment":
        dist = np.abs(x[:, None] - x[None, :])
    else:
        d = np.abs(x[:, None] - x[None, :])
        dist = np.minimum(d, space.total_length - d)
    w = space.cell_masses
    w = w / w.sum()
    return FiniteMmSpace(tuple(range(space.m)), dist, w)


# ---------------------------------------------------------------------------
# piecewise-linear quantile functions


@dataclass(frozen=True)
class PiecewiseQuantile:
    """Left-continuous quantile function, affine on mass intervals.

    ``breaks`` are cumulative masses (0 = b_0 < ... < b_k = 1); on
    (b_{j-1}, b_j] the quantile moves affinely from x_lo[j-1] to x_hi[j-1].
    Atomic measures use x_lo == x_hi.  ``cells`` maps each piece back to the
    originating grid cell (or atom) index.
    """

    breaks: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    cells: np.ndarray

    @classmethod
    def from_cells(cls, lo: np.ndarray, hi: np.ndarray,
                   masses: np.ndarray) -> "PiecewiseQuantile":
        """Quantile of the masses of cells sorted along the line, uniform on
        cell i from ``lo[i]`` to ``hi[i]`` (an atom when they are equal);
        cells of mass 0 give no piece.  With every mass positive nothing is
        compressed, and ``x_lo`` and ``x_hi`` are views of ``lo`` and ``hi``."""
        pos = masses > 0
        keep = slice(None) if pos.all() else pos
        w = masses[keep]
        total = w.sum()
        if total <= 0:
            raise ValidationError("measure has zero total mass")
        cum = np.empty(w.size + 1)
        cum[0] = 0.0
        np.cumsum(w, out=cum[1:])
        cum /= total
        cum[-1] = 1.0
        return cls(cum, lo[keep], hi[keep], np.flatnonzero(pos))

    def piece_of(self, u: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breaks, u, side="right")
        idx -= 1
        return np.clip(idx, 0, self.breaks.size - 2, out=idx)

    def affine_at(self, u: np.ndarray, piece: np.ndarray) -> np.ndarray:
        b0 = self.breaks[piece]
        span = self.breaks[piece + 1] - b0
        # a piece of zero mass width sits at its low end
        frac = np.divide(u - b0, span, out=np.zeros(np.broadcast(u, span).shape),
                         where=span > 0)
        x_lo = self.x_lo[piece]
        return x_lo + frac * (self.x_hi[piece] - x_lo)


# ---------------------------------------------------------------------------
# the monotone transport plan between two densities


def _merge(q0: PiecewiseQuantile, q1: PiecewiseQuantile):
    """Mass intervals on which both quantiles are affine, as ``(ends, p0,
    p1, x0, x1)``: rows of interval low and high ends, the piece of each
    quantile that each interval lies in, and Q0 and Q1 at ``ends``.

    The breaks of both quantiles are sorted together; a break they share
    gives an interval of zero width, which ``b > a`` drops as it drops the
    zero-width pieces of either quantile."""
    breaks = np.sort(np.concatenate((q0.breaks, q1.breaks)))
    a, b = breaks[:-1], breaks[1:]
    keep = b > a
    ends = np.stack((a[keep], b[keep]))
    mid = 0.5 * (ends[0] + ends[1])
    p0 = q0.piece_of(mid)
    p1 = q1.piece_of(mid)
    return ends, p0, p1, q0.affine_at(ends, p0), q1.affine_at(ends, p1)


def _sq_cost(a, b, d_a, d_b) -> float:
    """Integral of d^2 over the intervals [a, b], where d runs affinely from
    d_a to d_b on each.  d^2 is quadratic there, whether or not d changes
    sign, so Simpson's rule gives it exactly."""
    d_mid = 0.5 * (d_a + d_b)
    return float(np.sum((b - a) / 6.0
                        * (d_a * d_a + 4.0 * d_mid * d_mid + d_b * d_b)))


@dataclass(frozen=True)
class MonotonePlan:
    """Monotone (quantile) coupling of two densities, built once per pair.

    The quantiles ``q0`` and ``q1`` of the two densities are merged
    (``_merge``): the mass axis [0, 1] is cut into intervals on which both
    are affine.  Interval j spans masses [u_lo[j], u_hi[j]] and lies in
    piece p0[j] of ``q0`` and p1[j] of ``q1``; over it Q0 runs from x0_lo[j]
    to x0_hi[j] and Q1 from x1_lo[j] to x1_hi[j].  The displacement Q0 - Q1
    may change sign inside an interval; ``signed_pieces`` splits it there
    for the quadrature that needs one sign.  A circle is cut open at its
    grid origin; callers rotate the densities to move the cut.
    """

    space: WeightedOneDimSpace
    rho0: np.ndarray
    rho1: np.ndarray
    q0: PiecewiseQuantile
    q1: PiecewiseQuantile
    u_lo: np.ndarray
    u_hi: np.ndarray
    x0_lo: np.ndarray
    x0_hi: np.ndarray
    x1_lo: np.ndarray
    x1_hi: np.ndarray
    p0: np.ndarray
    p1: np.ndarray

    @classmethod
    def build(cls, space: WeightedOneDimSpace, rho0, rho1, *,
              model: str = "cells") -> "MonotonePlan":
        """Plan of two densities per length on the space grid.

        ``model="cells"`` treats them as piecewise constant per cell;
        ``model="atoms"`` puts each cell's mass at its center.
        """
        rho0 = space.validate_density(rho0)
        rho1 = space.validate_density(rho1)
        if model == "cells":
            edges = space.cell_edges
            lo, hi = edges[:-1], edges[1:]
        elif model == "atoms":
            lo = hi = space.grid
        else:
            raise ValidationError(f"unknown quantile model {model!r}")
        q0 = PiecewiseQuantile.from_cells(lo, hi, rho0 * space.h)
        q1 = PiecewiseQuantile.from_cells(lo, hi, rho1 * space.h)
        (u_lo, u_hi), p0, p1, (x0_lo, x0_hi), (x1_lo, x1_hi) = _merge(q0, q1)
        return cls(space, rho0, rho1, q0, q1, u_lo, u_hi, x0_lo, x0_hi,
                   x1_lo, x1_hi, p0, p1)

    def signed_pieces(self):
        """The intervals split where the displacement Q0 - Q1 changes sign,
        so that it keeps one sign on each piece.  Returns five arrays: the
        mass width of each piece, the displacement at its low and at its
        high end, and the cells (or atoms) of ``q0`` and of ``q1`` it comes
        from."""
        a, b = self.u_lo, self.u_hi
        d_a = self.x0_lo - self.x1_lo
        d_b = self.x0_hi - self.x1_hi
        cross = d_a * d_b < 0
        at = np.flatnonzero(cross)
        root = a[at] + (b[at] - a[at]) * d_a[at] / (d_a[at] - d_b[at])
        d_root = (self.q0.affine_at(root, self.p0[at])
                  - self.q1.affine_at(root, self.p1[at]))
        # interval i with a root becomes [a, root] followed by [root, b]
        cells = np.stack((self.q0.cells[self.p0], self.q1.cells[self.p1]))
        return (np.insert(b, at, root) - np.insert(a, at + 1, root),
                np.insert(d_a, at + 1, d_root), np.insert(d_b, at, d_root),
                *np.repeat(cells, 1 + cross, axis=1))

    def sq_distance(self) -> float:
        """Exact integral of (Q0 - Q1)^2 du: ``_sq_cost`` over the
        intervals."""
        return _sq_cost(self.u_lo, self.u_hi, self.x0_lo - self.x1_lo,
                        self.x0_hi - self.x1_hi)

    def interpolate(self, t: float) -> np.ndarray:
        """Cell densities of the monotone-map interpolant at fraction ``t``.

        The exact interpolant is piecewise constant on the intervals, resampled
        onto the grid by exact cell averaging; at t = 0 and t = 1 it is the
        endpoint density itself.
        """
        _require(0.0 <= t <= 1.0, "t", "must lie in [0,1]", t)
        for rho in (self.rho0, self.rho1):
            if np.any(np.diff(np.flatnonzero(rho > 0)) > 1):
                raise DegenerateDensity(
                    "density vanishes on an interior grid cell of its support")
        if t == 0.0:
            return self.rho0.copy()
        if t == 1.0:
            return self.rho1.copy()
        space = self.space
        edges, h, m = space.cell_edges, space.h, space.m
        lo = (1.0 - t) * self.x0_lo + t * self.x1_lo
        hi = (1.0 - t) * self.x0_hi + t * self.x1_hi
        mass = self.u_hi - self.u_lo
        # an interval narrower than `tiny` is a point mass at its middle
        tiny = 1e-15 * max(space.total_length, 1.0)
        point = hi - lo <= tiny
        cell_of = lambda x: np.clip((x - edges[0]) // h, 0, m - 1)  # noqa: E731
        c_lo = np.where(point, cell_of(0.5 * (lo + hi)), cell_of(lo)).astype(np.intp)
        c_hi = np.where(point, cell_of(0.5 * (lo + hi)), cell_of(hi)).astype(np.intp)
        # interval j adds to cells c_lo[j]..c_hi[j]: its whole mass when that is
        # one cell, else the two partial overlaps and dens * h in between
        wide = c_hi > c_lo
        dens = mass / np.where(wide, hi - lo, 1.0)
        counts = c_hi - c_lo + 1
        first = np.cumsum(counts) - counts
        cells = np.repeat(c_lo - first, counts) + np.arange(counts.sum())
        vals = np.repeat(dens * h, counts)
        vals[first[~wide]] = mass[~wide]
        vals[first[wide]] = dens[wide] * (edges[c_lo[wide] + 1] - lo[wide])
        vals[(first + counts - 1)[wide]] = dens[wide] * (hi[wide] - edges[c_hi[wide]])
        # bincount adds in interval order, as a loop over them would
        out = np.bincount(cells, weights=vals, minlength=m)
        total = out.sum()
        if abs(total - 1.0) > INTERP_MASS_TOL:
            raise SolverFailure(f"interpolant lost mass: total {total!r}")
        return out / h


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class TransportPlanReport:
    """Outcome of a transport computation.

    ``lower`` <= ``upper`` bracket the squared optimal cost: the dual and
    primal bounds of ``w2_exact``, or both the closed-form value of a
    quantile transport.  ``upper`` is the squared cost of the coupling
    returned (for a quantile transport, the monotone one), so ``value`` =
    sqrt(``upper``) is that coupling's cost.
    """

    coupling: Coupling | None
    lower: float
    upper: float
    iterations: int
    method: str

    @property
    def value(self) -> float:
        return math.sqrt(max(self.upper, 0.0))

    @property
    def dual_gap(self) -> float:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# exact transportation LP
#
# HiGHS is called through the pybind11 extension that scipy bundles
# (``scipy.optimize._highspy._core``, since scipy 1.15).  ``_highs`` loads
# that one extension on the first LP, not ``scipy.optimize``, whose import
# (``scipy.linalg``, ``numpy.f2py`` and more) costs dozens of times as much;
# commands that solve no LP (most of the CLI) load neither.  ``linprog``
# stays the one module-level name that tracers and tests rebind.
#
# Its options, in HiGHS's names and values, are those of scipy's
# method="highs-ds" (simplex_strategy 1: the dual simplex) with presolve
# off, which gains a transportation LP nothing and called some valid ones
# infeasible (total masses a few ulp apart), and tolerances that only keep
# the gap small: the certificate in ``w2_exact`` decides acceptance.
_HIGHS_OPTIONS = {"presolve": "off", "solver": "simplex",
                  "simplex_strategy": 1, "highs_debug_level": 0,
                  "output_flag": False, "log_to_console": False,
                  "primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}
# HiGHS counts columns, rows and nonzeros in int32
_INT32_MAX = np.iinfo(np.int32).max
_HIGHS_MODULE = "scipy.optimize._highspy._core"
# per thread: (extension module, options items, its _Highs solver)
_SOLVERS = threading.local()


def _highs():
    """The HiGHS extension module: the one in ``sys.modules`` if any (say,
    ``scipy.optimize`` was imported first), else the file itself, loaded
    without its parent packages and registered under its full name, so
    that a later ``import scipy.optimize`` reuses it rather than register
    its pybind11 types a second time."""
    module = sys.modules.get(_HIGHS_MODULE)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    root = scipy.submodule_search_locations[0] if scipy else "scipy"
    # EXTENSION_SUFFIXES[0] is the interpreter's EXT_SUFFIX
    path = os.path.join(root, "optimize", "_highspy",
                        "_core" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"the HiGHS extension {path} is missing; "
                          "mmlab needs scipy >= 1.15", path=path)
    spec = importlib.util.spec_from_file_location(
        _HIGHS_MODULE, path, loader=ExtensionFileLoader(_HIGHS_MODULE, path))
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


def _solver(highs):
    """This thread's HiGHS solver: built on the thread's first LP, with
    ``_HIGHS_OPTIONS`` passed once, and kept while ``highs`` is the same
    module and the options hold the same items; either change builds a new
    one.  ``passModel`` replaces the whole model and clears the basis and
    solution, so a kept solver solves each LP as a fresh one would."""
    options = tuple(_HIGHS_OPTIONS.items())
    kept = getattr(_SOLVERS, "kept", None)
    if kept is not None and kept[0] is highs and kept[1] == options:
        return kept[2]
    settings = highs.HighsOptions()
    for key, value in options:
        setattr(settings, key, value)
    solver = highs._Highs()
    if solver.passOptions(settings) == highs.HighsStatus.kError:
        raise ValueError("HiGHS rejected its options")
    _SOLVERS.kept = (highs, options, solver)
    return solver


def linprog(c, A_eq, b_eq):
    """min c.x subject to A_eq x = b_eq, x >= 0, by one HiGHS solve under
    ``_HIGHS_OPTIONS`` on this thread's solver (``_solver``): bit for bit
    the result of ``scipy.optimize.linprog`` with ``bounds=(0, None)``,
    ``method="highs-ds"`` and those options in scipy's spelling, without
    its argument parsing and result assembly.

    ``A_eq`` is CSC ``(indptr, indices, data)`` with the rows of each
    column in increasing order.  More columns, rows or nonzeros than int32
    counts, and options or a model that HiGHS rejects, raise ``ValueError``.

    The result has ``status`` (0 when HiGHS reports the model optimal, else
    1), ``message`` (HiGHS's name for the model status) and ``nit`` (simplex
    iterations); on success also ``x``, ``fun`` and ``row_dual``.
    """
    indptr, indices, data = A_eq
    n, nnz = c.size, int(indptr[-1])
    if max(n, b_eq.size, nnz) > _INT32_MAX:
        raise ValueError(f"the LP has {n} columns, {b_eq.size} rows and "
                         f"{nnz} nonzeros; HiGHS counts to {_INT32_MAX}")
    highs = _highs()
    solver = _solver(highs)
    # the array form of passModel takes each buffer whole, where filling a
    # HighsLp field by field copies it one element at a time; it requires
    # an integrality array, all zeros (continuous), not an empty one
    if solver.passModel(
            n, b_eq.size, nnz, highs.MatrixFormat.kColwise,
            highs.ObjSense.kMinimize, 0.0, c, np.zeros(n),
            np.full(n, highs.kHighsInf), b_eq, b_eq,
            indptr.astype(np.int32), indices.astype(np.int32), data,
            np.zeros(n, np.int32)) == highs.HighsStatus.kError:
        raise ValueError("HiGHS rejected the LP")
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    res = SimpleNamespace(status=1, message=solver.modelStatusToString(status),
                          nit=info.simplex_iteration_count, x=None, fun=None,
                          row_dual=None)
    if status == highs.HighsModelStatus.kOptimal:
        solution = solver.getSolution()
        res.status = 0
        res.x = np.array(solution.col_value)
        res.fun = info.objective_function_value
        res.row_dual = np.array(solution.row_dual)
    return res


def _round_to_marginals(plan: np.ndarray, r: np.ndarray,
                        c: np.ndarray) -> np.ndarray:
    """ROUND (Altschuler, Weed & Rigollet, NeurIPS 2017, Alg. 2): scale
    rows above ``r`` and then columns above ``c`` down to them, and add the
    missing mass as the rank-one term err_r err_c^T / |err_c|_1.  The result
    is nonnegative with row sums ``r`` and column sums ``c``, up to rounding
    and the difference of their totals."""
    plan = np.maximum(plan, 0.0)
    rs = plan.sum(axis=1)
    plan *= np.divide(r, rs, out=np.ones_like(r), where=rs > r)[:, None]
    cs = plan.sum(axis=0)
    plan *= np.divide(c, cs, out=np.ones_like(c), where=cs > c)[None, :]
    err_r = np.maximum(r - plan.sum(axis=1), 0.0)
    err_c = np.maximum(c - plan.sum(axis=0), 0.0)
    total = float(err_c.sum())
    if total > 0.0:
        plan += np.outer(err_r, err_c / total)
    return plan


def w2_exact(space: FiniteMmSpace, mu, nu) -> TransportPlanReport:
    """Quadratic-cost transport distance via the transportation LP.

    One HiGHS dual-simplex solve without presolve, on the marginal rows of
    ``mu`` and of ``nu`` rescaled to the same total, less the last (it is
    implied).  The result is certified by a bracket on the squared cost:

    * ``lower`` = u.mu + v.nu, from the LP's row duals u and their
      c-transform v_j = min_i (c_ij - u_i), a dual-feasible pair by
      construction, so ``lower`` bounds every coupling's cost from below;
    * ``upper`` = the cost of the LP plan rounded onto the exact marginals
      (``_round_to_marginals``), a coupling that ``Coupling`` accepts.

    When ``|upper - lower|`` exceeds ``SOLVER_TOL`` times the cost scale,
    or ``Coupling`` rejects the rounded plan, ``SolverFailure`` is raised.
    A float dual bound can pass the primal cost by rounding; ``lower`` is
    then reported as ``upper``, so the bracket never inverts.  ``value`` is
    sqrt(``upper``), the cost of the coupling returned.
    """
    mu = _space_weights(mu, space.n)
    nu = _space_weights(nu, space.n)
    sa = np.flatnonzero(mu > 0)
    sb = np.flatnonzero(nu > 0)
    wa, wb = mu[sa], nu[sb]
    cost = space.dist[np.ix_(sa, sb)] ** 2
    na, nb = sa.size, sb.size
    # CSC of the row-major plan: column i nb + j holds row i (plan row sum
    # i), then row na + j (plan column sum j) unless j = nb - 1
    rows = np.stack(np.broadcast_arrays(np.arange(na)[:, None],
                                        na + np.arange(nb)), axis=-1)
    keep = rows < na + nb - 1
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=-1).ravel())))
    A_eq = (indptr, rows[keep], np.ones(int(indptr[-1])))
    b_eq = np.concatenate([wa, (wb * (wa.sum() / wb.sum()))[:-1]])
    res = linprog(cost.ravel(), A_eq, b_eq)
    if res.status != 0:
        raise SolverFailure(f"transport LP failed: {res.message}")
    u = res.row_dual[:na]
    v = (cost - u[:, None]).min(axis=0)
    lower = float(u @ wa + v @ wb)
    rounded = _round_to_marginals(res.x.reshape(na, nb), wa, wb)
    upper = float(np.sum(rounded * cost))
    gap = abs(upper - lower)
    scale = max(float(cost.max(initial=0.0)), 1.0)
    if gap > SOLVER_TOL * scale:
        raise SolverFailure(f"primal-dual gap {gap:.3e} exceeds tolerance")
    plan = np.zeros((space.n, space.n))
    plan[np.ix_(sa, sb)] = rounded
    try:
        coupling = Coupling(plan, mu, nu, marginal_tol=SOLVER_TOL * 10)
    except ValidationError as e:  # the solver's plan, not the input, is at fault
        raise SolverFailure(f"transport plan fails its certificate: {e}") from e
    return TransportPlanReport(coupling=coupling, lower=min(lower, upper),
                               upper=upper, iterations=int(res.nit),
                               method="lp-highs-ds")


# ---------------------------------------------------------------------------
# one-dimensional transport


def w2_quantile_1d(space: WeightedOneDimSpace, rho0, rho1, *,
                   model: str = "cells") -> TransportPlanReport:
    """Monotone transport cost on a segment via quantile functions.

    ``model="cells"`` treats the densities as piecewise constant per cell
    (the continuum measure, evaluated exactly); ``model="atoms"`` collapses
    each cell to a point mass at its center, which matches the transportation
    LP on the discretized atoms to solver precision.
    """
    if space.kind != "segment":
        raise NonSegment("quantile transport requires a segment space")
    plan = MonotonePlan.build(space, rho0, rho1, model=model)
    sq = plan.sq_distance()
    return TransportPlanReport(coupling=None, lower=sq, upper=sq,
                               iterations=0, method=f"quantile-{model}")


def w2_circle_quantile(space: WeightedOneDimSpace, rho0, rho1):
    """Cheapest monotone coupling over the grid cuts of a circle.

    Cutting both densities at a cell boundary and transporting monotonically
    along the resulting segment gives a coupling of the circle measures; the
    value is the cheapest over the m boundary cuts.  It is an upper bound on
    circle W2, not always attained: the optimal cut may fall inside a cell.

    Returns ``(value, cut_index)``; the cut is a cell boundary index, and
    among cuts within 1e-12 relative of the minimum (exact ties round apart
    by a few ulp) the smallest index is taken.

    Each cut is priced by ``_sq_cost`` on the merge of the cell quantiles
    cut open there, the chain ``MonotonePlan.build`` runs: the plan of the
    rotated densities reports the same value.  Cut c reads the window
    ``[c, c + m)`` of the cell masses laid out twice, which is the masses
    rotated by c cells, without a copy per cut.
    """
    if space.kind != "circle":
        raise ValidationError("cut search applies to circle spaces")
    edges = space.cell_edges
    lo, hi = edges[:-1], edges[1:]
    m = space.m
    twice0 = np.tile(space.validate_density(rho0) * space.h, 2)
    twice1 = np.tile(space.validate_density(rho1) * space.h, 2)
    vals = np.empty(m)
    for cut in range(m):
        ends, _, _, x0, x1 = _merge(
            PiecewiseQuantile.from_cells(lo, hi, twice0[cut:cut + m]),
            PiecewiseQuantile.from_cells(lo, hi, twice1[cut:cut + m]))
        vals[cut] = _sq_cost(*ends, *(x0 - x1))
    best = vals.min()
    cut = int(np.flatnonzero(vals <= best + 1e-12 * abs(best))[0])
    return math.sqrt(max(vals[cut], 0.0)), cut


def displacement_interpolate_1d(space: WeightedOneDimSpace, rho0, rho1,
                                t: float) -> np.ndarray:
    """Density of the monotone-map interpolant at fraction ``t`` (see
    ``MonotonePlan.interpolate``).  For circles the caller must supply
    densities already aligned so transport does not cross the grid boundary
    (an optimal cut has been selected upstream)."""
    return MonotonePlan.build(space, rho0, rho1).interpolate(t)


# ---------------------------------------------------------------------------
# Prokhorov distance via coupling feasibility


# Hall's formula enumerates the 2**k subsets of the smaller support
HALL_MAX_ATOMS = 12


def _max_close_mass(allowed: np.ndarray, wa: np.ndarray, wb: np.ndarray,
                    warm=None, target: float = math.inf):
    """Largest sub-coupling mass supported on allowed pairs: a bipartite
    max-flow, by Hall's formula when one support has at most
    ``HALL_MAX_ATOMS`` atoms and by augmenting paths otherwise.

    The mass is exact unless augmenting paths reach ``target`` first: then
    they stop, and the mass is that of a certified sub-coupling, at least
    ``target`` and at most the maximum.  Returns the mass and the flow state
    behind it (None unless augmenting paths ran), which is a feasible
    ``warm`` start for any larger allowed set of the same shape."""
    if allowed.all():
        return 1.0, None
    if not allowed.any():
        return 0.0, None
    if min(allowed.shape) <= HALL_MAX_ATOMS:
        return _hall_close_mass(allowed, wa, wb), None
    return _flow_close_mass(allowed, wa, wb, warm, target)


def _hall_close_mass(allowed: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> float:
    """Max-flow/min-cut in Hall's deficiency form (Ford & Fulkerson 1956).

    With k atoms on the smaller side S, the maximal close mass is the
    minimum over U ⊆ S of w(U) + w(atoms of the larger side with an allowed
    partner outside U).  Each larger-side atom is bucketed by the bitmask of
    its allowed partners, so one zeta transform gives the weight of atoms
    whose partners all lie in U, for every U at once, and ``subset_sums``
    gives w(U): O(n k + k 2^k).
    """
    if allowed.shape[0] <= allowed.shape[1]:
        allowed, wa, wb = allowed.T, wb, wa
    k = allowed.shape[1]
    inside = subset_transform(
        np.bincount(row_masks(allowed), weights=wa, minlength=1 << k), k, np.add)
    small = subset_sums(wb)
    return float(np.min(small + (inside[-1] - inside)))


def _flow_close_mass(allowed: np.ndarray, wa: np.ndarray, wb: np.ndarray,
                     warm=None, target: float = math.inf):
    """Max-flow from the row atoms (masses ``wa``) to the column atoms
    (``wb``) through the allowed pairs, by shortest augmenting paths
    (Edmonds & Karp 1972), or a flow of at least ``target``.

    The source arcs carry ``wa``, the sink arcs ``wb``, and every allowed
    pair is an arc of unbounded capacity.  A greedy fill row by row starts
    the flow, on top of ``warm`` (the state returned for a smaller allowed
    set) if given; breadth-first searches over the dense ``allowed`` matrix
    then augment it until the sink is out of reach.  The mass returned is
    the capacity of the cut that the last search leaves, a sum of input
    masses, certified against the flow by ``_certify_flow``: the exact
    maximum.  If the flow's mass reaches ``target`` after the greedy fill
    or after an augmentation, it stops there and returns that mass,
    certified by ``_certify_partial_flow``: a lower bound on the maximum,
    enough to show that the maximum reaches ``target``.

    Returns ``(mass, (flow, rs, rt))``, with ``rs`` and ``rt`` the residual
    source and sink capacities.  Every residual that an augmentation uses up
    is ``x - x``, exactly 0, so each augmentation saturates an arc and the
    O(VE) bound on their number holds in floating point.
    """
    if warm is None:
        flow, rs, rt = np.zeros(allowed.shape), wa.copy(), wb.copy()
    else:
        flow, rs, rt = (a.copy() for a in warm)
    for i in np.flatnonzero(rs > 0):
        for j in np.flatnonzero(allowed[i] & (rt > 0)):
            d = min(rs[i], rt[j])
            flow[i, j] += d
            rs[i] -= d
            rt[j] -= d
            if rs[i] == 0:
                break
    while flow.sum() < target:
        rows, cols, row_from, col_from, sink = _augmenting_search(
            allowed, flow, rs, rt)
        if sink < 0:
            return _certify_flow(allowed, wa, wb, flow, rows, cols), (flow, rs, rt)
        # walk back: column j entered from row i, row i from column
        # col_from[i] along a flow arc, up to a row with source residual
        fi, fj, bi, bj = [], [], [], []
        j = sink
        while True:
            i = row_from[j]
            fi.append(i)
            fj.append(j)
            if col_from[i] < 0:
                break
            j = col_from[i]
            bi.append(i)
            bj.append(j)
        delta = min(rs[i], rt[sink], *flow[bi, bj])
        rs[i] -= delta
        rt[sink] -= delta
        flow[fi, fj] += delta
        flow[bi, bj] -= delta
    return _certify_partial_flow(allowed, wa, wb, flow, target), (flow, rs, rt)


def _augmenting_search(allowed: np.ndarray, flow: np.ndarray, rs: np.ndarray,
                       rt: np.ndarray):
    """Breadth-first search of the residual graph from every row with source
    residual.  Rows reach their allowed columns; columns reach the rows that
    send them flow.  Stops at the first layer holding a column with sink
    residual and returns (rows reached, columns reached, the row each
    column was reached from, the column each row was reached from or -1,
    that sink column or -1)."""
    na, nb = allowed.shape
    rows = rs > 0
    cols = np.zeros(nb, dtype=bool)
    row_from = np.full(nb, -1)
    col_from = np.full(na, -1)
    front = np.flatnonzero(rows)
    while front.size:
        reach = allowed[front] & ~cols
        new = np.flatnonzero(reach.any(axis=0))
        if not new.size:
            break
        row_from[new] = front[reach[:, new].argmax(axis=0)]
        cols[new] = True
        hit = new[rt[new] > 0]
        if hit.size:
            return rows, cols, row_from, col_from, int(hit[0])
        back = (flow[:, new] > 0) & ~rows[:, None]
        front = np.flatnonzero(back.any(axis=1))
        col_from[front] = new[back[front].argmax(axis=1)]
        rows[front] = True
    return rows, cols, row_from, col_from, -1


def _subcoupling_mass(allowed: np.ndarray, wa: np.ndarray, wb: np.ndarray,
                      flow: np.ndarray) -> float:
    """``flow.sum()``, once ``flow`` is certified a sub-coupling on the
    allowed pairs: nonnegative, zero off them, and within each marginal by
    ``STRUCTURAL_TOL``.  ``SolverFailure`` otherwise."""
    tol = STRUCTURAL_TOL
    if flow.min() < 0.0 or flow[~allowed].any():
        raise SolverFailure("close-mass flow is negative or off the allowed pairs")
    if (flow.sum(axis=1) > wa + tol).any() or (flow.sum(axis=0) > wb + tol).any():
        raise SolverFailure("close-mass flow exceeds a marginal")
    return float(flow.sum())


def _certify_flow(allowed: np.ndarray, wa: np.ndarray, wb: np.ndarray,
                  flow: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """Capacity of the cut with the reached ``rows`` and ``cols`` on the
    source side, certified as the max-flow by ``flow``: the cut crosses no
    allowed pair, the flow is a sub-coupling on allowed pairs, and its mass
    matches the cut's within ``STRUCTURAL_TOL`` (weak duality then pins
    both).  ``SolverFailure`` otherwise."""
    if allowed[np.ix_(rows, ~cols)].any():
        raise SolverFailure("close-mass cut crosses an allowed pair")
    mass = _subcoupling_mass(allowed, wa, wb, flow)
    cut = float(wa[~rows].sum() + wb[cols].sum())
    gap = abs(mass - cut)
    if gap > STRUCTURAL_TOL:
        raise SolverFailure(f"close-mass flow misses its cut by {gap:.3e}")
    return cut


def _certify_partial_flow(allowed: np.ndarray, wa: np.ndarray,
                          wb: np.ndarray, flow: np.ndarray,
                          target: float) -> float:
    """Mass of ``flow``, certified as a sub-coupling on allowed pairs of at
    least ``target``, so the max-flow reaches ``target`` too.
    ``SolverFailure`` otherwise."""
    mass = _subcoupling_mass(allowed, wa, wb, flow)
    if not mass >= target:
        raise SolverFailure(
            f"close-mass flow {mass:.17g} stops below its target {target:.17g}")
    return mass


def prokhorov_from_distances(dist: np.ndarray, wa, wb) -> float:
    """Smallest eps admitting a coupling with mass at most eps on pairs
    farther than eps, for probability weights ``wa`` and ``wb`` and the
    finite, nonnegative ``len(wa) x len(wb)`` block ``dist`` between their
    atoms.

    The feasible set only changes at pairwise distances, so the infimum is
    found exactly: binary search over sorted distances for the first
    candidate ``d_k`` with ``F_k >= 1 - d_k`` (``F_k`` the maximal coupling
    mass on pairs within ``d_k``), then compare with the crossing point
    ``1 - F_{k-1}`` of the previous piece.  ``F_k`` is a bipartite max-flow:
    exact by Hall's formula when either support has at most
    ``HALL_MAX_ATOMS`` atoms, otherwise by augmenting paths.  A step that
    fails is solved exactly, to its cut, and its flow starts every later
    step (allowed sets only grow with the threshold); so is ``F_{k-1}``,
    the last step that fails.  A step that passes stops at a flow
    certificate, a sub-coupling on the allowed pairs with mass at least
    ``1 - d_k - ENTROPY_TOL``.
    """
    wa = prob_weights(wa)
    wb = prob_weights(wb)
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (wa.size, wb.size):
        raise ValidationError(f"distance block of shape {dist.shape} does not "
                              f"match {wa.size} x {wb.size} weights")
    _reject_entries(np.isfinite(dist) & (dist >= 0.0),
                    "distances must be finite and nonnegative", "dist", dist)
    if dist.shape[0] > dist.shape[1]:  # the smaller support on the rows
        dist, wa, wb = np.ascontiguousarray(dist.T), wb, wa
    cands = np.unique(np.concatenate([[0.0], dist.ravel()]))
    warm = None
    last_fail = None  # F of the last step that failed

    def feasible(k: int) -> bool:
        nonlocal warm, last_fail
        target = 1.0 - cands[k] - ENTROPY_TOL
        mass, flow = _max_close_mass(dist <= cands[k], wa, wb, warm, target)
        if mass >= target:
            return True
        warm, last_fail = flow, mass
        return False

    # the last candidate is feasible: all mass lies within the max distance;
    # the last step that first_feasible found infeasible is hi - 1
    hi = first_feasible(feasible, cands.size)
    if hi == 0:
        return float(cands[0])
    crossing = 1.0 - last_fail
    return float(min(cands[hi], max(crossing, 0.0)))


def prokhorov(space: FiniteMmSpace, mu, nu) -> float:
    """Prokhorov distance between two weight vectors on a common space."""
    mu = _space_weights(mu, space.n)
    nu = _space_weights(nu, space.n)
    sa = np.flatnonzero(mu > 0)
    sb = np.flatnonzero(nu > 0)
    return prokhorov_from_distances(space.dist[np.ix_(sa, sb)], mu[sa], nu[sb])


# ---------------------------------------------------------------------------
# Ky Fan metric


def ky_fan(weights, f, g) -> float:
    """Exact infimum of eps with mass(|f - g| > eps) <= eps.

    The survival function is a step function of eps, so the infimum is either
    a jump location or the crossing point of a constant piece.  The samples
    must be finite; the first that is not is named.
    """
    w = prob_weights(weights)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != w.shape or g.shape != w.shape:
        raise ValidationError("function samples must match the weights")
    for name, v in (("f", f), ("g", g)):
        _reject_entries(np.isfinite(v), "function samples must be finite",
                        name, v)
    gaps = np.abs(f - g)
    order = np.argsort(gaps, kind="stable")
    gs = gaps[order]
    ws = w[order]
    levels, first = np.unique(gs, return_index=True)
    csum = np.cumsum(ws)
    last = np.append(first[1:], gs.size) - 1
    mass_above = 1.0 - csum[last]  # mass with gap strictly above each level
    if levels[0] > 0.0:
        levels = np.concatenate([[0.0], levels])
        mass_above = np.concatenate([[1.0], mass_above])
    # a candidate counts if it lies on its level's constant piece; the last
    # piece runs to infinity, so at least one does
    cand = np.maximum(levels, mass_above)
    nxt = np.append(levels[1:], math.inf)
    return float(cand[(cand < nxt) | (cand == levels)].min())
