"""Centralised tolerances, budgets and run configuration.

Every numerical tolerance used by the library lives here so that reports can
record the exact settings they were produced with.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances, grouped by what they guard."""

    structural: float = 1e-12      # symmetry, triangle inequality, weight sums
    solver: float = 1e-10          # LP feasibility / duality gap (relative)
    mass_1d: float = 1e-8          # quadrature mass of a 1D density
    interp_mass: float = 1e-6      # mass drift allowed in displacement interpolation
    entropy: float = 1e-9          # slack in entropy inequalities
    quadrature_rel: float = 1e-8   # doubling-quadrature relative convergence


@dataclass(frozen=True)
class RunConfig:
    """Run-wide settings serialised into every report."""

    tolerances: Tolerances = Tolerances()
    # combinatorial budgets (hard caps; beyond them certified-bound mode is used)
    n_exact_partial_diam: int = 18
    n_exact_separation: int = 14
    # observable-diameter witness family
    obsdiam_witness_subsets: int = 16
    obsdiam_witness_potentials: int = 32
    # curvature-dimension check grids and budget tol(h) = c1*h + c2*h^2,
    # applied relative to the entropy scale of the cell being checked.
    # The defaults are the output of experiments.calibrate_cd_budget on the
    # cosh-density positive control at grid sizes 256 and 512 (the measured
    # worst negative relative margin sits at rounding level, so the fit
    # lands on the c1 floor).
    t_grid_size: int = 9
    cd_budget_c1: float = 1e-9
    cd_budget_c2: float = 0.0
    # convexity check: tolerance c*h^2 + slack with c estimated from the
    # fourth difference of the data, times this safety factor
    convexity_safety: float = 2.0
    convexity_slack: float = 1e-9
    # Levy verdicts
    levy_threshold: float = 0.05
    levy_decay: float = 0.1
    # quadrature / probe resolutions
    volume_points_per_unit: int = 256
    volume_growth_factor: float = 1.5
    cd_quad_order: int = 12
    # reproducibility
    seed: int = 0
    output_dir: str = "reports"

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        tol = d.pop("tolerances", None)
        cfg = cls(**{k: v for k, v in d.items() if k in _CONFIG_FIELDS})
        if tol is not None:
            cfg = cfg.replace(tolerances=Tolerances(**tol))
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def default_config() -> RunConfig:
    """Default configuration."""
    return RunConfig()
