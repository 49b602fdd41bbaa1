"""Fixed numerical tolerances and the run configuration.

The tolerances are constants, each defined once here and never changed at
run time.  ``RunConfig`` holds the only settings a run may choose (the CD
discretisation budget and the seed); every report records them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .errors import ValidationError

STRUCTURAL_TOL = 1e-12      # symmetry, triangle inequality, weight sums
SOLVER_TOL = 1e-10          # LP feasibility / duality gap (relative)
MASS_1D_TOL = 1e-8          # quadrature mass of a 1D density
INTERP_MASS_TOL = 1e-6      # mass drift allowed in displacement interpolation
ENTROPY_TOL = 1e-9          # slack in entropy inequalities
QUADRATURE_REL_TOL = 1e-8   # doubling-quadrature relative convergence
DENSITY_MASS_TOL = 1e-6     # mass of the density samples of a 1D space


@dataclass(frozen=True)
class RunConfig:
    """Run-wide settings serialised into every report."""

    # curvature-dimension budget tol(h) = c1*h + c2*h^2, applied relative to
    # the entropy scale of the cell being checked.  The defaults are the
    # output of experiments.calibrate_cd_budget on the cosh-density positive
    # control at grid sizes 256 and 512 (the measured worst negative relative
    # margin sits at rounding level, so the fit lands on the c1 floor).
    cd_budget_c1: float = 1e-9
    cd_budget_c2: float = 0.0
    # reproducibility
    seed: int = 0

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValidationError("a config document must be a JSON object")
        unknown = sorted(set(d) - _CONFIG_FIELDS)
        if unknown:
            raise ValidationError(
                f"unknown config keys {', '.join(unknown)}; the settable keys "
                f"are {', '.join(sorted(_CONFIG_FIELDS))}")
        for key, value in d.items():
            _check_config_value(key, value)
        return cls(**d)

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _check_config_value(key: str, value) -> None:
    """``seed`` is a nonnegative int, the budget coefficients finite reals;
    JSON booleans are neither."""
    from .core import _require  # core imports this module, so not at the top
    if key == "seed":
        ok = type(value) is int and value >= 0
        want = "a nonnegative integer"
    else:
        ok = type(value) is int or (type(value) is float and math.isfinite(value))
        want = "a finite number"
    _require(ok, f"config key {key}", f"must be {want}", repr(value))


def default_config() -> RunConfig:
    """Default configuration."""
    return RunConfig()
