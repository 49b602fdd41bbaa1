"""Exception types shared across the library."""


class MmLabError(Exception):
    """Base class for all library errors."""


class ValidationError(MmLabError, ValueError):
    """An input violates a structural invariant (shape, symmetry, mass, ...)."""


class ZeroMassSet(MmLabError, ValueError):
    """Conditioning or averaging on a set of zero reference mass."""


class InvalidDimension(ValidationError):
    """A dimension parameter is outside the supported range (here: N < 0)."""


class SolverFailure(MmLabError, RuntimeError):
    """An optimisation backend failed or could not certify optimality."""


class NonSegment(MmLabError, ValueError):
    """A segment-only operation received a circle space."""


class DegenerateDensity(MmLabError, ValueError):
    """A density vanishes on an interior cell of its support."""


class DomainError(MmLabError, ValueError):
    """A closed-form expression was evaluated outside its domain."""


class ConvexityViolation(MmLabError, ValueError):
    """A construction failed its convexity certification."""


class QuadratureNonConvergent(MmLabError, RuntimeError):
    """Doubling quadrature did not reach the requested relative tolerance."""
