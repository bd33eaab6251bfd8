"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(ValueError):
    """Matrix or vector dimensions are inconsistent."""


class GeometryError(ValueError):
    """A scene geometry is invalid (coincident dipoles, dipole on a mirror plane, ...)."""


class ResolutionError(ValueError):
    """A wave basis or quadrature grid is too small for the requested accuracy."""


class SolveError(RuntimeError):
    """A linear solve failed (singular or numerically unusable operator)."""
