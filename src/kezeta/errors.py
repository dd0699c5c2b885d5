"""Shared exception taxonomy.

Every error that callers are expected to branch on gets its own class so the
CLI can map failures onto its exit-code contract (cli.EXIT_OK ... cli.EXIT_MISMATCH).
"""


class KeZetaError(Exception):
    """Base class for all package errors."""


class ValidationError(KeZetaError):
    """Malformed input: bad shapes, out-of-range parameters, broken invariants."""


class PoleError(KeZetaError):
    """A function was evaluated exactly at a pole."""


class CoincidenceError(KeZetaError):
    """Two configuration points (or a point and a marked point) collide."""


class StabilityError(KeZetaError):
    """Operation refused because the curve is not Gibbs stable."""


class ThresholdError(KeZetaError):
    """Operation refused because beta is at or below the finiteness threshold."""


class ConvergenceError(KeZetaError):
    """An iterative solver failed to reach its tolerance."""


class GridTooCoarseError(ValidationError):
    """An axial grid does not meet the minimum resolution for the operation."""
