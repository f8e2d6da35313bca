"""Exception types raised by the fracfield package.

Every failure mode that callers are expected to handle has a named type here.
Anything else escaping the package is a bug.
"""


class FracfieldError(Exception):
    """Base class for all package-specific errors."""


class BadShapeParams(FracfieldError):
    """Shape parameters are geometrically invalid (nonpositive lengths, r >= R, ...)."""


class EmptyMask(FracfieldError):
    """Grid spacing too coarse: the interior mask has fewer nodes than required."""


class DomainMismatch(FracfieldError):
    """A field or basis was combined with an object built on a different domain."""


class EigSolveFailure(FracfieldError):
    """The dense symmetric eigendecomposition failed or produced invalid modes."""


class QuadratureFailure(FracfieldError):
    """A quadrature's internal error estimate exceeded its accuracy contract."""


class NonpositiveField(FracfieldError):
    """An operation required a field with nontrivial positive part, got none."""


class AllStartsFailed(FracfieldError):
    """Every multistart seed failed to produce a converged solution."""


class NonmonotoneLevels(FracfieldError):
    """Levels expected to decrease strictly with domain size did not."""


class BallDoesNotFit(FracfieldError):
    """A translated ball seed does not fit inside the target domain."""


class ConstraintViolated(FracfieldError):
    """Penalty continuation ended with the barycenter constraint out of tolerance."""


class SaddleNotEscaped(FracfieldError):
    """The pinned level's descent kept converging to saddles of the penalized objective."""


class OffManifold(FracfieldError):
    """A computation assumed a Nehari-manifold point but |J(u)| was too large."""


class ConfigInvalid(FracfieldError):
    """A run configuration failed validation. The message names the offending field."""


class TaskFailed(FracfieldError):
    """A CLI task failed for a non-configuration reason."""
