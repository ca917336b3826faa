"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class,
named for its cause, so that the CLI can map them onto stable exit codes:
2 for invalid input, 3 for a positivity (Herglotz) violation, 1 for the rest.
"""


class TodaError(Exception):
    """Base class for all package-specific errors."""


class InvalidData(TodaError, ValueError):
    """Malformed input: shape mismatches, broken orderings, bad JSON payloads."""


class ConvergenceFailure(TodaError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class AtPole(TodaError):
    """Evaluation of a rational function too close to one of its poles."""


class NotHerglotz(TodaError):
    """A rational function fails positivity: some residue is not positive."""


class Breakdown(TodaError):
    """Orthogonalization produced a vector with vanishing norm."""


class InterlacingViolated(TodaError):
    """Divisor points do not strictly interlace the given poles."""


class NoHerglotzSolution(TodaError):
    """No positive rational function is compatible with the requested data."""


class CoincidentArguments(TodaError):
    """A two-point bracket formula was called on the diagonal: the arguments
    are closer than the separation threshold and the limit is not taken."""


class ConstraintDegenerate(TodaError):
    """The constraint pairing used for the reduced bracket is numerically
    singular at this point."""


class Overflow(TodaError):
    """An exponent guard tripped: the requested evaluation would overflow."""


class StepTooLarge(TodaError):
    """Integration step produced a spectral drift above the safety bound."""


class PrecisionLimit(TodaError):
    """Valid data beyond float64: distinct eigenvalues closer than the
    rounding of their magnitude, which the computation cannot hold apart,
    spectral weights whose recurrence sums overflow, or spectral data whose
    reconstruction overflows."""
