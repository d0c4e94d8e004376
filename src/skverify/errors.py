"""Exception types shared across the engine.

Every failure mode the verification layer distinguishes gets its own class so
callers (and the report writer) can tell degenerate input apart from a genuine
verification failure.
"""


class SkverifyError(Exception):
    """Base class for all engine errors."""


class UnsupportedOrderError(SkverifyError):
    """Root-of-unity order not dividing 12."""


class ShapeError(SkverifyError):
    """Operands live in different ambients (generator count, degree, variable count)."""


class ParameterError(SkverifyError):
    """Degenerate or out-of-range family parameters."""


class DegreeError(SkverifyError):
    """Degree outside the supported window."""


class NotASubrepError(SkverifyError):
    """Subspace is not stable under the group action."""


class RepresentationInvalidError(SkverifyError):
    """Matrices violate the group presentation, or a character fails integrality."""


class OffCurveError(SkverifyError):
    """Point does not satisfy the curve equation."""


class SingularCurveError(SkverifyError):
    """Curve parameters fail the smoothness criterion."""


class RankError(SkverifyError):
    """A point has no successor on the point scheme, or no unique one."""


class VerificationError(SkverifyError):
    """An identity the engine promises to certify failed to hold."""


class SamplingExhaustedError(SkverifyError):
    """Rejection sampling gave up (degenerate region of parameter space)."""
