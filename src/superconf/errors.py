"""Exception taxonomy.

Every failure mode callers are expected to branch on gets its own class; the
CLI maps them onto exit codes (2 usage/precondition, 3 numerical, 4 I/O).
"""


class SuperconfError(Exception):
    """Base class for all library errors."""


class ExpressionError(SuperconfError):
    """Curve expression failed to parse."""

    def __init__(self, message, line=1, col=1, expected=()):
        super().__init__(message)
        self.line = line
        self.col = col
        self.expected = tuple(expected)

    def __str__(self):
        base = super().__str__()
        loc = f" at line {self.line}, column {self.col}"
        if self.expected:
            return f"{base}{loc} (expected {', '.join(self.expected)})"
        return base + loc


class EvaluationError(SuperconfError):
    """A curve or surface could not be evaluated at the requested point."""

    def __init__(self, message, reason=None, where=None, z=None):
        super().__init__(message)
        self.reason = reason
        self.where = where
        self.z = z


class DomainError(EvaluationError):
    """Requested point (or a finite-difference stencil around it) leaves the
    declared parameter domain."""


class DegenerateJetError(SuperconfError):
    """Jet division or root hit the magnitude floor."""


class BranchCutError(SuperconfError):
    """log or sqrt evaluated on its branch cut."""


class SingularSampleError(SuperconfError):
    """Surface sample is rank deficient (first-form determinant at floor)."""

    def __init__(self, message, det=None):
        super().__init__(message)
        self.det = det


class FrameUndefinedError(SuperconfError):
    """Adapted frame does not exist (minimal point or umbilic point)."""


class FrameDegenerateError(SuperconfError):
    """Construction scaffold degenerates (conjugate surface vanishes)."""


class PreconditionError(SuperconfError):
    """Caller violated a documented precondition."""


class NotNullCurveError(PreconditionError):
    """Operation requires a curve lying in the null quadric."""


class UnknownEntryError(SuperconfError, KeyError):
    """Catalog lookup failed."""

    def __str__(self):
        return SuperconfError.__str__(self)


class InversionSingularError(SuperconfError):
    """Inversion evaluated on its singular locus."""


class DualitySingularError(SuperconfError):
    """Duality map evaluated where the position vector is tangent."""


class ProjectionError(SuperconfError):
    """Stereographic projection input off its manifold or outside its ball."""
