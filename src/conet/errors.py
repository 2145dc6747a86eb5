"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """Malformed user-facing input (text or JSON)."""


class NonSquare(ValueError):
    """A square matrix was required."""


class InconsistentSystem(ValueError):
    """A linear system has no solution."""


class ZeroForm(ValueError):
    """An identically zero form where a nonzero one is required."""


class DegreeMismatch(ValueError):
    """Operands have incompatible degrees."""


class NotThreeDimensional(ValueError):
    """A net of conics must span a 3-dimensional space."""


class GenericityFailure(RuntimeError):
    """No form in a fixed finite search reached a generic configuration."""


class Indeterminate(RuntimeError):
    """A probe bound was exhausted before the answer stabilized."""


class InconsistentConfiguration(RuntimeError):
    """Computed invariants match no row of the classification table."""


class UnclassifiedCubic(RuntimeError):
    """Computed invariants of a cubic match no known singularity type."""


class FamilyMismatch(AssertionError):
    """A specialization family failed its expected orbit behaviour."""


class DualityMismatch(AssertionError):
    """Orthogonal complements do not pair orbits as expected."""


class VerificationFailure(AssertionError):
    """A deformation/smoothing verification did not check out."""


class InvalidParameters(ValueError):
    """Parameters outside the allowed range for a family."""
