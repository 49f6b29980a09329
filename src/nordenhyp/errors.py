"""Exception hierarchy shared by all modules."""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class DegenerateMetric(GeometryError):
    """A bilinear form used as a metric has an eigenvalue inside the zero band."""


class ArityMismatch(GeometryError):
    """Number of vector arguments does not match the form's rank."""


class DimensionMismatch(GeometryError):
    """Operands live over spaces of different dimension."""


class BadIndex(GeometryError):
    """Tensor family index outside the defined range."""


class NotConstructive(GeometryError):
    """The requested class has no closed-form representative (F6)."""


class DegenerateSection(GeometryError):
    """Sectional-curvature denominator within tolerance of zero."""


class WrongSectionKind(GeometryError):
    """The supplied plane is not of the kind the closed form assumes."""


class DependentVectors(GeometryError):
    """Two vectors meant to span a plane are linearly dependent."""


class NotTimelike(GeometryError):
    """Normal vector fails g'(N, N) = -1."""


class DegenerateTangentMetric(GeometryError):
    """The metric restricted to the tangent space of the hypersurface is degenerate."""


class InconsistentStructure(GeometryError):
    """Input tensor violates the structure identities it should satisfy."""


class DegenerateFlat(GeometryError):
    """The solver radicand is too small for a stable branch."""


class NonFiniteInput(GeometryError, ValueError):
    """Input data holds a NaN or an infinity; raised where data enters, not inside."""


class NoAcceptableCandidate(GeometryError):
    """Every candidate slot of a trial's row failed its rejection test."""
