"""Exception hierarchy shared across the package.

Every error raised on purpose derives from RieszcapError so callers can
catch library failures without swallowing programming errors.  The CLI maps
these onto its exit codes.
"""


class RieszcapError(Exception):
    """Base class for all rieszcap errors."""


class GeometryError(RieszcapError, ValueError):
    """Degenerate geometric input: coincident points, zero kernel argument."""


class DomainError(RieszcapError, ValueError):
    """Parameter outside the mathematically supported range."""


class SizeCapError(RieszcapError, ValueError):
    """A request exceeds a size limit, checked before anything is built:
    a generator's atom cap, or the memory budget (``measures._check_bytes``)."""


class MeasureFormatError(RieszcapError, ValueError):
    """Measure file or payload does not match the documented schema."""


class UnsupportedExponentError(RieszcapError, ValueError):
    """Radial integral diverges for the requested exponent combination."""


class EmptyRestrictionError(RieszcapError, ValueError):
    """A restriction step removed every atom of a measure."""


class ToleranceNotMetError(RieszcapError, RuntimeError):
    """Adaptive quadrature hit its subdivision cap before the tolerance."""
