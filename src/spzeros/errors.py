"""Exception types shared across the package."""


class SPZerosError(Exception):
    """Base class for all library errors."""


class NonConvergence(SPZerosError):
    """An iteration hit its cap before reaching the requested tolerance."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class FixedPointViolation(SPZerosError):
    """The supplied point is not a fixed point of the polynomial."""


class NoRepellingFixedPoint(SPZerosError):
    """No fixed point with |P'(b)| > 1 near the supplied hint."""


class ZeroFixedPoint(SPZerosError):
    """The fixed point is zero, which the product construction excludes."""


class DegreeTooLow(SPZerosError):
    """The polynomial must have degree at least 2."""


class InvalidIndices(SPZerosError):
    """Bell polynomial indices out of range or argument list too short.

    Also raised for an address digit at or above the degree d.
    """


class ZeroDenominator(SPZerosError):
    """Q vanished along an inverse orbit; input system is corrupted.

    Raised while expanding the address tree, and by g0_and_derivative when
    f' vanishes at g_0(w).
    """


class DivergentTail(SPZerosError):
    """Geometric tail bound diverges: d |a|^-m >= 1."""


class DivergentMoment(SPZerosError):
    """The requested momentum sum does not converge absolutely."""


class OrderTooLarge(SPZerosError):
    """Factorization requires genus zero, i.e. d < |a|."""


class AmbiguousClustering(SPZerosError):
    """Cluster separation too close to the linkage threshold to trust."""


class ParseError(SPZerosError):
    """Problem file is not syntactically valid JSON."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(SPZerosError):
    """Problem file parsed but violates a declared constraint."""
