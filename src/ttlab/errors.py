"""Typed errors shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic ValueError is reserved for programming mistakes.
"""


class TTLabError(Exception):
    """Base class for all package errors."""


class MalformedGraph(TTLabError):
    """Ribbon graph structure data is inconsistent."""


class LowValence(TTLabError):
    """A vertex of valence <= 2 where valence >= 3 is required."""


class OddValence(TTLabError):
    """An odd valence where an even one is required."""


class NonPositiveLength(TTLabError):
    pass


class NonPositiveHeight(TTLabError):
    pass


class OutOfRange(TTLabError):
    pass


class InvalidConfig(TTLabError):
    """A multicurve configuration failed validation."""


class InvalidAssignment(TTLabError):
    """A spine assignment does not fit its configuration."""


class InvalidSurface(TTLabError):
    pass


class BadIndex(TTLabError):
    pass


class ModeMismatch(TTLabError):
    """An operation was asked to mix exact and numeric arithmetic."""


class NotPants(TTLabError):
    """Operation requires a pants decomposition."""


class NonLiftable(TTLabError):
    """A curve failed to lift to the double cover (cocycle bug guard)."""


class BadPartition(TTLabError):
    """Cone-order multiset does not fit the genus."""


class NotAbelianSquare(TTLabError):
    """Spin parity requested for a surface that is not jointly orientable."""


class NoSpinStructure(TTLabError):
    """The square root has a zero of odd order, so no parity exists."""


class RadiusTooSmall(TTLabError):
    """Search radius below the shortest edge; nothing can be found."""


class CrossCheckFailed(TTLabError):
    """Two independent routes to the same quantity disagree."""


class SpanNotCertified(TTLabError):
    """Spin-parity loop generation failed to span first homology."""


class ZeroLengthForced(TTLabError):
    """Gluing constraints force some edge length to zero or below."""


class ParseError(TTLabError):
    """Torus-spec file syntax or consistency error, with line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
