"""Typed errors shared across the package, and how numbers are spelled.

Every failure mode that callers are expected to branch on gets its own
class; generic ValueError is reserved for programming mistakes.

str() refuses an integer with more digits than
sys.get_int_max_str_digits().  Report lines and spec files must be
exact, so _fmt raises OutOfRange for such a number; an error message
only has to be read, so _spell names it by its size instead.
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


class UsageError(TTLabError):
    """An argument list that does not fit the command line's grammar."""


class ParseError(TTLabError):
    """Torus-spec file syntax or consistency error, with line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _fmt(value, key):
    """One canonical spelling per value type, for the value of key in a
    report line or a spec file.  Raises OutOfRange naming key when an
    integer has more digits than str() may print."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (tuple, list)):
        return ", ".join(_fmt(v, key) for v in value)
    try:
        return str(value)
    except ValueError:
        raise OutOfRange(f"{key} has too many digits to print") from None


def _report(pairs):
    """The text of report lines "key = value", one per (key, value) pair."""
    return "".join(f"{key} = {_fmt(value, key)}\n" for key, value in pairs)


def _spell(value):
    """value as an error message shows it, a list or tuple item by item.
    Never raises: a number too long for str() reads by its size, as in
    "a negative 5001-digit integer"."""
    if isinstance(value, (tuple, list)):
        return ", ".join(map(_spell, value))
    try:
        return str(value)
    except ValueError:
        num, den = value.as_integer_ratio()
    sign = "negative " if num < 0 else ""
    if den == 1:
        return f"a {sign}{_digits(num)}-digit integer"
    return f"a {sign}fraction of {_digits(num)} over {_digits(den)} digits"


def _digits(n):
    """The number of decimal digits of the integer n, without str()."""
    n = abs(n)
    digits = n.bit_length() * 3 // 10  # at most the count: log10(2) > 0.3
    while n >= 10 ** digits:
        digits += 1
    return max(digits, 1)
