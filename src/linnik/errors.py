"""Exception types shared across the package, one per CLI outcome.

Each is its type and its message, with no other attributes. Numerical
routines never return silently-degraded values: a value in double range that
cannot be certified raises PrecisionError, and a value past double range
raises DomainError; the message says why.
"""


class LinnikError(Exception):
    """Base class for all package errors."""


class DomainError(LinnikError, ValueError):
    """Argument outside what the operation takes: a pole of Gamma, or a value
    past double range among them."""


class PrecisionError(LinnikError, ArithmeticError):
    """A value in double range could not be certified; the message gives the
    reason, and for the quadrature its error estimate and tolerance."""


class ZeroTableError(LinnikError, ValueError):
    """Zero-table parse or validation failure; the message names the line
    ("line 3: ...") when there is one."""
