"""Exception types shared across the package, one per CLI outcome.

Numerical routines never return silently-degraded values: when a value
cannot be certified they raise PrecisionError carrying the strategy that was
attempted; the message says why.
"""


class LinnikError(Exception):
    """Base class for all package errors."""


class DomainError(LinnikError, ValueError):
    """Argument outside what the operation takes, a pole of Gamma among them."""


class PrecisionError(LinnikError, ArithmeticError):
    """A value could not be certified.

    The attribute strategy names the evaluation strategy that was attempted
    ("gauss-kronrod", the Bessel path "hankel" or "series", or "double" for a
    part of the formula whose value leaves double range); the message gives
    the reason, and for the quadrature its error estimate and tolerance.
    """

    def __init__(self, message, strategy):
        self.strategy = strategy
        super().__init__(message)


class ZeroTableError(LinnikError, ValueError):
    """Zero-table parse or validation failure; carries line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
