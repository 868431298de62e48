"""Exception types shared across the package.

Numerical routines never return silently-degraded values: when a requested
tolerance cannot be certified they raise PrecisionError carrying the strategy
that was attempted and the error estimate that was achieved.
"""


class LinnikError(Exception):
    """Base class for all package errors."""


class TableSizeError(LinnikError, ValueError):
    """Requested table is empty or too large to allocate."""


class DomainError(LinnikError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested at a pole; carries the offending integer."""

    def __init__(self, pole, message=None):
        self.pole = pole
        super().__init__(message or f"gamma pole at non-positive integer {pole}")


class PrecisionError(LinnikError, ArithmeticError):
    """Requested tolerance could not be certified.

    Attributes:
        strategy: evaluation strategy that was attempted
        achieved: error estimate that the strategy could certify
        requested: tolerance asked of the strategy: the quadrature's abs_tol,
            or on a Bessel path ("hankel" or "series") specfun's relative
            target 1e-10, which a value either path returns meets with a
            wide margin
    """

    def __init__(self, message, strategy=None, achieved=None, requested=None):
        self.strategy = strategy
        self.achieved = achieved
        self.requested = requested
        super().__init__(message)


class QuadratureError(PrecisionError):
    """Adaptive quadrature failed to converge within its budget."""


class ZeroTableError(LinnikError, ValueError):
    """Zero-table parse or validation failure; carries line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
