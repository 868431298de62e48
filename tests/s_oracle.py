"""The truncated generating function S(z) = sum_{m >= 1} Lambda(m) e^{-mz}
over a Lambda table and the theta sum omega2(z) = sum_{m >= 1} e^{-m^2 z},
each at complex z with a bound on its tail: the S that the explicit formula
expands over the zeros (zero_oracle.py), which c06 and c07 check, and the
omega of omega^2 S, which c06 checks. The package never evaluates S, and
takes omega at real a only (formula._omega, the probe's)."""

import cmath
import math
from typing import NamedTuple

import numpy as np

from linnik.arithmetic import fsum_complex
from linnik.errors import DomainError


class TruncatedValue(NamedTuple):
    """A truncated series value together with a bound on the discarded tail."""

    value: complex
    tail_bound: float


def _check_right_half_plane(z: complex) -> complex:
    z = complex(z)
    if not (z.real > 0):
        raise DomainError(f"Re(z) must be positive, got {z}")
    return z


def s_tilde(z: complex, cutoff: int, lam: np.ndarray) -> TruncatedValue:
    """Truncated Lambda-weighted exponential sum sum_{m<=cutoff} Lambda(m) e^{-mz},
    over the table lam (limit >= cutoff).

    The tail bound uses Lambda(m) <= log m <= m and the exact geometric sum
    sum_{m>C} m e^{-ma}; it is always <= 2 * cutoff * e^{-cutoff*a} / a in the
    regime cutoff * a >= 2 the precondition calls for.
    """
    z = _check_right_half_plane(z)
    a = z.real
    if cutoff < 1:
        raise DomainError("cutoff must be >= 1")
    if len(lam) - 1 < cutoff:
        raise DomainError("Lambda table shorter than cutoff")

    head = fsum_complex(
        float(lam[m]) * cmath.exp(-m * z) for m in np.flatnonzero(lam[: cutoff + 1]).tolist()
    )

    # sum_{m > C} m e^{-ma} = e^{-a(C+1)} * ((C+1)/(1-q) + q/(1-q)^2), q = e^{-a};
    # 1 - q as -expm1(-a), which stays positive where q rounds to 1 (a < 1.1e-16)
    q = math.exp(-a)
    one_minus_q = -math.expm1(-a)
    tail = math.exp(-a * (cutoff + 1)) * (cutoff + 1 + q / one_minus_q) / one_minus_q
    return TruncatedValue(head, tail)


_THETA_EXPONENT = -math.log(1e-18)


def omega2(z: complex) -> TruncatedValue:
    """Truncated one-sided theta sum sum_{m=1..M} e^{-m^2 z} with tail bound,
    M >= 2 the smallest cutoff with e^{-M^2 Re z} below 1e-18 (M^2 Re z above
    _THETA_EXPONENT)."""
    z = _check_right_half_plane(z)
    a = z.real
    cutoff = max(2, math.isqrt(int(_THETA_EXPONENT / a)) + 1)
    head = fsum_complex(cmath.exp(-(m * m) * z) for m in range(1, cutoff + 1))
    # |e^{-m^2 z}| = e^{-m^2 a}; for m > M, m^2 >= M^2 + (2M+1)(m - M)
    r = math.exp(-(2 * cutoff + 1) * a)
    tail = math.exp(-(cutoff + 1) ** 2 * a) / (1 - r) if r < 1 else math.inf
    return TruncatedValue(head, tail)
