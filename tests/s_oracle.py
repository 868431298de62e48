"""The truncated generating function S(z) = sum_{m >= 1} Lambda(m) e^{-mz}
over a Lambda table, with a bound on its tail: the S that the explicit
formula expands over the zeros (zero_oracle.py), which c06 and c07 check
and the package never evaluates."""

import cmath
import math

import numpy as np

from linnik.arithmetic import TruncatedValue, _check_right_half_plane, fsum_complex
from linnik.errors import DomainError


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
