"""The left side at k = 2 from prefix moments of the two-square counts, with
no r_Q table and one rounding.

With c(j) the number of l1, l2 >= 1 with l1^2 + l2^2 = j, r_Q = Lambda * c, so

    sum_{n<N} r_Q(n) (N - n)^2 = sum_m Lambda(m) W(N - m),
    W(x) = sum_{j<x} c(j) (x - j)^2 = x^2 C_0(x) - 2x C_1(x) + C_2(x),

where C_i(x) = sum_{j<x} c(j) j^i. The moments are exact int64 cumulative sums
(C_2 < N^3 fits up to N = 10^6), W is formed in Python integers, and each
log p enters as the exact ratio of its double, so the sum is exact and is
rounded once. Lambda comes from sieve_von_mangoldt, the doubles the package
sums.
"""

import math

import numpy as np

from linnik.arithmetic import sieve_von_mangoldt

# every log p of a prime p >= 2 is a double in [log 2, 2^6) whose ratio has
# a power-of-two denominator of at most 2^53 (log 2 in [1/2, 1))
_SCALE_BITS = 53


def cesaro_lhs_k2(N: int) -> float:
    """sum_{n<=N} r_Q(n) (N - n)^2 / Gamma(3), correctly rounded."""
    c = np.zeros(N, dtype=np.int64)
    squares = np.arange(1, math.isqrt(N) + 1, dtype=np.int64) ** 2
    for sq in squares[squares < N].tolist():
        c[sq + squares[squares < N - sq]] += 1  # every l2 of one l1
    lam = sieve_von_mangoldt(N)
    ms = np.nonzero(lam[:N])[0]
    xs = N - ms
    j = np.arange(N, dtype=np.int64)
    C0, C1, C2 = (np.concatenate(([0], np.cumsum(c * j**i)))[xs].tolist() for i in range(3))
    total = 0
    for x, log_p, c0, c1, c2 in zip(xs.tolist(), lam[ms].tolist(), C0, C1, C2):
        num, den = log_p.as_integer_ratio()
        total += num * ((1 << _SCALE_BITS) // den) * (x * x * c0 - 2 * x * c1 + c2)
    return total / (1 << (_SCALE_BITS + 1))  # int / int rounds once; Gamma(3) = 2
