"""Exact arithmetic side of the explicit-formula comparison.

Provides the von Mangoldt sieve Lambda(n), the representation-counting
convolution

    r_Q(n) = sum over l1, l2 >= 1 with l1^2 + l2^2 < n of Lambda(n - l1^2 - l2^2)

(the weighted count of ways to write n as a prime power plus two positive
squares), built as Lambda * sq * sq with sq the indicator of the positive
squares: two one-square passes of about sqrt(N) slice adds each, O(N^{3/2})
element adds in all. r_Q(n) does not depend on the table length, so a table
at N1 < N grows to N by running both passes over N1 < n <= N only, which
costs (4/3)(N^{3/2} - N1^{3/2}) adds. Each pass walks the output in
cache-sized blocks (_BLOCK entries) and adds every square into one block
before moving to the next, which keeps each entry's float sum in the same
order as whole-array adds would. The sieve assigns log p to every prime at
once and loops in Python only over the primes p <= sqrt(N) that have higher
powers. The Cesaro-weighted left-hand side

    sum_{n <= N} r_Q(n) (N - n)^k / Gamma(k + 1)

is one exactly rounded math.fsum, fed one block of weighted terms at a time;
and the truncated generating functions

    S(z)      = sum_{m >= 1} Lambda(m) e^{-m z}
    omega2(z) = sum_{m >= 1} e^{-m^2 z}

for Re z > 0, each with a computed bound on the discarded tail. Each sum is
one exactly rounded math.fsum (one per part for complex terms).
"""

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "LinnikTable",
    "CesaroParams",
    "TruncatedValue",
    "sieve_von_mangoldt",
    "compute_rq",
    "cesaro_lhs",
    "s_tilde",
    "omega2",
]

# Hard cap on sieve size; segmented sieving beyond this is out of scope.
MAX_SIEVE = 10**7
# Output entries per block of a one-square pass: 512 KiB of float64, which
# with its source window stays in a 2 MiB L2 (65536 beat 32768 and 131072).
_BLOCK = 65536


@dataclass(frozen=True)
class LinnikTable:
    """r_Q(n) for 1 <= n <= limit (values[0] unused, kept 0).

    one_square is compute_rq's first pass, T(j) = sum_{l>=1} Lambda(j - l^2)
    on 0..limit, which is also the Hardy-Littlewood count r_HL(j) of
    j = prime power + one positive square; compute_rq grows a table from it.
    """

    values: np.ndarray
    one_square: np.ndarray

    @property
    def limit(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class CesaroParams:
    """Average length N and Cesaro exponent k.

    k > 3/2 is the theorem range, and formula.evaluate refuses any other k.
    cesaro_lhs, the term evaluators and threshold_probe take any k their own
    checks allow, for probes below the threshold.
    """

    N: int
    k: float

    def __post_init__(self):
        if not isinstance(self.N, numbers.Integral):
            raise DomainError(f"N must be an integer, got {self.N!r}")
        if self.N < 4:
            raise DomainError(f"N must be >= 4, got {self.N}")
        if not math.isfinite(self.k):
            raise DomainError("k must be finite")


class TruncatedValue(NamedTuple):
    """A truncated series value together with a bound on the discarded tail."""

    value: complex
    tail_bound: float


def sieve_von_mangoldt(N: int) -> np.ndarray:
    """Tabulate Lambda(n) for 0 <= n <= N by sieving: a float64 array with
    log p at n = p^j and 0.0 elsewhere, so the prime powers are exactly its
    nonzero entries.

    Prime powers are detected with exact integer arithmetic (repeated
    multiplication, no floating-point root finding). log p is math.log of
    each prime, filled straight into a float64 array (no list of floats).
    The table is 8 (N + 1) bytes; compute_rq drops it after its first pass,
    which frees it only when the caller passes it in holding no reference of
    its own (see compute_rq).
    """
    if N < 1:
        raise DomainError(f"table limit must be >= 1, got {N}")
    if N > MAX_SIEVE:
        raise DomainError(f"table limit {N} exceeds supported maximum {MAX_SIEVE}")

    is_prime = np.ones(N + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(N) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    primes = np.nonzero(is_prime)[0]

    # Every prime at once; only p <= sqrt(N) has a power p^j <= N with j >= 2.
    logs = np.fromiter(map(math.log, primes.tolist()), dtype=np.float64, count=len(primes))
    values = np.zeros(N + 1, dtype=np.float64)
    values[primes] = logs
    small = primes[: np.searchsorted(primes, math.isqrt(N), side="right")]
    for p, logp in zip(small.tolist(), logs[: len(small)].tolist()):
        pk = p * p
        while pk <= N:
            values[pk] = logp
            pk *= p
    return values


def _add_one_square(src: np.ndarray, out: np.ndarray, first: int) -> None:
    """out[n] += sum over l >= 1 with l^2 < n of src[n - l^2], for
    first <= n < len(out); entries below first are left as they are.

    The output is walked in blocks of _BLOCK entries from first, and each
    block gets one contiguous slice add per square, ascending in l. Each entry
    is therefore the same left-to-right float sum as with one whole-array add
    per square, whatever the table length, block size or first entry, while
    the block being summed stays in cache instead of the whole array
    streaming once per square.
    """
    N = len(out) - 1
    for lo in range(first, N + 1, _BLOCK):
        hi = min(lo + _BLOCK, N + 1)
        root = 1
        while root * root < hi - 1:
            sq = root * root
            start = max(lo, sq + 1)
            out[start:hi] += src[start - sq : hi - sq]
            root += 1


def compute_rq(lam: np.ndarray, N: int, prefix: Optional[LinnikTable] = None) -> LinnikTable:
    """Convolve the Lambda table with the two-positive-squares lattice.

    r_Q = Lambda * sq * sq, taken as two one-square passes: first
    T(j) = sum_{l>=1} Lambda(j - l^2), then r_Q(n) = sum_{l>=1} T(n - l^2).
    Each pass adds about sqrt(N) shifted copies, ascending in l, block by
    block (_add_one_square), with no multiplication; (4/3) N^{3/2} element
    adds in all. The table stays a plain sum of log p values, so zeros are
    exactly 0.0, and entries n <= M are the same bits for every table length
    N >= M.

    A prefix, a table an earlier call built at a smaller limit N1 < N, is
    grown: its two passes are copied and both passes run over N1 < n <= N
    only, (4/3)(N^{3/2} - N1^{3/2}) adds, with the same bits as a fresh build.
    A prefix at or past N is refused; the prefix itself is never written.

    The inputs are dropped as soon as they are done with: the prefix once its
    first pass is copied (its values are held until the r_Q output exists),
    Lambda after the first pass, and only then is the r_Q output allocated,
    so the four arrays are never alive at once. Dropping frees an input only
    when the caller holds no reference of its own: CPython 3.11 moves call
    arguments into the callee, so an argument passed as an expression
    (formula._tables_for passes both so) is freed here. A name kept by the
    caller, or a wrapper that keeps its *args, keeps it to the end.
    """
    if len(lam) - 1 < N:
        raise DomainError(f"Lambda table limit {len(lam) - 1} < requested N {N}")
    if prefix is not None and prefix.limit >= N:
        raise DomainError(f"prefix limit {prefix.limit} >= requested N {N}")
    one_square = np.zeros(N + 1, dtype=np.float64)
    first, held = 0, None
    if prefix is not None:
        first = prefix.limit + 1
        one_square[:first] = prefix.one_square
        held = prefix.values
    del prefix
    _add_one_square(lam, one_square, first)
    del lam
    values = np.zeros(N + 1, dtype=np.float64)
    if held is not None:
        values[:first] = held
        del held
    _add_one_square(one_square, values, first)
    return LinnikTable(values, one_square)


def _weighted_block(r: np.ndarray, N: int, k: float, lo: int) -> memoryview:
    """(N - n)^k r[n] for lo <= n < min(lo + _BLOCK, N + 1), as a buffer."""
    hi = min(lo + _BLOCK, N + 1)
    w = np.arange(N - lo, N - hi, -1, dtype=np.float64)
    np.power(w, k, out=w)
    w *= r[lo:hi]
    return memoryview(w)


def cesaro_lhs(rq: LinnikTable, params: CesaroParams) -> float:
    """Cesaro-weighted sum of r_Q up to N.

    The products (N - n)^k r_Q(n), n = 1..N, are formed one _BLOCK of float64
    at a time, and every block is fed to a single math.fsum through its
    buffer (a memoryview, chained, so no numpy scalar is made per element).
    The sum is exactly rounded, so it is the same float as one fsum over the
    whole weighted array, while the weights take one block instead of a
    second N-sized array. The n = N term carries weight 0 for k > 0. k = 0
    uses the 0^0 = 1 convention; k < 0 is rejected because the weight is
    undefined at n = N. A weight or sum past double range raises OverflowError.
    """
    N, k = params.N, params.k
    if rq.limit < N:
        raise DomainError(f"r_Q table limit {rq.limit} < N {N}")
    if k < 0:
        raise DomainError("k < 0 leaves the n = N weight (N-n)^k undefined")
    blocks = (_weighted_block(rq.values, N, k, lo) for lo in range(1, N + 1, _BLOCK))
    # an inf or nan weight is refused below; fsum raises on a finite overflow
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = math.fsum(itertools.chain.from_iterable(blocks)) / math.gamma(k + 1)
    if not math.isfinite(lhs):
        raise OverflowError(f"a weight (N - n)^k r_Q(n) exceeds double range at k = {k}")
    return lhs


def fsum_complex(terms) -> complex:
    """Exactly rounded sum of complex terms: one math.fsum per part."""
    terms = list(terms)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


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
