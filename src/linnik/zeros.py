"""Nontrivial zeta-zero tables: ingestion, computation, paired sums, tail bounds.

Every zero is 1/2 + i gamma, so a table holds ordinates only: plain text,
one ascending ordinate per line, '#' comments allowed. A bundled table of
the first 100 zeros ships with the package so everything runs offline;
compute_zeros gives any number of them from mpmath.zetazero.

Weighted sums over zeros always run over conjugate pairs: for weights f with
f(conj rho) = conj f(rho) the pair sum is 2 Re f(rho), so paired_zero_sum
returns an exactly real number by construction. Its one math.fsum is exactly
rounded, so the value is reproducible bit for bit.

zero_tail is the one model of the zeros a sum leaves out past Z, for M2's
Gamma ratios (zero_tail_bound) and M3/M4's Bessel cells (zero_amp) alike:
a weight C gamma^A with constants C and A.
"""

import math
import numbers
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

from mpmath import mp

from .errors import DomainError, ZeroTableError

__all__ = [
    "ZeroSet",
    "load_zeros",
    "compute_zeros",
    "bundled_zeros_path",
    "paired_zero_sum",
    "zero_amp",
    "zero_tail",
    "zero_tail_bound",
]

_FIRST_ZERO_WINDOW = (14.0, 14.3)
_TWO_PI = 2.0 * math.pi

# Stirling-ratio slack: |Gamma(rho)/Gamma(rho+power)| <= RATIO_SLACK * gamma^-power
# on every table zero (asserted against log_gamma in the test suite).
_RATIO_SLACK = 1.25
# Factor on every reported tail bound, here and in formula's lattice/m/zero tails.
_SAFETY = 2.0


@dataclass(frozen=True)
class ZeroSet:
    """The ordinates gamma of the zeros 1/2 + i gamma, ascending, as floats."""

    zeros: tuple
    source_id: str

    @property
    def count(self) -> int:
        return len(self.zeros)

    def check_Z(self, Z: int) -> None:
        """Refuse a zero count Z not an integer in 0..count: the one such check."""
        if not isinstance(Z, numbers.Integral):
            raise DomainError(f"Z must be an integer, got {Z!r}")
        if not 0 <= Z <= self.count:
            raise DomainError(f"Z = {Z} out of range for table of {self.count} zeros")


def load_zeros(path, source_id: Optional[str] = None) -> ZeroSet:
    """Parse and validate a zero table file.

    Raises ZeroTableError naming the offending line on a line that is not
    UTF-8, parse failures, a line of more than one column, an ordinate that
    is not positive and finite, non-monotonic ordinates, or a first ordinate
    outside the sanity window; OSError when the file cannot be read.
    """
    path = Path(path)
    zeros = []
    # surrogateescape keeps an undecodable byte as a lone surrogate, which
    # only that line's encode refuses
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise ZeroTableError("not UTF-8 text") from None
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) > 1:
                    raise ZeroTableError(f"expected 1 column, got {len(parts)}")
                try:
                    gamma = float(parts[0])
                except ValueError as exc:
                    raise ZeroTableError(f"unparseable number: {exc}") from None
                if not (gamma > 0 and math.isfinite(gamma)):
                    raise ZeroTableError(f"zero ordinate must be positive, got {gamma}")
                if zeros and gamma <= zeros[-1]:
                    raise ZeroTableError(
                        f"ordinates must ascend strictly ({gamma} after {zeros[-1]})"
                    )
                zeros.append(gamma)
        except ZeroTableError as exc:  # every refusal in the loop names its line
            exc.args = (f"line {lineno}: {exc}",)
            raise
    if zeros and not (_FIRST_ZERO_WINDOW[0] < zeros[0] < _FIRST_ZERO_WINDOW[1]):
        raise ZeroTableError(
            f"first ordinate {zeros[0]} outside sanity window {_FIRST_ZERO_WINDOW}"
        )
    return ZeroSet(tuple(zeros), source_id or str(path))


def bundled_zeros_path() -> Path:
    """Path of the packaged first-100-zeros table."""
    return Path(resources.files("linnik.data") / "zeros100.txt")


def compute_zeros(count: int) -> ZeroSet:
    """The first `count` zeros from mpmath.zetazero at 80 bits, each ordinate
    rounded to the nearest double. A count that is not an integer >= 1
    raises DomainError."""
    if not isinstance(count, numbers.Integral):
        raise DomainError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    with mp.workprec(80):
        gammas = tuple(float(mp.zetazero(n).imag) for n in range(1, count + 1))
    return ZeroSet(gammas, "mpmath.zetazero")


def paired_zero_sum(
    f: Callable[[complex], complex],
    zs: ZeroSet,
    Z: int,
) -> float:
    """2 * sum_{j < Z} Re f(rho_j): the conjugate-paired zero sum.

    Requires f(conj rho) = conj f(rho), which holds for every weight in the
    main terms (N, k, and the Bessel arguments are real). One math.fsum.
    """
    zs.check_Z(Z)
    return 2.0 * math.fsum(complex(f(complex(0.5, g))).real for g in zs.zeros[:Z])


def _density_integral(c: float, lo: float, hi: float = math.inf) -> float:
    """int_lo^hi gamma^c log(gamma/2pi)/(2pi) dgamma, a power of gamma against
    the zeros' counting density; inf when it diverges. c != -1."""

    def antiderivative(g):
        return g ** (c + 1.0) * (math.log(g / _TWO_PI) - 1.0 / (c + 1.0)) / ((c + 1.0) * _TWO_PI)

    if hi < math.inf:
        return antiderivative(hi) - antiderivative(lo)
    return -antiderivative(lo) if c < -1.0 else math.inf


def zero_tail(
    zs: ZeroSet, Z: int, C: float, A: float, edge: float = math.inf, decay: float = 0.0
) -> float:
    """Bound for the paired zeros j >= Z of a weight that is at most
    C gamma^A min(1, (edge/gamma)^decay) at 1/2 + i gamma.

    The table zeros past Z are summed one by one; the zeros past the table's
    last ordinate gamma_T take the same weight against the counting density
    log(gamma/2pi)/(2pi), integrated in closed form. Conjugate pairs count
    twice; the caller adds the safety factor.
    """
    zs.check_Z(Z)

    def weight(gamma):
        return C * gamma**A * (1.0 if gamma <= edge else (edge / gamma) ** decay)

    head = [weight(g) for g in zs.zeros[Z:]]
    gamma_T = zs.zeros[-1] if zs.count else _FIRST_ZERO_WINDOW[0]
    past = _density_integral(A, gamma_T, max(gamma_T, edge))
    if edge < math.inf:
        past += edge**decay * _density_integral(A - decay, max(gamma_T, edge))
    return 2.0 * math.fsum(head + [C * past])


def zero_amp(N: float) -> float:
    """zero_tail's C for the paired Bessel cells of M3 and M4: by Stirling,
    |Gamma(rho) pi^-rho N^{rho/2}| e^{pi gamma/2} <= C gamma^A with A = 0 (every
    zero is 1/2 + i gamma) and C = RATIO_SLACK sqrt(2 pi) pi^-1/2 N^{1/4}."""
    return _RATIO_SLACK * math.sqrt(2.0 * math.pi) * math.pi ** (-0.5) * N ** (0.5 / 2.0)


def zero_tail_bound(N: float, power: float, Z: int, zs: ZeroSet) -> float:
    """Upper bound for the discarded zero tail |sum_{j >= Z} Gamma(rho)/Gamma(rho+power) N^{power-1+rho}|.

    Each term is bounded by RATIO_SLACK * gamma^-power * N^{power-1/2}
    (Stirling: the e^{-pi gamma/2} factors of numerator and denominator
    cancel, leaving polynomial decay), summed by zero_tail with no plateau
    edge, times the safety factor. Returns inf when power is too small for
    the density integral to converge.
    """
    if power <= 1.1:
        return math.inf
    N = float(N)
    return _SAFETY * zero_tail(zs, Z, _RATIO_SLACK * N ** (power - 1.0 + 0.5), -power)
