"""Analytic main terms of the Cesaro-averaged explicit formula.

The arithmetic side sum_{n<=N} r_Q(n) (N-n)^k / Gamma(k+1) is the inverse
Laplace transform of z^{-k-1} S(z) omega(z)^2, with S(z) = 1/z
- sum_rho Gamma(rho) z^{-rho} + ... and omega the theta series of the two
squares. Every main-term cell is one piece r (pi/z)^e of omega^2 (the
table _OMEGA2, indexed by the dimension j of the piece's index set
lattice_points(j, .)) times one piece of S (the table _S: 1/z, or
-Gamma(rho) z^{-rho} summed over conjugate zero pairs); _cells(j) forms them.

One kernel, _bessel_term(j), inverts every cell at the points
lam = |l|^2 <= cutoff^2 of l in (Z>=1)^j by the pair
(1/2 pi i) int e^{Nz - c/z} z^{-s} dz = (N/c)^{(s-1)/2} J_{s-1}(2 sqrt(cN)), c = pi^2 lam:

  m3, m4: Bessel blocks, the pieces of omega^2 that carry e^{-c/z} (pi/z
      over the j = 2 norms for m3; pi/z and -sqrt(pi/z) over the j = 1
      squares for m4) times either S piece;
  m1, m2: the j = 0 point of the same kernel, lam = 0, where the pair tends to
      N^{s-1}/Gamma(s): the index-free pieces pi/(4z), 1/4 and -sqrt(pi/z)/2
      times 1/z (m1) or -Gamma(rho) z^{-rho} (m2, Gamma-ratio weights).

All infinite sums are truncated under a TruncationSpec: Z zeros, lattice
radius L, single-index cutoff M. Every term carries computed tail bounds:

  * lattice/m tails from |J_nu(u)| <~ sqrt(2/(pi u)): a point past the cutoff
    weighs lam^{-s}, s = Re nu/2 + 1/4, summed by one density bound for every
    j, with head room 2 for the lattice (_lattice_tail). The cut tail is
    _cut_tail's, every cell past the cutoff, a paired one times the amplitude
    of the zeros kept. default_truncation picks L and M by the same rule, as
    the smallest cutoffs whose cut tail at Z = 0 (the unpaired cells) meets tol/4;
  * zero tails from zeros.zero_tail, the one model of the zeros past Z: m2
    weighs a zero by its Stirling Gamma ratio ~ gamma^-c; m3 and m4 by the
    cancellation of |Gamma(rho)| against the J growth, at most
    ~ sqrt(2 pi) sqrt(2/(pi u)) times its lattice weight (constant in gamma,
    since every zero is 1/2 + i gamma) while gamma <~ u/2, decaying like
    (u/2 / gamma)^{k+3/2} beyond. Zeros past the loaded table are counted by
    the density log(gamma/2pi)/(2pi).

The value sums over points, zeros and probe terms, and the probe's theta sum
omega(a), are exactly rounded (math.fsum). The tail sums (a paired cell's
head of points, the kept zeros' amplitude) are plain sums, under _SAFETY.

evaluate() assembles the report; threshold_probe runs the threshold diagnostic
for the k > d - 1/2 convergence boundary; scaling_study fits the growth of
the residual over an N grid.
"""

import cmath
import math
import numbers
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import product
from typing import Optional

import numpy as np
from mpmath import mp

from . import arithmetic
from .arithmetic import CesaroParams, fsum_complex
from .errors import DomainError, PrecisionError
from .quadrature import adaptive_gauss_kronrod
from .specfun import bessel_j, bessel_j_prefetch, gamma_ratio, log_gamma, memo
from .zeros import _SAFETY, ZeroSet, paired_zero_sum, zero_amp, zero_tail, zero_tail_bound

__all__ = [
    "TruncationSpec",
    "TermValue",
    "FormulaReport",
    "default_truncation",
    "lattice_points",
    "m1_term",
    "m2_term",
    "m3_term",
    "m4_term",
    "evaluate",
    "threshold_probe",
    "scaling_study",
]

_LN_PI = math.log(math.pi)
_LATTICE_FLUCT = 2.0  # head room for r2 fluctuations around its mean pi/4

THEOREM_MIN_K = 1.5
_PROBE_VMAX = 40.0  # threshold_probe cuts its v integral here


@dataclass(frozen=True)
class TruncationSpec:
    """Cutoffs for the truncated main terms plus the target tolerance."""

    Z: int
    L: int
    M: int
    tol: float

    def __post_init__(self):
        for name in ("Z", "L", "M"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.Z < 0 or self.L < 0 or self.M < 0:
            raise DomainError("cutoffs must be >= 0")
        if not (self.tol > 0):
            raise DomainError("tol must be positive")

    def doubled(self, which: str) -> "TruncationSpec":
        if which not in ("Z", "L", "M"):
            raise ValueError(f"unknown cutoff {which!r}")
        return replace(self, **{which: 2 * getattr(self, which)})


@dataclass(frozen=True)
class TermValue:
    """A main-term value with its unsigned block decomposition and tail bounds."""

    value: float
    components: dict
    tail_bounds: dict


@dataclass(frozen=True)
class FormulaReport:
    params: CesaroParams
    lhs: float
    m1: float
    m2: float
    m3: float
    m4: float
    tail_bounds: dict
    notes: tuple

    @property
    def residual(self) -> float:
        return self.lhs - (self.m1 + self.m2 + self.m3 + self.m4)

    @property
    def normalized_residual(self) -> float:
        """residual / N^{k+1}; OverflowError where N^{k+1} exceeds double range."""
        return self.residual / float(self.params.N) ** (self.params.k + 1.0)


# ---------------------------------------------------------------------------
# Lattice helpers
# ---------------------------------------------------------------------------

def lattice_points(j: int, cutoff: int):
    """Ascending ((lam, multiplicity), ...) for lam = |l|^2 <= cutoff^2 over
    l in (Z>=1)^j: j = 0 is the single lam = 0, j = 1 the squares m^2 and
    j = 2 the norms l1^2 + l2^2."""
    if cutoff < 0:
        raise DomainError("lattice radius must be >= 0")
    norms = Counter(sum(x * x for x in l) for l in product(range(1, cutoff + 1), repeat=j))
    return tuple(sorted(item for item in norms.items() if item[0] <= cutoff * cutoff))


def _lattice_tail(j: int, cutoff: int, s: float) -> float:
    """Bound for the sum of mult lam^-s over the points of dimension j past
    lam = max(cutoff^2, j), from their density
    pi^{j/2} lam^{j/2-1} / (2^j Gamma(j/2)) (1/2 lam^{-1/2} for the squares,
    pi/4 for the norms, with _LATTICE_FLUCT head room from j = 2 on); exactly
    0.0 at j = 0, whose single point lam = 0 lies inside every cutoff."""
    if j == 0:
        return 0.0
    if s <= j / 2:
        return math.inf
    X = max(cutoff * cutoff, j)
    coef = math.pi ** (j / 2) / (2**j * math.gamma(j / 2))
    fluct = _LATTICE_FLUCT if j >= 2 else 1.0
    return fluct * coef * X ** (j / 2 - s) / (s - j / 2)


# ---------------------------------------------------------------------------
# Main terms
# ---------------------------------------------------------------------------


# The pieces r (pi/z)^e of omega(z)^2 = P^2 + 2PT + T^2, by the dimension j
# of their index set, with P = (sqrt(pi/z) - 1)/2 the Jacobi main term of
# omega and T = sqrt(pi/z) sum_{m>=1} e^{-pi^2 m^2/z} the rest: P^2 is
# index-free ("smooth", j = 0), 2PT carries e^{-pi^2 m^2/z} ("m", j = 1) and
# T^2 carries e^{-pi^2 (l1^2+l2^2)/z} ("lattice", j = 2).
_OMEGA2 = (
    ((0.25, 1), (0.25, 0), (-0.5, 0.5)),
    ((1, 1), (-1, 0.5)),
    ((1, 1),),
)

# The pieces (sign, a, paired) of S(z), each sign z^{-a}, times Gamma(rho)
# z^{-rho} summed over conjugate zero pairs if paired: 1/z and -Gamma(rho) z^{-rho}.
_S = ((1, 1, False), (-1, 0, True))

_BLOCKS = ("block1", "block2", "block3", "block4")


def _cells(j: int, s_pieces) -> tuple:
    """The cells (coef, p, q, paired) of dimension j, S piece by S piece of
    s_pieces: z^{-k-1} times an S piece times an omega^2 piece is coef pi^p
    z^{-k-1-q} (times Gamma(rho) z^{-rho} if paired), coef = sign r, p = e, q = e + a."""
    return tuple(
        (sign * r, e, e + a, paired) for sign, a, paired in s_pieces for r, e in _OMEGA2[j]
    )


# A cell (coef, p, q, paired) of dimension j is
#
#   coef * N^{k/2+q/2} pi^{-(k+q-p)} sum_i mult_i J_nu(2 pi root_i sqrt N) / root_i^nu
#
# with nu = k + q, over the points lam_i = root_i^2 of lattice_points(j, .); a
# paired cell has nu = k + q + rho and is summed over zeros with the weight
# 2 Re Gamma(rho) pi^-rho N^{rho/2}. Components keep the block without coef.
# At j = 0 the one point lam = 0 takes the limit root -> 0, where
# J_nu(u) ~ (u/2)^nu / Gamma(nu+1): the cell is coef pi^p N^{k+q} / Gamma(k+1+q),
# times Gamma(rho) N^rho Gamma(k+1+q) / Gamma(rho+k+1+q) if paired.


def _pref(p: float, q: float, k: float, lnN: float) -> float:
    """N^{k/2+q/2} pi^{-(k+q-p)}, the prefactor of a Bessel cell."""
    return math.exp((k / 2.0 + q / 2.0) * lnN - (k + (q - p)) * _LN_PI)


def _envelope(N: float) -> float:
    """_SAFETY times N^{-1/4}/pi, from |J_nu(2 pi root sqrt N)| <~ N^{-1/4} root^{-1/2}/pi."""
    return _SAFETY * N**-0.25 / math.pi


def _cut_tail(j: int, cutoff: int, N: float, k: float, Z: int = 0) -> float:
    """Tail bound of every cell of dimension j past the cutoff: a point there
    weighs lam^{-s}, s = Re nu/2 + 1/4, and _lattice_tail bounds their sum; a
    paired cell (Re nu = k+q+1/2) weighs 2 zeros.zero_amp(N) per kept zero,
    summed zero by zero, and adds nothing at Z = 0, where its tail may be inf."""
    lnN = math.log(N)
    amp = sum([2.0 * zero_amp(N)] * Z)  # not 2 C Z, which rounds apart
    total = 0.0
    for _, p, q, paired in _cells(j, _S):
        if Z or not paired:
            total += _pref(p, q, k, lnN) * (amp if paired else 1.0) * _lattice_tail(
                j, cutoff, (k + q + 0.5 * paired) / 2.0 + 0.25)
    return _envelope(N) * total


def _points(j: int, cutoff: int, sqrtN: float) -> tuple:
    """(root, log root, mult, u = 2 pi root sqrt N) over the points
    lam = root^2 > 0 of lattice_points(j, cutoff); j = 0's lam = 0 is a limit."""
    return tuple(
        (root, 0.5 * math.log(lam), mult, 2.0 * math.pi * root * sqrtN)
        for lam, mult in lattice_points(j, cutoff) if lam
        for root in (math.sqrt(lam),)
    )


def _bessel_orders(params, zs, spec):
    """Yield (nu, us) for each Bessel order of m3, then m4, with the
    arguments u of its points, in the order their sums take them."""
    rhos = [complex(0.5, g) for g in zs.zeros[: spec.Z]]  # as paired_zero_sum forms them
    for j, cutoff in ((2, spec.L), (1, spec.M)):
        us = [u for *_, u in _points(j, cutoff, math.sqrt(float(params.N)))]
        for _, _, q, paired in _cells(j, _S):  # the orders point_sum forms
            k = params.k + q
            if paired:
                yield from ((k + rho, us) for rho in rhos)
            else:
                yield complex(k), us


def _bessel_sum(nu: complex, points) -> complex:
    """sum over points of mult * J_nu(u) / root^nu."""
    return fsum_complex(
        bessel_j(nu, u) * cmath.exp(-nu * log_root) * mult for _, log_root, mult, u in points
    )


def _bessel_term(j: int, s_pieces, names, tail_key, cutoff: int, params, zs, spec) -> TermValue:
    """The cells of dimension j and S pieces s_pieces, summed over _points,
    one component per name. The cut tail (under tail_key) is _cut_tail's at
    spec.Z; zeros past Z are weighed by zeros.zero_tail over all points, the
    kept ones and those past the cutoff, each point weighing lam^{-s} with
    s = (k+q+1/2)/2 + 1/4, at the plateau edge u_ref/2 and decay k + 3/2.

    j = 0 is lam = 0 alone, at its limit in m1's and m2's operation order:
    pref reduces to pi^p, kept with coef (a component is the bare sum); its
    cut tail is 0 and not reported, and zeros past Z are weighed cell by cell
    by M2's zero_tail_bound. zs and spec may be None if no piece is paired.
    """
    N, k = float(params.N), params.k
    lnN = math.log(N)
    sqrtN = math.sqrt(N)
    points = _points(j, cutoff, sqrtN)

    def point_sum(q, rho=None):
        # the cell's point sum without pref, times the paired weight at a zero rho
        if j == 0:
            offset = k + (1 + q)
            if rho is not None:
                return gamma_ratio(rho, offset) * cmath.exp((offset - 1.0 + rho) * lnN)
            if k <= -1:
                raise DomainError("m1_term requires k > -1")
            return math.exp((k + q) * lnN - log_gamma(complex(offset, 0.0)).real)
        if rho is None:
            return _bessel_sum(complex(k + q), points).real
        w = cmath.exp(log_gamma(rho) - rho * _LN_PI + 0.5 * rho * lnN)
        return w * _bessel_sum(k + q + rho, points)

    components = {}
    value = zero_weight = 0.0
    for name, (coef, p, q, paired) in zip(names, _cells(j, s_pieces)):
        weight, pref = (coef * math.pi**p, 1.0) if j == 0 else (coef, _pref(p, q, k, lnN))
        if paired:
            block = pref * paired_zero_sum(lambda rho, q=q: point_sum(q, rho), zs, spec.Z)
            s = (k + q + 0.5) / 2.0 + 0.25
            head = sum(mult * root ** (-2.0 * s) for root, _, mult, _ in points)
            zero_weight += pref * (head + _lattice_tail(j, cutoff, s)) if j else (
                abs(weight) * zero_tail_bound(N, k + (1 + q), spec.Z, zs))
        else:
            block = pref * point_sum(q)
        components[name] = block
        value += weight * block
    if j == 0:
        return TermValue(value, components, {"zeros": zero_weight})
    cut_tail = _cut_tail(j, cutoff, N, k, spec.Z)
    edge = math.pi * max(cutoff, 1) * sqrtN  # u_ref/2 for u_ref = 2 pi cutoff sqrt N
    past_z = _envelope(N) * zero_weight * zero_tail(zs, spec.Z, zero_amp(N), 0.0, edge, k + 1.5)
    return TermValue(value, components, {tail_key: cut_tail, "zeros": past_z})


def m1_term(params: CesaroParams) -> float:
    """Smooth leading term (the 1/z cells, j = 0):
    sum of coef pi^p N^{k+q} / Gamma(k+1+q); k > -1."""
    return _bessel_term(0, _S[:1], _BLOCKS, None, 0, params, None, None).value


def m2_term(
    params: CesaroParams,
    zs: ZeroSet,
    spec: TruncationSpec,
) -> TermValue:
    """Zero-sum term (the paired cells, j = 0): coef pi^p times the paired sum
    of Gamma(rho)/Gamma(rho+k+1+q) N^{k+q+rho}, each a component."""
    return _bessel_term(0, _S[1:], _BLOCKS, None, 0, params, zs, spec)


def m3_term(
    params: CesaroParams,
    zs: ZeroSet,
    spec: TruncationSpec,
) -> TermValue:
    """Two-squares lattice term (the "lattice" cells, j = 2): J_{k+2} lattice
    sum minus the paired zero sum of J_{k+1+rho} lattice sums, over
    root = sqrt(l1^2 + l2^2) <= L."""
    return _bessel_term(2, _S, ("lattice", "zeros"), "lattice", spec.L, params, zs, spec)


def m4_term(
    params: CesaroParams,
    zs: ZeroSet,
    spec: TruncationSpec,
) -> TermValue:
    """Single-index theta term (the "m" cells, j = 1): four m-sum blocks,
    signs +, -, -, +, over root = m <= M; the paired blocks carry N^{rho/2}."""
    return _bessel_term(1, _S, _BLOCKS, "msum", spec.M, params, zs, spec)


# ---------------------------------------------------------------------------
# Truncation auto-selection
# ---------------------------------------------------------------------------


def _smallest_cutoff(j: int, hi: int, N: float, k: float, tol: float) -> int:
    """Smallest cutoff n in [3, hi) whose cut tail of dimension j at Z = 0,
    that of the unpaired cells, is <= tol/4; hi if there is none."""
    for n in range(3, hi):
        if _cut_tail(j, n, N, k) <= tol / 4.0:
            return n
    return hi


def default_truncation(
    params: CesaroParams,
    zs: ZeroSet,
    tol: Optional[float] = None,
    Z: Optional[int] = None,
    L: Optional[int] = None,
    M: Optional[int] = None,
) -> TruncationSpec:
    """Keep each cutoff given and choose the missing ones for tol (default
    1e-6 N^{k+1}): Z = 50 (or the table size), L in [3, 64) and M in
    [3, 256) as the smallest for which _cut_tail at Z = 0 (the unpaired
    "lattice" and "m" cells; m3_term and m4_term report it at spec.Z)
    meets tol/4; L = 64 or M = 256 if none does.

    _cut_tail's paired cells carry a Z-driven amplitude that no cutoff can
    push below tol; the terms report it, but it does not drive the choice.
    evaluate notes every term whose reported tail exceeds tol, including one
    whose cutoff search ran into its cap. A Z given outside the table
    (zs.check_Z's message, as for every command), a default tol or a cutoff
    rule past double range raises DomainError.
    """
    if Z is not None:
        zs.check_Z(Z)
    N, k = float(params.N), params.k
    try:
        if tol is None:
            tol = 1e-6 * N ** (k + 1.0)
        if L is None:
            L = _smallest_cutoff(2, 64, N, k, tol)
        if M is None:
            M = _smallest_cutoff(1, 256, N, k, tol)
    except OverflowError:
        raise DomainError(
            f"the default tol or cutoff rule exceeds double range at N = {params.N}, k = {k}"
        ) from None
    if Z is None:
        Z = min(50, zs.count)
    return TruncationSpec(Z=Z, L=L, M=M, tol=tol)


# ---------------------------------------------------------------------------
# Full evaluation
# ---------------------------------------------------------------------------

# One slot, the last N, holding its r_Q table (the Lambda table is not kept,
# since evaluate never reads it after the build). Each doubled cutoff of an
# evaluate and a repeated run reuse the slot as it is. r_Q(n) does not depend
# on N, so a new N past the held table's limit grows that table (compute_rq
# with it as the prefix); a new N below it is built fresh. r_Q and its first
# pass take 16 bytes per entry: 16 MB at N = 10^6, 160 MB at MAX_SIEVE.
#
# A miss takes the held table out of the slot, and it and the sieve go
# straight into compute_rq with no name here, so that the build frees Lambda
# and the old passes as it goes (see compute_rq): the left side peaks at one
# r_Q table plus one N-sized array. A build that raises leaves the slot empty.
@memo(1)
def _tables_for(N: int):
    slot = _tables_for.cache
    if any(held.limit >= N for held in slot.values()):
        slot.clear()  # built fresh, so the larger table goes first
    return arithmetic.compute_rq(
        arithmetic.sieve_von_mangoldt(N), N, slot.popitem()[1] if slot else None
    )


@contextmanager
def _term_context(name: str):
    """Re-raise a PrecisionError or DomainError of one part of the formula
    (the left side or a term) tagged with that part, and an OverflowError, a
    value past double range, as a DomainError."""
    try:
        yield
    except (PrecisionError, DomainError) as exc:
        exc.args = (f"{name}: {exc}",)
        raise
    except OverflowError as exc:
        raise DomainError(f"{name}: a value exceeds double range ({exc})") from None


def evaluate(
    params: CesaroParams,
    zs: ZeroSet,
    spec: TruncationSpec,
) -> FormulaReport:
    """Compute both sides of the explicit formula and their residual.

    k <= 3/2 (outside the theorem range) and a spec.Z past the table are
    refused before any part is computed. The m2/m3/m4 values are real by
    construction (conjugate pairing); no imaginary part is ever dropped.
    Every note of the report is written here, in this order: each term
    whose reported tail bound exceeds spec.tol, then each of m2, m3 and m4
    whose reported tail bound exceeds its own |value| (unresolved). Each
    part tags the failures it raises with its name. m3's and m4's Bessel
    values are computed first, over the process's CPUs
    (specfun.bessel_j_prefetch), while lhs, m1 and m2 run here; inside a
    scaling_study that prefetch forks nothing, never builds this N's orders,
    and finishes the scan's. The values and the report are those of a
    serial run.
    """
    N, k = params.N, params.k
    zs.check_Z(spec.Z)
    if k <= THEOREM_MIN_K:
        raise DomainError(f"k = {k} is outside the theorem range k > 3/2")

    values, tails = {}, {}

    def term_part(name, term):
        with _term_context(name):
            t = term(params, zs, spec)
        values[name], tails[name] = t.value, sum(t.tail_bounds.values())

    with bessel_j_prefetch(_bessel_orders(params, zs, spec)):
        with _term_context("lhs"):
            lhs = arithmetic.cesaro_lhs(_tables_for(N), params)
        with _term_context("m1"):
            values["m1"] = m1_term(params)
        term_part("m2", m2_term)
    term_part("m3", m3_term)
    term_part("m4", m4_term)
    notes = [
        f"{name} tail bound {tail:.3e} exceeds tol {spec.tol:.3e}"
        for name, tail in tails.items()
        if tail > spec.tol
    ]
    notes.extend(
        f"{name} unresolved: tail {tail:.3e} > |{name}| {abs(values[name]):.3e}"
        for name, tail in tails.items()
        if tail > abs(values[name])
    )
    return FormulaReport(params=params, lhs=lhs, **values, tail_bounds=tails, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Threshold probe
# ---------------------------------------------------------------------------


_THETA_EXPONENT = -math.log(1e-18)


def _omega(a: float) -> float:
    """omega(a) = sum_{l>=1} e^{-a l^2} for a > 0, cut at the smallest M >= 2
    with e^{-M^2 a} below 1e-18 (M^2 a above _THETA_EXPONENT)."""
    cutoff = max(2, math.isqrt(int(_THETA_EXPONENT / a)) + 1)
    return math.fsum(math.exp(-(m * m) * a) for m in range(1, cutoff + 1))


def _omega_remainder(a: float) -> float:
    """omega(a) - (sqrt(pi/a) - 1)/2, the part of omega(a) = sum_{l>=1} e^{-a l^2}
    past its Jacobi main term.

    Below a = pi it is taken through the theta identity
    1 + 2 omega(a) = sqrt(pi/a) (1 + 2 omega(pi^2/a)), so it is computed
    directly (no cancellation) and is ~ sqrt(pi/a) e^{-pi^2/a} as a -> 0.
    """
    if a < math.pi:
        return math.sqrt(math.pi / a) * _omega(math.pi * math.pi / a)
    return _omega(a) - 0.5 * (math.sqrt(math.pi / a) - 1.0)


def _lower_gamma(s: float, x: float) -> float:
    """Lower incomplete gamma int_0^x t^{s-1} e^{-t} dt for s > 0."""
    with mp.workprec(64):
        return float(mp.gammainc(s, 0, x))


def threshold_probe(
    d: int,
    params: CesaroParams,
    zs: ZeroSet,
    Z: int,
) -> tuple:
    """The partial sums of the convergence-threshold series

        sum_{l in (Z>=1)^d} sum_{gamma>0} gamma^{-k-3/2}
            int_0^gamma e^{-N ||l||^2 v^2 / gamma^2} e^{-v} v^{k+1/2} dv,

    at params' N and k, recorded after each of the first Z zeros
    1/2 + i gamma of zs (the integral is cut at min(gamma, 40)).

    The lattice sum is exact: it factors as omega(a)^d with a = N v^2/gamma^2
    and omega(a) = sum_{l>=1} e^{-a l^2}. Writing omega = (c/v - 1)/2 + E
    with c = sqrt(pi) gamma / sqrt(N), the main part integrates in closed
    form through lower incomplete gammas; the remainder E is of order
    e^{-pi^2 gamma^2/(N v^2)}, smooth at v = 0, and is integrated by
    Gauss-Kronrod. For gamma >> sqrt(N) each term is therefore

        gamma^{-k-3/2} sum_j C(d,j) (c/2)^j (-1/2)^{d-j} Gamma(k+3/2-j)

    up to terms of that exponential order; its leading power
    gamma^{d-k-3/2}, against the zero density, makes the series converge
    iff k > d - 1/2. The main part needs k + 1/2 > d - 1 (else the
    integral diverges at v = 0); that, a Z outside 0..zs.count, k <= 0,
    d not an integer in {1, 2, 3} or a term past double range raises
    DomainError. A term's integral that is not above the quadrature's
    absolute tolerance 1e-12 main_abs (at large k the two parts cancel below
    it) raises PrecisionError, once every term has been checked against
    double range.
    """
    N, k = params.N, params.k
    zs.check_Z(Z)
    if not isinstance(d, numbers.Integral) or d not in (1, 2, 3):
        raise DomainError("probe supports d in {1, 2, 3}")
    if k <= 0:
        raise DomainError("probe requires k > 0")
    if k + 0.5 <= d - 1:
        raise DomainError(f"probe integral diverges at v = 0: k + 1/2 = {k + 0.5} <= d - 1")
    terms = []
    partials = []
    uncertified = None
    for g in zs.zeros[:Z]:
        scale = float(N) / (g * g)
        hi = min(g, _PROBE_VMAX)
        half_c = 0.5 * math.sqrt(math.pi / scale)
        # omega = p + E with p = c/(2v) - 1/2; the p^d part in closed form
        main = main_abs = 0.0
        for j in range(d + 1):
            part = math.comb(d, j) * half_c**j * 0.5 ** (d - j)
            part *= _lower_gamma(k + 0.5 + 1.0 - j, hi)
            main += (-1) ** (d - j) * part
            main_abs += part

        def rem(v):
            # omega^d - p^d, expanded in powers of E so nothing cancels as v -> 0
            p = half_c / v - 0.5
            e = _omega_remainder(scale * v * v)
            r = sum(math.comb(d, i) * p ** (d - i) * e**i for i in range(1, d + 1))
            return r * math.exp(-v) * v ** (k + 0.5)

        # omega <= c/(2v) and |p| <= c/(2v) + 1/2, so |omega^d - p^d| integrates
        # to at most 2 main_abs
        tol = 1e-12 * main_abs
        try:
            if not math.isfinite(tol):
                raise OverflowError
            integral = main + adaptive_gauss_kronrod(rem, 0.0, hi, abs_tol=tol).real
        except OverflowError:  # the closed-form part, or v^{k+1/2} in rem
            raise DomainError(f"probe term at gamma = {g} exceeds double range at k = {k}") from None
        if uncertified is None and not integral > tol:
            uncertified = PrecisionError(
                f"probe term at gamma = {g} is not above the quadrature tolerance at "
                f"k = {k}: integral {integral:.3e} <= tol {tol:.3e}"
            )
        terms.append(g ** (-k - 1.5) * integral)
        partials.append(math.fsum(terms))
    if uncertified is not None:
        raise uncertified
    return tuple(partials)


# ---------------------------------------------------------------------------
# Scaling study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingStudy:
    rows: tuple
    slope: float


def fit_loglog_slope(ns, values) -> float:
    """Least-squares slope of log|value| against log n. A value of exactly 0
    has no log and is refused, as are fewer than 2 distinct n."""
    for n, v in zip(ns, values):
        if v == 0.0:
            raise DomainError(f"the value at N = {n} is 0, which has no log-log slope")
    xs = [math.log(float(n)) for n in ns]
    if len(set(xs)) < 2:
        raise DomainError("need at least 2 distinct N to fit a slope")
    ys = [math.log(abs(v)) for v in values]
    return float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])


def scaling_study(N_list, k: float, zs: ZeroSet, **cutoffs) -> ScalingStudy:
    """Run evaluate over an ascending N grid and fit the residual growth;
    cutoffs (tol, Z, L, M) go to default_truncation at every N.

    The truncations are chosen first, then one specfun.bessel_j_prefetch
    spreads every N's missing m3/m4 Bessel values over the process's CPUs,
    each order whole over the scan, and the first evaluate finishes it before
    its sums (each evaluate's own prefetch forks nothing inside it). The
    evaluates still run N by N, and a failure to choose a truncation is
    raised after the evaluates of the N before it, so the values, the report
    and the first error are those of a serial run.
    """
    N_list = list(N_list)
    if len(N_list) < 3:
        raise DomainError("scaling study needs at least 3 N values")
    if any(a >= b for a, b in zip(N_list, N_list[1:])):
        raise DomainError("N_list must be strictly ascending")
    runs, failure = [], None
    try:
        for N in N_list:
            params = CesaroParams(N=N, k=k)
            runs.append((params, default_truncation(params, zs, **cutoffs)))
    except DomainError as exc:
        failure = exc
    with bessel_j_prefetch(row for params, spec in runs
                           for row in _bessel_orders(params, zs, spec)):
        rows = [evaluate(params, zs, spec) for params, spec in runs]
    if failure is not None:
        raise failure
    slope = fit_loglog_slope(N_list, [r.residual for r in rows])
    return ScalingStudy(rows=tuple(rows), slope=slope)
