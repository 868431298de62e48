"""Analytic main terms of the Cesaro-averaged explicit formula.

The arithmetic side sum_{n<=N} r_Q(n) (N-n)^k / Gamma(k+1) is the inverse
Laplace transform of z^{-k-1} S(z) omega(z)^2, with S(z) = 1/z
- sum_rho Gamma(rho) z^{-rho} + ... and omega the theta series of the two
squares. Every main-term cell is one piece r (pi/z)^e of omega^2 (the
table _OMEGA2, per index set) times one piece of S (the table _S: 1/z, or
-Gamma(rho) z^{-rho} summed over conjugate zero pairs); _cells forms them.

  m1, m2: the index-free ("smooth") pieces pi/(4z), 1/4 and -sqrt(pi/z)/2
      times 1/z (m1, a closed form in N and k) or -Gamma(rho) z^{-rho} (m2,
      Gamma-ratio weights), each inverted by
      (1/2 pi i) int e^{Nz} z^{-s} dz = N^{s-1}/Gamma(s);
  m3, m4: Bessel blocks, the pieces of omega^2 that carry e^{-c/z} (pi/z
      over the "lattice" for m3; pi/z and -sqrt(pi/z) over "m" for m4) times
      either S piece. The pair
      (1/2 pi i) int e^{Nz - c/z} z^{-s} dz = (N/c)^{(s-1)/2} J_{s-1}(2 sqrt(cN))
      with c = pi^2 root^2 inverts each one, all by one kernel, _bessel_term.
      m3 sums over the lattice root = sqrt(l1^2 + l2^2), m4 over a single
      index root = m.

All infinite sums are truncated under a TruncationSpec: Z zeros, lattice
radius L, single-index cutoff M. Every term carries computed tail bounds:

  * lattice/m tails from |J_nu(u)| <~ sqrt(2/(pi u)): a point past the cutoff
    weighs root^{-2s}, s = Re nu/2 + 1/4, summed past the cutoff with a safety
    factor 2 (_cut_tail). default_truncation picks L and M by the same rule,
    as the smallest cutoffs whose unpaired cells' tail meets tol/4;
  * zero tails from zeros.zero_tail, the one model of the zeros past Z: m2
    weighs a zero by its Stirling Gamma ratio ~ gamma^-c; m3 and m4 by the
    cancellation of |Gamma(rho)| against the J growth, at most
    ~ sqrt(2 pi) sqrt(2/(pi u)) times its lattice weight (constant in gamma,
    since every zero is 1/2 + i gamma) while gamma <~ u/2, decaying like
    (u/2 / gamma)^{k+3/2} beyond. Zeros past the loaded table are counted by
    the density log(gamma/2pi)/(2pi).

Sums over points, zeros and probe terms are exactly rounded (math.fsum).

evaluate() assembles the report; threshold_probe runs the threshold diagnostic
for the k > d - 1/2 convergence boundary; scaling_study fits the growth of
the residual over an N grid.
"""

import cmath
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np
from mpmath import mp

from . import arithmetic
from .arithmetic import CesaroParams, fsum_complex
from .errors import DomainError, PrecisionError
from .quadrature import adaptive_gauss_kronrod
from .specfun import bessel_j, gamma_ratio, log_gamma, memo
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
        if self.Z < 0 or self.L < 0 or self.M < 0:
            raise DomainError("cutoffs must be >= 0")
        if not (self.tol > 0):
            raise DomainError("tol must be positive")

    def doubled(self, which: str) -> "TruncationSpec":
        if which == "Z":
            return TruncationSpec(2 * self.Z, self.L, self.M, self.tol)
        if which == "L":
            return TruncationSpec(self.Z, 2 * self.L, self.M, self.tol)
        if which == "M":
            return TruncationSpec(self.Z, self.L, 2 * self.M, self.tol)
        raise ValueError(f"unknown cutoff {which!r}")


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
    total: float
    residual: float
    normalized_residual: float
    tail_bounds: dict
    wallclock: dict
    notes: tuple


# ---------------------------------------------------------------------------
# Lattice helpers
# ---------------------------------------------------------------------------

def lattice_points(L: int):
    """Ascending [(lam, multiplicity)] for lam = l1^2 + l2^2 <= L^2, l1, l2 >= 1."""
    if L < 0:
        raise DomainError("lattice radius must be >= 0")
    norms = Counter(
        l1 * l1 + l2 * l2 for l1 in range(1, L) for l2 in range(1, math.isqrt(L * L - l1 * l1) + 1)
    )
    return tuple(sorted(norms.items()))


def _lattice_tail(L: int, s: float) -> float:
    """Bound for the sum of r2(lam) lam^-s over lam > max(L^2, 2), the m3
    points past radius L (r2 over positive pairs)."""
    if s <= 1.0:
        return math.inf
    X = max(L * L, 2)
    return _LATTICE_FLUCT * (math.pi / 4.0) * X ** (1.0 - s) / (s - 1.0)


def _m_tail(M: int, s: float) -> float:
    """Bound for sum_{m > M} m^{-2s}, the m4 points past M."""
    t = 2.0 * s
    if t <= 1.0:
        return math.inf
    return max(M, 1) ** (1.0 - t) / (t - 1.0)


# ---------------------------------------------------------------------------
# Main terms
# ---------------------------------------------------------------------------


# The pieces r (pi/z)^e of omega(z)^2 = P^2 + 2PT + T^2, per index set, with
# P = (sqrt(pi/z) - 1)/2 the Jacobi main term of omega and T = sqrt(pi/z)
# sum_{m>=1} e^{-pi^2 m^2/z} the rest: P^2 is index-free ("smooth"), 2PT
# carries e^{-pi^2 m^2/z} ("m") and T^2 carries e^{-pi^2 (l1^2+l2^2)/z}
# ("lattice").
_OMEGA2 = {
    "smooth": ((0.25, 1), (0.25, 0), (-0.5, 0.5)),
    "m": ((1, 1), (-1, 0.5)),
    "lattice": ((1, 1),),
}

# The pieces (sign, a, paired) of S(z), each sign z^{-a}, times Gamma(rho)
# z^{-rho} summed over conjugate zero pairs if paired: 1/z and -Gamma(rho) z^{-rho}.
_S = ((1, 1, False), (-1, 0, True))

_BLOCKS = ("block1", "block2", "block3", "block4")


def _cells(index_set: str) -> tuple:
    """The cells (coef, p, q, paired) of one index set, S piece by S piece:
    z^{-k-1} times an S piece times an omega^2 piece is coef pi^p z^{-k-1-q}
    (times Gamma(rho) z^{-rho} if paired), coef = sign r, p = e and q = e + a."""
    return tuple(
        (sign * r, e, e + a, paired) for sign, a, paired in _S for r, e in _OMEGA2[index_set]
    )


def m1_term(params: CesaroParams) -> float:
    """Smooth leading term: sum over the plain smooth cells of
    coef pi^p N^{k+q} / Gamma(k+1+q)."""
    N, k = float(params.N), params.k
    if k <= -1:
        raise DomainError("m1_term requires k > -1")
    lnN = math.log(N)
    value = 0.0
    for coef, p, q, paired in _cells("smooth"):
        if not paired:
            g = log_gamma(complex(k + (1 + q), 0.0)).real
            value += coef * math.pi**p * math.exp((k + q) * lnN - g)
    return value


def m2_term(
    params: CesaroParams,
    zs: ZeroSet,
    spec: TruncationSpec,
) -> TermValue:
    """Zero-sum term: sum over the paired smooth cells of coef pi^p times the
    paired sum of Gamma(rho)/Gamma(rho+k+1+q) N^{k+q+rho} (components keep
    each sum without its coefficient)."""
    N, k = float(params.N), params.k
    lnN = math.log(N)
    components = {}
    value = tail = 0.0
    paired_cells = [cell for cell in _cells("smooth") if cell[3]]
    for name, (coef, p, q, _) in zip(_BLOCKS, paired_cells):
        weight = coef * math.pi**p
        offset = k + (1 + q)

        def f(rho, offset=offset):
            return gamma_ratio(rho, offset) * cmath.exp((offset - 1.0 + rho) * lnN)

        b = paired_zero_sum(f, zs, spec.Z)
        components[name] = b
        value += weight * b
        tail += abs(weight) * zero_tail_bound(N, offset, spec.Z, zs)
    return TermValue(value, components, {"zeros": tail})


# ---------------------------------------------------------------------------
# Bessel blocks of m3 and m4
# ---------------------------------------------------------------------------

# A cell (coef, p, q, paired) of the "m" or "lattice" index set is the block
#
#   coef * N^{k/2+q/2} pi^{-(k+q-p)} sum_i mult_i J_nu(2 pi root_i sqrt N) / root_i^nu
#
# with nu = k + q, over the points of the index set; a paired cell has
# nu = k + q + rho and is summed over zeros with the weight
# 2 Re Gamma(rho) pi^-rho N^{rho/2}. Components keep the block without coef.


def _pref(p: float, q: float, k: float, lnN: float) -> float:
    """N^{k/2+q/2} pi^{-(k+q-p)}, the prefactor of a Bessel cell."""
    return math.exp((k / 2.0 + q / 2.0) * lnN - (k + (q - p)) * _LN_PI)


def _envelope(N: float) -> float:
    """_SAFETY times N^{-1/4}/pi, from |J_nu(2 pi root sqrt N)| <~ N^{-1/4} root^{-1/2}/pi."""
    return _SAFETY * N**-0.25 / math.pi


def _cut_tail(cells, tail, cutoff: int, N: float, k: float, paired_tails=()) -> float:
    """Tail bound past the cutoff of the unpaired cells: a point there weighs
    root^{-2s}, s = (k+q)/2 + 1/4, and tail(cutoff, s) bounds their sum. The
    caller's paired_tails (already in these units) are added after them."""
    lnN = math.log(N)
    total = 0.0
    for _, p, q, paired in cells:
        if not paired:
            total += _pref(p, q, k, lnN) * tail(cutoff, (k + q) / 2.0 + 0.25)
    return _envelope(N) * sum(paired_tails, total)


def _bessel_sum(nu: complex, points, sqrtN: float) -> complex:
    """sum over points of mult * J_nu(2 pi root sqrt N) / root^nu."""
    return fsum_complex(
        bessel_j(nu, 2.0 * math.pi * root * sqrtN) * cmath.exp(-nu * log_root) * mult
        for root, log_root, mult in points
    )


def _bessel_term(cells, names, points, tail, tail_key, cutoff, params, zs, spec) -> TermValue:
    """The cells of one index set summed over its points (root, log root,
    mult), one component per name, with tail bounds from _cut_tail. Past the
    cutoff a paired cell carries the amplitude of the zeros kept, with
    s = (k+q+1/2)/2 + 1/4 (every zero is 1/2 + i gamma); zeros past Z are
    weighed over all points by zeros.zero_tail, with the plateau edge u_ref/2
    and decay k + 3/2.
    """
    N, k = float(params.N), params.k
    lnN = math.log(N)
    sqrtN = math.sqrt(N)
    C = zero_amp(N)
    amp_in = sum(2.0 * C for _ in zs.zeros[: spec.Z])  # zero by zero: 2 C Z rounds apart
    components = {}
    value = zero_weight = 0.0
    paired_tails = []
    for name, (coef, p, q, paired) in zip(names, cells):
        pref = _pref(p, q, k, lnN)
        if paired:

            def f(rho, q=q):
                w = cmath.exp(log_gamma(rho) - rho * _LN_PI + 0.5 * rho * lnN)
                return w * _bessel_sum(k + q + rho, points, sqrtN)

            block = pref * paired_zero_sum(f, zs, spec.Z)
            s = (k + q + 0.5) / 2.0 + 0.25
            paired_tails.append(pref * amp_in * tail(cutoff, s))
            head = sum(mult * root ** (-2.0 * s) for root, _, mult in points)
            zero_weight += pref * (head + tail(cutoff, s))
        else:
            block = pref * _bessel_sum(complex(k + q), points, sqrtN).real
        components[name] = block
        value += coef * block
    cut_tail = _cut_tail(cells, tail, cutoff, N, k, paired_tails)
    edge = math.pi * max(cutoff, 1) * sqrtN  # u_ref/2 for u_ref = 2 pi cutoff sqrt N
    past_z = _envelope(N) * zero_weight * zero_tail(zs, spec.Z, C, 0.0, edge, k + 1.5)
    return TermValue(value, components, {tail_key: cut_tail, "zeros": past_z})


def m3_term(
    params: CesaroParams,
    zs: ZeroSet,
    spec: TruncationSpec,
) -> TermValue:
    """Two-squares lattice term (the "lattice" cells): J_{k+2} lattice sum
    minus the paired zero sum of J_{k+1+rho} lattice sums, over root = sqrt(lam)."""
    pts = tuple((math.sqrt(lam), 0.5 * math.log(lam), m) for lam, m in lattice_points(spec.L))
    return _bessel_term(
        _cells("lattice"), ("lattice", "zeros"), pts, _lattice_tail, "lattice", spec.L,
        params, zs, spec,
    )


def m4_term(
    params: CesaroParams,
    zs: ZeroSet,
    spec: TruncationSpec,
) -> TermValue:
    """Single-index theta term (the "m" cells): four m-sum blocks, signs
    +, -, -, +; the paired blocks carry N^{rho/2}."""
    pts = tuple((m, math.log(m), 1) for m in range(1, spec.M + 1))
    return _bessel_term(_cells("m"), _BLOCKS, pts, _m_tail, "msum", spec.M, params, zs, spec)


# ---------------------------------------------------------------------------
# Truncation auto-selection
# ---------------------------------------------------------------------------


def _smallest_cutoff(cells, tail, hi: int, N: float, k: float, tol: float) -> int:
    """Smallest cutoff n in [3, hi) whose unpaired cells' _cut_tail is
    <= tol/4; hi if there is none."""
    for n in range(3, hi):
        if _cut_tail(cells, tail, n, N, k) <= tol / 4.0:
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
    [3, 256) as the smallest for which the cut tail of the unpaired
    "lattice" and "m" cells, the rule m3_term and m4_term report, meets
    tol/4; L = 64 or M = 256 if none does.

    The paired cells' lattice/m tails carry a Z-driven amplitude that no
    cutoff can push below tol; the term evaluators report them, but they do
    not drive the choice. evaluate notes every term whose reported tail
    exceeds tol, including one whose cutoff search ran into its cap. A
    default tol or a cutoff rule past double range raises DomainError.
    """
    N, k = float(params.N), params.k
    try:
        if tol is None:
            tol = 1e-6 * N ** (k + 1.0)
        if L is None:
            L = _smallest_cutoff(_cells("lattice"), _lattice_tail, 64, N, k, tol)
        if M is None:
            M = _smallest_cutoff(_cells("m"), _m_tail, 256, N, k, tol)
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
def _term_context(name: str, wall: dict):
    """Time one part of the formula (the left side or a term) into wall[name];
    re-raise numeric failures tagged with that part, as the same exception
    with its attributes, and an OverflowError as a PrecisionError."""
    t0 = time.perf_counter()
    try:
        yield
    except (PrecisionError, DomainError) as exc:
        exc.args = (f"{name}: {exc}",)
        raise
    except OverflowError as exc:
        raise PrecisionError(
            f"{name}: a value exceeds double range ({exc})", strategy="double"
        ) from None
    wall[name] = time.perf_counter() - t0


def evaluate(
    params: CesaroParams,
    zs: ZeroSet,
    spec: TruncationSpec,
    allow_subcritical: bool = False,
) -> FormulaReport:
    """Compute both sides of the explicit formula and their residual.

    k <= 3/2 (outside the theorem range) is refused unless allow_subcritical
    is set. The m2/m3/m4 values are real by construction (conjugate pairing);
    no imaginary part is ever dropped. Every note of the report is written
    here, in this order: a subcritical k, the k = 0 convention, m2 below its
    absolute-convergence range k > 1/2, and each term whose reported tail
    bound exceeds spec.tol. Each part is timed into wallclock under its name
    and tags the failures it raises with that name.
    """
    N, k = params.N, params.k
    notes = []
    if k <= THEOREM_MIN_K:
        if not allow_subcritical:
            raise DomainError(
                f"k = {k} is outside the theorem range k > 3/2; "
                "pass allow_subcritical to probe anyway"
            )
        notes.append(f"subcritical probe: k = {k} <= 3/2")
    if k == 0.0:
        notes.append("k = 0 uses the (N-n)^0 = 1 convention at n = N")
    if k <= 0.5:
        notes.append("m2 evaluated below its absolute-convergence range k > 1/2")

    wall, values, tails = {}, {}, {}
    with _term_context("lhs", wall):
        lhs = arithmetic.cesaro_lhs(_tables_for(N), params)
    with _term_context("m1", wall):
        values["m1"] = m1_term(params)
    for name, term in (("m2", m2_term), ("m3", m3_term), ("m4", m4_term)):
        with _term_context(name, wall):
            t = term(params, zs, spec)
        values[name], tails[name] = t.value, sum(t.tail_bounds.values())
    notes.extend(
        f"{name} tail bound {tail:.3e} exceeds tol {spec.tol:.3e}"
        for name, tail in tails.items()
        if tail > spec.tol
    )

    total = sum(values.values())  # m1 + m2 + m3 + m4, in that order
    residual = lhs - total
    return FormulaReport(
        params=params,
        lhs=lhs,
        **values,
        total=total,
        residual=residual,
        normalized_residual=residual / float(N) ** (k + 1.0),
        tail_bounds=tails,
        wallclock=wall,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Threshold probe
# ---------------------------------------------------------------------------


def _omega_remainder(a: float) -> float:
    """omega(a) - (sqrt(pi/a) - 1)/2, the part of omega(a) = sum_{l>=1} e^{-a l^2}
    past its Jacobi main term.

    Below a = pi it is taken through the theta identity
    1 + 2 omega(a) = sqrt(pi/a) (1 + 2 omega(pi^2/a)), so it is computed
    directly (no cancellation) and is ~ sqrt(pi/a) e^{-pi^2/a} as a -> 0.
    """
    if a < math.pi:
        return math.sqrt(math.pi / a) * arithmetic.omega2(math.pi * math.pi / a).value.real
    return arithmetic.omega2(a).value.real - 0.5 * (math.sqrt(math.pi / a) - 1.0)


def _lower_gamma(s: float, x: float) -> float:
    """Lower incomplete gamma int_0^x t^{s-1} e^{-t} dt for s > 0."""
    with mp.workprec(64):
        return float(mp.gammainc(s, 0, x))


def threshold_probe(
    d: int,
    k: float,
    N: int,
    zs: ZeroSet,
) -> tuple:
    """The partial sums of the convergence-threshold series

        sum_{l in (Z>=1)^d} sum_{gamma>0} gamma^{-k-3/2}
            int_0^gamma e^{-N ||l||^2 v^2 / gamma^2} e^{-v} v^{k+1/2} dv,

    recorded after each zero 1/2 + i gamma (the integral is cut at
    min(gamma, 40)).

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
    integral diverges at v = 0); that, N <= 0, k <= 0, d outside {1, 2, 3}
    or a term past double range raises DomainError.
    """
    if d not in (1, 2, 3):
        raise DomainError("probe supports d in {1, 2, 3}")
    if k <= 0:
        raise DomainError("probe requires k > 0")
    if N <= 0:
        raise DomainError(f"probe requires N > 0, got {N}")
    if k + 0.5 <= d - 1:
        raise DomainError(f"probe integral diverges at v = 0: k + 1/2 = {k + 0.5} <= d - 1")
    terms = []
    partials = []
    for zero in zs.zeros:
        g = zero.gamma
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
        terms.append(g ** (-k - 1.5) * integral)
        partials.append(math.fsum(terms))
    return tuple(partials)


# ---------------------------------------------------------------------------
# Scaling study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingStudy:
    rows: tuple
    slope: float
    excluded: tuple


def fit_loglog_slope(ns, values):
    """Least-squares slope of log|value| against log n, ignoring zero rows."""
    xs, ys, excluded = [], [], []
    for n, v in zip(ns, values):
        if v == 0.0:
            excluded.append(n)
            continue
        xs.append(math.log(float(n)))
        ys.append(math.log(abs(v)))
    if len(set(xs)) < 2:
        raise DomainError("need at least 2 distinct N among the nonzero points to fit a slope")
    slope = float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])
    return slope, tuple(excluded)


def scaling_study(
    N_list,
    k: float,
    zs: ZeroSet,
    allow_subcritical: bool = False,
    **cutoffs,
) -> ScalingStudy:
    """Run evaluate over an ascending N grid and fit the residual growth;
    cutoffs (tol, Z, L, M) go to default_truncation at every N."""
    N_list = list(N_list)
    if len(N_list) < 3:
        raise DomainError("scaling study needs at least 3 N values")
    if any(a >= b for a, b in zip(N_list, N_list[1:])):
        raise DomainError("N_list must be strictly ascending")
    rows = []
    for N in N_list:
        params = CesaroParams(N=N, k=k)
        spec = default_truncation(params, zs, **cutoffs)
        rows.append(evaluate(params, zs, spec, allow_subcritical=allow_subcritical))
    slope, excluded = fit_loglog_slope(N_list, [r.residual for r in rows])
    return ScalingStudy(rows=tuple(rows), slope=slope, excluded=excluded)
