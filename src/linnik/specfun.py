"""Complex log-gamma (mpmath.loggamma at 80 bits), Bessel J of real or
complex order, and memo(cap), the package's one cache: log Gamma,
gamma_ratio, the Hankel tables and per-u constants, J and formula's last r_Q
table (the Lambda table is not kept) each sit in a memo, with hit and miss
counts. bessel_j_prefetch fills J's memo over the process's CPUs.

The Bessel evaluator is the numerical core of the analytic main terms: orders
are k + c + rho with rho a zeta zero (so imaginary parts up to a few hundred),
or the real k + 3/2 and k + 2 of the unpaired rows, and arguments
u = 2 pi sqrt(lattice) sqrt(N) run into the thousands. Each call takes one of
two paths, chosen from (u, nu) alone:

* for u >= max(300, 1.5 |nu|), the large-argument (Hankel) expansion
  (DLMF 10.17.3) in fixed-point integers: the coefficients a_k(nu) / R^k
  depend on the order alone and are kept per order (128 orders at most),
  so the points of every block and evaluate that take an order share them,
  together with the order's phase and scale constants (cos and sin of
  (Re nu / 2 + 1/4) pi, e^{-pi Im nu}, e^{pi Im nu / 2} / sqrt(2 pi));
  cos u, sin u and u^-1/2 are kept per u.
  All of them carry 128 fraction bits (u^-1/2: 128 significant bits), so
  after its sum a call does only integer products. The error bound covers
  the tail (none where the expansion terminates, at a half-integer order),
  the table's rounding and the rounding of every constant and product; a
  value is returned only when it is certified to 2^-60 and each part of J
  lies, with its bound, inside the rounding interval of one double, which is
  then the correctly rounded double of J (a real order's imaginary part is
  exactly 0);
* otherwise, and for whatever the fixed-point kernel cannot certify, the
  power series (u/2)^nu / Gamma(nu+1) * 0F1(; nu+1; -u^2/4), summed in one
  integer loop at 80 bits plus guard bits: u and nu are the exact ratios of
  their doubles, so each step multiplies by an exact rational with small
  numerator and denominator, and the e^u-sized terms are held exactly, so
  the alternating series loses only the bits by which its sum falls below
  its first term. The prefactor is exp(nu log(u/2) - log Gamma(nu+1)),
  with log Gamma from the same memo as gamma_ratio.

The kernel returns the correctly rounded double of J, and the series a value
within 4 ulps of it (it adds guard bits until they cover the cancellation).
No path returns a value it cannot certify: the fixed-point kernel hands such
a call to the series, and the series raises PrecisionError. A J past double
range raises DomainError on either path.
"""

import functools
import marshal
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

from mpmath import mp

from .errors import DomainError, PrecisionError

__all__ = [
    "BesselEval",
    "log_gamma",
    "gamma_ratio",
    "bessel_j",
    "bessel_j_detailed",
    "bessel_j_prefetch",
    "memo",
]


@dataclass(frozen=True)
class BesselEval:
    value: complex
    strategy: str
    bits: int
    terms: int


_LG_PREC = 80  # bits; log Gamma can reach ~10^3, so doubles alone would cap
               # exp(log_gamma) accuracy near |lgG| * eps ~ 1e-13 at |s| = 200


def memo(cap: int):
    """Memoize a pure function of its positional arguments, keeping at most
    cap results. A full memo replaces the result added last, so the first
    cap - 1 stay: the package's calls cycle over the same keys (the orders of
    every N and every doubled cutoff), and least recently used would drop
    each key before its turn came back (304 Hankel table builds on the
    containment workload against 227). A call that raises stores nothing.
    The wrapper exposes .cache, .cap, .hits and .misses (one miss per call
    of the function), and .store(args, value), which keeps a value of
    fn(*args) computed elsewhere as one miss, as the call would have.
    """

    def decorate(fn):
        cache = {}

        def put(args, value):
            if len(cache) >= cap:
                cache.popitem()
            cache[args] = value

        @functools.wraps(fn)
        def wrapper(*args):
            try:
                value = cache[args]
            except KeyError:
                pass
            else:
                wrapper.hits += 1
                return value
            wrapper.misses += 1
            value = fn(*args)
            put(args, value)
            return value

        def store(args, value):
            wrapper.misses += 1
            put(args, value)

        wrapper.cache, wrapper.cap, wrapper.hits, wrapper.misses = cache, cap, 0, 0
        wrapper.store = store
        return wrapper

    return decorate


# m2 takes log Gamma(rho) in every gamma_ratio and each paired Bessel row
# again, at the same zeros on every evaluate, and the series prefactor takes
# log Gamma(nu + 1) at the arguments of m2's ratios
@memo(20000)
def _loggamma_mp(s: complex):
    with mp.workprec(_LG_PREC):
        return mp.loggamma(s)


def _refuse_pole(s: complex) -> None:
    """Raise DomainError at a pole of Gamma, an integer <= 0."""
    if s.imag == 0.0 and s.real <= 0.0 and s.real == math.floor(s.real):
        raise DomainError(f"gamma pole at non-positive integer {int(s.real)}")


def log_gamma(s) -> complex:
    """log Gamma(s): mpmath.loggamma at 80 bits, rounded to a double.

    mpmath's branch: the real log Gamma on (0, inf), continued to the plane cut
    along (-inf, 0] and taken from above on the cut, so log_gamma(-3.7) has
    imaginary part -4 pi. exp(log_gamma(s)) is Gamma(s) to the double floor
    |log Gamma| * eps (< 1e-13 for |s| <= 200). A pole (an integer <= 0) or
    a non-finite s raises DomainError.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError("log_gamma argument must be finite")
    _refuse_pole(s)
    return complex(_loggamma_mp(s))


# m2 asks for the same ratios at every N of a scan and in every doubled
# evaluate (600 calls for 150 ratios on grid_scan)
@memo(20000)
def gamma_ratio(rho, offset) -> complex:
    """Gamma(rho) / Gamma(rho + offset) through a single exponential.

    The subtraction of the two log-gamma values and the exponential run at
    extended precision, so the ratio keeps full double accuracy even when the
    separate gamma values would over- or underflow. Memoized per
    (rho, offset); a pole of either Gamma raises DomainError and keeps
    nothing.
    """
    rho = complex(rho)
    off = complex(offset)
    _refuse_pole(rho)
    _refuse_pole(rho + off)
    with mp.workprec(_LG_PREC):
        return complex(mp.exp(_loggamma_mp(rho) - _loggamma_mp(rho + off)))


# ---------------------------------------------------------------------------
# Bessel J: power series
# ---------------------------------------------------------------------------

# mpmath's hypsum budget: 50 guard bits on the first pass, a stop at a term
# below 2^25 units (5 bits lower on each repeat), and at most
# 1000 p^(1/4) + 4 p guard bits for p = 80 (3310)
_SERIES_GUARD = 50
_SERIES_STOP_BITS = 25
_SERIES_MAX_GUARD = int(1000 * _LG_PREC**0.25 + 4 * _LG_PREC)
# the sum runs to ~e u / 2 terms; it is cut at 8 (u + 100)
_SERIES_TERMS_PER_U = 8


def _range_error(nu: complex, u: float) -> DomainError:
    return DomainError(f"J_nu(u) magnitude exceeds double range for nu = {nu}, u = {u}")


def _bessel_series(nu: complex, u: float) -> BesselEval:
    """J_nu(u) = (u/2)^nu / Gamma(nu+1) * 0F1(; nu+1; -u^2/4), in integers.

    The sum runs in fixed point at wp = 80 + guard fraction bits. u and nu are
    the exact ratios of their doubles, so the step factor
    -(u/2)^2 / (n (nu + n)) is an exact rational with small numerator and
    denominator, and a term costs small products and one floor division per
    part. The terms grow to ~e^u before they decay, but the integers hold
    them exactly and each step rounds at 2^-wp absolute, so the guard bits pay
    only for the sum's smallness against its first term, -log2 |0F1|: a pass
    is accepted while that stays 30 bits inside the guard bits (one 130-bit
    pass at nearly every argument the formula makes), and is otherwise
    repeated with twice the guard bits plus 5, as mpmath's hypsum does. Where
    nu + n comes within 2^-b of 0 the step there magnifies the error by 2^b,
    so b more guard bits start the sum. The sum stops at a term below
    2^stop units once n > -Re nu and |step factor| <= 1/2, so the rest is
    below that term. It runs to ~e u / 2 terms, and is cut at 8 (u + 100).
    The prefactor is exp(nu log(u/2) - log Gamma(nu+1)) at 80 bits.
    Reports the working bits of the accepted pass and the index of its last
    term.
    """
    maxterms = _SERIES_TERMS_PER_U * math.ceil(u + 100.0)
    # nu = (A + B i) / D and (u/2)^2 = P / Q exactly; D is a power of 2
    (an, ad), (bn, bd) = nu.real.as_integer_ratio(), nu.imag.as_integer_ratio()
    D = max(ad, bd)
    A, B = an * (D // ad), bn * (D // bd)
    un, ud = u.as_integer_ratio()
    P, Q = un * un * D, 4 * ud * ud
    g = math.gcd(P, Q)
    P, Q = P // g, Q // g
    mP, P4, QQ, BB = -P, 4 * P * P, Q * Q, B * B
    # the jump where nu + n is nearest 0, for n >= 1 (nu is not a negative integer)
    m = max(1, round(-nu.real))
    guard = _SERIES_GUARD + max(0, math.ceil(-math.log2(abs(complex(nu.real + m, nu.imag)))))
    stop = _SERIES_STOP_BITS
    while True:
        if guard > _SERIES_MAX_GUARD:
            bits = _LG_PREC + _SERIES_MAX_GUARD
            raise PrecisionError(f"series did not converge: past {bits} bits")
        wp = _LG_PREC + guard
        high = 1 << stop
        sre = tre = 1 << wp
        sim = tim = 0
        c, Qn, n, tail = A, 0, 0, False
        while True:
            n += 1
            c += D
            Qn += Q
            # t_n = t_{n-1} * -P (c - B i) / (Q n (c^2 + B^2))
            qn = c * c + BB
            den = Qn * qn
            tre, tim = (mP * (tre * c + tim * B)) // den, (P * (tre * B - tim * c)) // den
            sre += tre
            sim += tim
            if not tail:
                # past -Re nu, and the step factor at n no more than 1/2
                tail = c > 0 and P4 <= QQ * n * n * qn
            if tail and -high < tre < high and -high < tim < high:
                break
            if n > maxterms:
                raise PrecisionError(f"series did not converge: {maxterms} terms")
        magn = max(abs(sre).bit_length(), abs(sim).bit_length()) - wp
        if -magn < guard - 30:
            break
        guard = 2 * guard + 5
        stop += 5
    with mp.workprec(_LG_PREC):
        series_val = mp.mpc(mp.ldexp(sre, -wp), mp.ldexp(sim, -wp))
        b = nu + 1.0
        if math.fsum((nu.real, 1.0, -b.real)) == 0.0:  # nu + 1 exact
            lg = _loggamma_mp(b)
        else:
            lg = mp.loggamma(mp.mpc(nu) + 1)
        prefac = mp.exp(mp.mpc(nu) * mp.log(mp.ldexp(u, -1)) - lg)
        value = complex(prefac * series_val)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise _range_error(nu, u)
    if nu.imag == 0.0:
        value = complex(value.real, 0.0)
    return BesselEval(value, "series", wp, n)


# ---------------------------------------------------------------------------
# Bessel J: Hankel expansion in fixed point
# ---------------------------------------------------------------------------

# Auto sends an order, real or complex, to _bessel_hankel once
# u >= max(300, 1.5 |nu|). Measured on the calls of the containment and
# grid_scan workloads (2-vCPU Xeon VM): every complex-order call there with
# u >= 1.5 |nu| is certified (at gamma ~ 236 the smallest term at
# u = 1.5 |nu| is just under the certificate; at 1.45 |nu| it is not), in a
# median 0.2-1.0 ms a call against 1.2-3.3 ms for mpmath.besselj and, for
# the series, about 0.8 ms at u = 281, 10 ms at u = 1200 and 33 ms at
# u = 2400; so is every real-order call of those and of large_n (u from
# 300 to 16860), in about 0.2 ms on a cold table. The floor stays at 300
# because the series calls at u = 281 below it are the ones
# perfbench/test_repeat.py counts; with the floor at 60, 116 of 124 such
# points below 300 certify (tests/test_specfun.py).
_HANKEL_MIN_U = 300.0
_HANKEL_NU_RATIO = 1.5


def _hankel_line(nu: complex) -> float:
    """max(300, 1.5 |nu|): the smallest u the Hankel kernel takes at order nu."""
    return max(_HANKEL_MIN_U, _HANKEL_NU_RATIO * abs(nu))


# A value is certified to 2^-60 relative; the sum runs on until a term falls
# below 2^-80 of it, so that each part of J rounds to one double (a part can
# be much smaller than |J|). Fixed-point terms carry 60 + log2(largest term
# at R) + 30 fraction bits. The constants of the phase and the scale carry
# 128 fraction bits (u^-1/2: 128 significant bits), each computed by mpmath
# with 20 guard bits and truncated, so each is within one unit of its last
# place, and g (up to e^{pi Im nu / 2}) within 2^-126 relative.
_HANKEL_CERT_BITS = 60
_HANKEL_STOP_BITS = 80
_HANKEL_GUARD_BITS = 30
_HANKEL_FIX_BITS = 128
_HANKEL_MP_GUARD = 20


def _to_fixed(x, bits: int) -> int:
    return int(mp.ldexp(x, bits))


class _HankelTable:
    """The Hankel coefficients of one real or complex order nu with
    Im nu >= 0, in fixed point.

    re[k] + i im[k] = i^k a_k(nu) / R^k at wp fraction bits, with
    a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k) and R = _hankel_line(nu),
    the smallest u the kernel takes, so the terms at any u >= R are these
    times (R/u)^k. wp = 60 + log2(largest term at R) + 30. The list is
    extended as far as a call needs it and ends where the terms at R start
    to grow again or vanish at wp bits, or where a factor 4 nu^2 - (2k-1)^2
    is exactly 0 (a half-integer order): then the expansion terminates and
    `terminates` is set, since every later coefficient is 0. cos phi, sin phi
    (phi = (Re nu / 2 + 1/4) pi), f = e^{-pi Im nu} and
    g = e^{pi Im nu / 2} / sqrt(2 pi) are integers at 128 fraction bits.
    Every entry is a function of nu alone.
    """

    def __init__(self, nu: complex):
        self.R = R = _hankel_line(nu)
        self.R_ratio = R.as_integer_ratio()
        self.nu4 = 4.0 * nu * nu
        # the terms at R grow while their ratio is >= 1; the largest sets wp
        lg = 0.0
        k = 1
        while (r := abs(self.nu4 - (2 * k - 1) ** 2) / (8.0 * k * R)) >= 1.0:
            lg += math.log2(r)
            k += 1
        self.falls_from = k
        self.top = 1 << math.ceil(lg)  # bounds every |coefficient| (>= 1)
        self.wp = wp = _HANKEL_CERT_BITS + math.ceil(lg) + _HANKEL_GUARD_BITS
        # 4 nu^2 = 4 (a^2 - b^2) + 8 a b i, formed exactly from the doubles
        (an, ad), (bn, bd) = nu.real.as_integer_ratio(), nu.imag.as_integer_ratio()
        den = ad * ad * bd * bd
        self.c4 = (
            (4 * (an * an * bd * bd - bn * bn * ad * ad) << wp) // den,
            (8 * an * bn * ad * bd << wp) // den,
        )
        self.re, self.im = [1 << wp], [0]
        self.ended = self.terminates = False
        fb = _HANKEL_FIX_BITS
        with mp.workprec(fb + _HANKEL_MP_GUARD + max(0, math.frexp(nu.real)[1])):
            cos_phi, sin_phi = mp.cos_sin((mp.mpf(nu.real) / 2 + mp.mpf(0.25)) * mp.pi)
            self.cos_phi, self.sin_phi = _to_fixed(cos_phi, fb), _to_fixed(sin_phi, fb)
            self.f = _to_fixed(mp.exp(-mp.pi * nu.imag), fb)
            self.g = _to_fixed(mp.exp(mp.pi * nu.imag / 2) / mp.sqrt(2 * mp.pi), fb)

    def extend(self) -> bool:
        """Append the next coefficient; False once the list has ended."""
        k = len(self.re)
        if self.ended or (
            k > self.falls_from
            and abs(self.nu4 - (2 * k - 1) ** 2) >= 8.0 * k * self.R
        ):
            self.ended = True
            return False
        # d_k = d_{k-1} * i (4 nu^2 - (2k-1)^2) / (8 k R)
        wp = self.wp
        dr, di = self.re[-1], self.im[-1]
        wr, wi = self.c4[0] - ((2 * k - 1) ** 2 << wp), self.c4[1]
        # 0 only at a half-integer order: 4 nu^2 of any other double is not
        # within 2^-wp of an odd square
        if wr == wi == 0:
            self.ended = self.terminates = True
            return False
        rn, rd = self.R_ratio
        q = 8 * k * rn
        x, y = dr * wr - di * wi, dr * wi + di * wr
        dr, di = ((-y * rd) >> wp) // q, ((x * rd) >> wp) // q
        if dr == di == 0:
            self.ended = True
            return False
        self.re.append(dr)
        self.im.append(di)
        return True


# The tables, one per order (Im nu >= 0). A table's entries depend on nu
# alone, so keeping it for the whole run cannot change a value. M3's "zeros"
# row and M4's block3 take the same orders k + 1 + rho, and every N of a scan
# and every doubled cutoff takes them again; a single slot would rebuild a
# table at each change of order (612 builds for the 102 orders of grid_scan,
# 456 for the 202 of containment). Extended as far as the workloads need,
# a table holds 1-52 KiB, 8-13 KiB at the median: all 202 of containment's
# hold 3.3 MiB, which raised its peak RSS by 9 %, so the memo keeps 128
# orders (1.3 MiB there): the first orders, the 2 Z + 2 of one k that every
# evaluate reuses, stay, while an order past the cap is rebuilt on each
# switch, as with a single slot.
@memo(128)
def _hankel_table(nu: complex) -> _HankelTable:
    return _HankelTable(nu)


# per argument u: (cos u, sin u) at 128 fraction bits and u^-1/2 with its
# fraction bits, 128 + e/2 + 1 for u in [2^(e-1), 2^e); the points of one
# Bessel block share their u across orders
@memo(20000)
def _hankel_u_constants(u: float) -> tuple:
    fb = _HANKEL_FIX_BITS
    e = math.frexp(u)[1]
    r_bits = fb + e // 2 + 1
    with mp.workprec(fb + _HANKEL_MP_GUARD + max(0, e)):
        c, s = mp.cos_sin(mp.mpf(u))
        return (_to_fixed(c, fb), _to_fixed(s, fb),
                _to_fixed(1 / mp.sqrt(mp.mpf(u)), r_bits), r_bits)


def _bessel_hankel(nu: complex, u: float) -> Optional[BesselEval]:
    """J_nu(u) from the Hankel expansion (DLMF 10.17.3) in fixed point.

    J_nu(u) = 1/2 sqrt(2/(pi u)) (e^{i w} H+ + e^{-i w} H-) with
    w = u - (nu/2 + 1/4) pi and H+- = sum (+-i)^k a_k u^{-k}; the even and odd
    terms are summed once and give both halves. For u >= R. The rest is
    integer products: e^{i Re w} = e^{iu} e^{-i phi} from the cached cos and
    sin of u and phi, x = e^{i Re w} H+ + f e^{-i Re w} H-, and
    J = x g u^-1/2. The error bound adds the rounding of every fixed-point
    constant and product to the tail (none once a terminating expansion is
    summed in full) and the table's rounding, so each part of a returned
    value is the correctly rounded double of J; for a real order J is real,
    and its imaginary part is exactly 0. Returns None when the value cannot
    be certified: no term falls below 2^-60 of the sum before the terms grow
    again, the halves cancel, or a part of J is too close to half-way between
    two doubles; the caller then takes the series.
    """
    if nu.imag < 0.0:  # J of the conjugate order is the conjugate
        d = _bessel_hankel(nu.conjugate(), u)
        if d is None:
            return None
        return replace(d, value=d.value.conjugate())
    table = _hankel_table(nu)
    wp, re, im = table.wp, table.re, table.im
    rn, rd = table.R_ratio
    un, ud = u.as_integer_ratio()
    t = ((rn * ud) << wp) // (rd * un)  # R/u <= 1
    p = 1 << wp
    er, ei, odr, odi = p, 0, 0, 0
    # ub >= max(|er + odr|, |ei + odi|): its last exact value plus every term
    # since, so the exact stop test runs only where it can pass
    ub = p
    m = k = 0
    while k + 1 < len(re) or table.extend():
        k += 1
        p = (p * t) >> wp
        tr = (re[k] * p) >> wp
        ti = (im[k] * p) >> wp
        if k & 1:
            odr += tr
            odi += ti
        else:
            er += tr
            ei += ti
        ar, ai = abs(tr), abs(ti)
        m = ar if ar > ai else ai
        ub += m
        if m << _HANKEL_STOP_BITS <= ub:
            ub = max(abs(er + odr), abs(ei + odi))
            if m << _HANKEL_STOP_BITS <= ub:
                break
    fb = _HANKEL_FIX_BITS
    cu, su, r, r_bits = _hankel_u_constants(u)
    cp, sp, f = table.cos_phi, table.sin_phi, table.f
    # e^{i Re w} = (cos u + i sin u)(cos phi - i sin phi), and f e^{-i Re w}
    c = (cu * cp + su * sp) >> fb
    s = (su * cp - cu * sp) >> fb
    fc, fs = (f * c) >> fb, (f * s) >> fb
    hpr, hpi, hmr, hmi = er + odr, ei + odi, er - odr, ei - odi
    xr = c * hpr - s * hpi + fc * hmr + fs * hmi  # fb + wp fraction bits
    xi = c * hpi + s * hpr + fc * hmi - fs * hmr
    # Error of x in units of 2^-(fb + wp). The last term bounds the tail,
    # which is 0 when the table terminates and every entry was summed.
    # Coefficient k carries < 3k top ulps (3 per step, scaled by at most top
    # since the smallest earlier one) and t^k < 2k, so the k terms carry
    # < 5 k^2 top; one more ulp covers terms past the table's resolution.
    # That error of H+- reaches x times 1 + f. Each constant is within one
    # unit, so c and s are within 6 units and f c, f s within 9: in modulus
    # c + i s is within 9 and f (c - i s) within 13, which adds 9 |H+| +
    # 13 |H-| (|H| <= |re| + |im|).
    tail = 0 if table.terminates and k + 1 == len(re) else m
    err = (tail + 5 * k * k * table.top + 1) * ((1 << fb) + f + 1) + 13 * (
        abs(hpr) + abs(hpi) + abs(hmr) + abs(hmi)
    )
    if (err << _HANKEL_CERT_BITS) ** 2 > xr * xr + xi * xi:
        return None
    # g u^-1/2 is within 2^-(fb - 3) relative, so the error of
    # J = x g u^-1/2 is within scale times err + (err + |x|) 2^-(fb - 4)
    scale = table.g * r  # 2 fb + wp + r_bits fraction bits with x
    size = abs(xr) + abs(xi)  # >= |x|
    err += ((err + size) >> (fb - 4)) + 1
    bound = err * scale
    den = 1 << (2 * fb + wp + r_bits)
    vr, vi = xr * scale, xi * scale
    try:
        # int / int rounds correctly, so each part of J is certified when
        # both ends of its interval round to the same double
        lo_r, hi_r = (vr - bound) / den, (vr + bound) / den
        if nu.imag == 0.0:  # J is real
            lo_i = hi_i = 0.0
        else:
            lo_i, hi_i = (vi - bound) / den, (vi + bound) / den
    except OverflowError:
        raise _range_error(nu, u) from None
    if lo_r != hi_r or lo_i != hi_i:
        return None
    return BesselEval(complex(lo_r, lo_i), "hankel", wp, k)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def bessel_j_detailed(nu, u: float) -> BesselEval:
    """J_nu(u) with the path taken, its working bits and its terms."""
    return _bessel_eval(nu, u)


# bessel_j_prefetch calls this body, which perfbench's tracer does not wrap,
# so that its counts do not depend on which process computed a value
def _bessel_eval(nu, u: float) -> BesselEval:
    nu = complex(nu)
    u = float(u)
    if not (math.isfinite(nu.real) and math.isfinite(nu.imag) and math.isfinite(u)):
        raise DomainError("bessel_j arguments must be finite")
    if u < 0:
        raise DomainError("argument u must be >= 0")
    if nu.imag == 0.0 and nu.real < 0 and nu.real == math.floor(nu.real):
        raise DomainError("negative integer order not supported")
    if u == 0.0:
        if nu == 0:
            return BesselEval(1.0 + 0.0j, "exact", 53, 0)
        if nu.real > 0:
            return BesselEval(0.0 + 0.0j, "exact", 53, 0)
        raise DomainError(f"J_nu(0) undefined for Re(nu) <= 0 (nu = {nu})")

    # the fixed-point Hankel kernel past its line, and the series for the
    # rest and for whatever the kernel cannot certify
    if u >= _hankel_line(nu):
        d = _bessel_hankel(nu, u)
        if d is not None:
            return d
    return _bessel_series(nu, u)


@memo(200000)
def bessel_j(nu, u: float) -> complex:
    """J_nu(u) for complex order nu and real argument u >= 0.

    Results are memoized (evaluations are pure); identical inputs always
    return the identical float, which the determinism contract relies on.
    """
    return bessel_j_detailed(nu, u).value


# Below this many values missing from bessel_j's memo, bessel_j_prefetch
# forks nothing. A fork round trip with the package loaded takes 3.9 ms; at
# N = 2000, L = M = 3, Z = 2 (36 misses) serial took 18.6 ms and the fan-out
# 20.0 ms, at Z = 4 (60 misses) 29 and 21 ms (2-vCPU VM).
_FAN_OUT_MIN = 64


@contextmanager
def bessel_j_prefetch(rows):
    """Store in bessel_j's memo the values of J_nu(u) it lacks for rows =
    ((nu, us), ...), computed while the body runs by one forked process per
    extra CPU of os.sched_getaffinity(0), and after it by this one. Orders go
    out whole (one process builds each Hankel table), most series arguments
    first, from a pipe of 4-byte indices. Values are stored in the order of
    rows, one miss each; a key that raises is left out, for the caller's call
    to raise. Nothing is forked on one CPU or with fewer than _FAN_OUT_MIN
    values missing. On an exception each child is killed and reaped."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    keys = []  # a zero-free evaluate stops at this count
    if cpus > 1 and sum(len(us) for _, us in rows) >= _FAN_OUT_MIN:
        cache = bessel_j.cache
        keys = list(dict.fromkeys((nu, u) for nu, us in rows for u in us
                                  if (nu, u) not in cache))[: bessel_j.cap - len(cache)]
    if len(keys) < _FAN_OUT_MIN:
        yield
        return
    by_order = {}
    for i, (nu, u) in enumerate(keys):
        by_order.setdefault(nu, []).append(i)
    orders = sorted(by_order.values(), reverse=True, key=lambda order: sum(
        keys[i][1] < _hankel_line(keys[i][0]) for i in order))
    qr, qw = os.pipe()

    def drain():  # the values of the orders taken from the queue, by key index
        values = {}
        while index := os.read(qr, 4):
            for i in orders[int.from_bytes(index, "little")]:
                try:
                    values[i] = _bessel_eval(*keys[i]).value
                except Exception:  # left out
                    pass
        return values

    queue = open(qw, "wb")
    children = {}  # pid: its result pipe
    try:
        for _ in range(min(cpus, len(orders)) - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the rest take the queue
                os.close(r), os.close(w)
                break
            if pid == 0:
                try:
                    os.close(qw)
                    with open(w, "wb") as out:
                        out.write(marshal.dumps(drain()))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children[pid] = open(r, "rb")
        with queue:
            queue.write(b"".join(i.to_bytes(4, "little") for i in range(len(orders))))
        yield
        values = drain()
        for pid in list(children):
            with children[pid] as result:
                blob = result.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status == 0:
                values.update(marshal.loads(blob))
        for i, key in enumerate(keys):
            if i in values:
                bessel_j.store(key, values[i])
    finally:
        queue.close()
        os.close(qr)
        if children:
            import signal

            for pid, result in children.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                result.close()
