"""Complex log-gamma (mpmath.loggamma at 80 bits), Bessel J of complex order,
and Laplace line integrals.

The Bessel evaluator is the numerical core of the analytic main terms: orders
are k + c + rho with rho a zeta zero (so imaginary parts up to a few hundred)
and arguments u = 2 pi sqrt(lattice) sqrt(N) run into the thousands. Each
call takes one of three paths, chosen from (u, |nu|) alone:

* the large-argument (Hankel) asymptotic expansion, when u >= 4 |nu|^2 and
  its own error estimate certifies a relative error of 1e-10;
* mpmath.besselj at 53 bits, for a real order the Hankel expansion refuses
  (close to a zero of J), and for any order the Hankel branch does not take
  once u >= max(300, 4 |nu|), past the measured point where it beats the
  series;
* otherwise the power series (u/2)^nu / Gamma(nu+1) * 0F1(; nu+1; -u^2/4),
  summed by mpmath.hyper in fixed-point integers at 80 bits plus guard
  bits: the e^u-sized terms are held exactly, so the alternating series
  loses only the bits by which its sum falls below its first term.

Direct quadrature of the contour-integral representation
(u/2)^nu / (2 pi i) * int e^s s^{-nu-1} e^{-u^2/(4 s)} ds over a vertical
line, bessel_j_sonine, is kept as an independent cross-check oracle.

Every path returns an error estimate and raises PrecisionError instead of
silently returning a value it cannot certify.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from mpmath import mp
from mpmath.libmp import NoConvergence

from .errors import DomainError, PoleError, PrecisionError
from .quadrature import adaptive_gauss_kronrod

__all__ = [
    "BesselEval",
    "log_gamma",
    "gamma_ratio",
    "bessel_j",
    "bessel_j_detailed",
    "bessel_j_sonine",
    "laplace_line_integral",
]


# The relative error the Hankel expansion must certify, and the relative
# accuracy the Laplace line integral asks of its quadrature.
_REL_TOL = 1e-10


@dataclass(frozen=True)
class BesselEval:
    value: complex
    strategy: str
    bits: int
    terms: int
    err_estimate: float


_LG_PREC = 80  # bits; log Gamma can reach ~10^3, so doubles alone would cap
               # exp(log_gamma) accuracy near |lgG| * eps ~ 1e-13 at |s| = 200


def log_gamma(s) -> complex:
    """log Gamma(s): mpmath.loggamma at 80 bits, rounded to a double.

    mpmath's branch: the real log Gamma on (0, inf), continued to the plane cut
    along (-inf, 0] and taken from above on the cut, so log_gamma(-3.7) has
    imaginary part -4 pi. exp(log_gamma(s)) is Gamma(s) to the double floor
    |log Gamma| * eps (< 1e-13 for |s| <= 200).
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError("log_gamma argument must be finite")
    if s.imag == 0.0 and s.real <= 0.0 and s.real == math.floor(s.real):
        raise PoleError(int(s.real))
    with mp.workprec(_LG_PREC):
        return complex(mp.loggamma(s))


def gamma_ratio(rho, offset) -> complex:
    """Gamma(rho) / Gamma(rho + offset) through a single exponential.

    The subtraction of the two log-gamma values and the exponential run at
    extended precision, so the ratio keeps full double accuracy even when the
    separate gamma values would over- or underflow.
    """
    rho = complex(rho)
    off = complex(offset)
    for arg in (rho, rho + off):
        if arg.imag == 0.0 and arg.real <= 0.0 and arg.real == math.floor(arg.real):
            raise PoleError(int(arg.real))
    with mp.workprec(_LG_PREC):
        return complex(mp.exp(mp.loggamma(rho) - mp.loggamma(rho + off)))


# ---------------------------------------------------------------------------
# Bessel J: power series
# ---------------------------------------------------------------------------

# mpmath adds guard bits until it has accounted for the cancellation, so a
# result of its rounded to a double is claimed to a couple of ulps relative.
_MPMATH_REL_ERR = 4.0 * 2.0**-53


def _require_finite(value: complex, nu: complex, u: float, strategy: str):
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise PrecisionError(
            f"J_nu(u) magnitude exceeds double range for nu = {nu}, u = {u}",
            strategy=strategy,
            requested=_REL_TOL,
        )


def _bessel_series(nu: complex, u: float) -> BesselEval:
    """J_nu(u) = (u/2)^nu / Gamma(nu+1) * 0F1(; nu+1; -u^2/4), summed by mpmath.

    mp.hyper sums the series in fixed-point integers at 80 bits plus guard
    bits. The terms grow to ~e^u before they decay, but the integers hold
    them exactly and each step rounds at 2^-wp absolute, so the guard bits pay
    only for the sum's smallness against its first term, -log2 |0F1| (one
    130-bit pass at nearly every argument the formula makes). The sum runs
    to ~e u / 2 terms, past mpmath's default cap of 100 per working bit once
    u passes ~9600, so the cap is 8 (u + 100) terms. -u^2/4 is formed exactly.
    """
    maxterms = 8 * math.ceil(u + 100.0)
    with mp.workprec(_LG_PREC):
        nu_m = mp.mpc(nu)
        b = nu_m + 1
        q = mp.ldexp(mp.fmul(-u, u, exact=True), -2)
        try:
            series_val = mp.hyper([], [b], q, force_series=True, maxterms=maxterms)
        except (NoConvergence, ValueError) as exc:  # ValueError: past maxprec
            raise PrecisionError(
                f"series did not converge: {exc}",
                strategy="series",
                requested=_REL_TOL,
            ) from exc
        prefac = (mp.mpf(u) / 2) ** nu_m / mp.gamma(b)
        value = complex(prefac * series_val)
    _require_finite(value, nu, u, "series")
    if nu.imag == 0.0:
        value = complex(value.real, 0.0)
    return BesselEval(value, "series", _LG_PREC, 0, _MPMATH_REL_ERR)


# ---------------------------------------------------------------------------
# Bessel J: Hankel asymptotic expansion
# ---------------------------------------------------------------------------

_ASYMP_MIN_U = 25.0


def _bessel_asymptotic(nu: complex, u: float) -> BesselEval:
    """Large-argument expansion sqrt(2/(pi u)) (P cos chi - Q sin chi)."""
    if math.pi * abs(nu.imag) / 2.0 > 700.0:
        raise PrecisionError(
            "cos/sin of chi would overflow double range",
            strategy="asymptotic",
            requested=_REL_TOL,
        )
    nu2 = 4.0 * nu * nu
    c = 1.0 + 0.0j
    p_sum = 1.0 + 0.0j
    q_sum = 0.0 + 0.0j
    min_mag = math.inf
    prev_mag = math.inf
    terms = 0
    for m in range(1, 60):
        c = c * (nu2 - (2 * m - 1) ** 2) / (8.0 * u * m)
        mag = abs(c)
        if mag >= prev_mag and m > 2:
            break  # divergence onset; truncate at the smallest term
        sign = -1.0 if (m // 2) % 2 else 1.0
        if m % 2:
            q_sum += sign * c
        else:
            p_sum += sign * c
        terms = m
        min_mag = min(min_mag, mag)
        prev_mag = mag
        if mag < 1e-20:
            break
    chi = u - (0.5 * nu + 0.25) * math.pi
    cos_chi = cmath.cos(chi)
    sin_chi = cmath.sin(chi)
    scale = math.sqrt(2.0 / (math.pi * u))
    value = scale * (p_sum * cos_chi - q_sum * sin_chi)
    mag_ref = abs(value)
    trig_mag = max(abs(cos_chi), abs(sin_chi))
    # last factor: trig argument reduction costs ~|Re chi| ulps near a zero
    err_abs = scale * trig_mag * (
        min_mag
        + 30.0 * 2.2e-16 * (abs(p_sum) + abs(q_sum))
        + (abs(chi.real) + 2.0) * 2.2e-16
    )
    err_rel = err_abs / mag_ref if mag_ref > 0 else math.inf
    if err_rel > _REL_TOL:
        raise PrecisionError(
            "asymptotic expansion could not certify target tolerance",
            strategy="asymptotic",
            achieved=err_rel,
            requested=_REL_TOL,
        )
    if nu.imag == 0.0:
        value = complex(value.real, 0.0)
    return BesselEval(value, "asymptotic", 53, terms, err_rel)


# Auto sends a complex order to mpmath.besselj once u >= max(300, 4 |nu|).
# Measured per call on the series calls of the containment and grid_scan
# workloads (2-vCPU Xeon VM): below u = 150 the series wins every call (0.6
# against 1.0 ms); the two are about even at u = 300-350; past u = 1000
# mpmath wins every call (1.2-1.7 against 12-21 ms). Below u ~ 4 |nu|
# mpmath's asymptotic form does not converge and besselj falls back to the
# same series after the failed attempt, so the series stays there.
_MPMATH_MIN_U = 300.0
_MPMATH_NU_RATIO = 4.0


def _bessel_mpmath(nu: complex, u: float) -> BesselEval:
    """J_nu(u) from mpmath.besselj at 53 bits; a real order gives a real value."""
    try:
        with mp.workprec(53):
            value = complex(mp.besselj(nu.real if nu.imag == 0.0 else nu, u))
    except NoConvergence as exc:
        raise PrecisionError(
            f"mpmath besselj did not converge: {exc}",
            strategy="mpmath",
            requested=_REL_TOL,
        ) from exc
    _require_finite(value, nu, u, "mpmath")
    return BesselEval(value, "mpmath", 53, 0, _MPMATH_REL_ERR)


# ---------------------------------------------------------------------------
# Bessel J: contour-quadrature oracle
# ---------------------------------------------------------------------------


def bessel_j_sonine(nu, u: float, prec_bits: int = 200, abscissa: float = 1.0) -> complex:
    """Cross-check oracle: vertical-line contour integral for J_nu(u).

    The line Re s = abscissa is deformed to a bracket (finite vertical segment
    plus two horizontal rays at Im s = +-T on which e^s decays); the essential
    singularity at s = 0 stays outside the deformation region for every T > 0,
    so the bracket value equals the line integral exactly. The value is
    independent of the abscissa, which unit tests assert rather than assume.
    """
    if u <= 0:
        raise DomainError("oracle requires u > 0")
    if abscissa <= 0:
        raise DomainError("contour abscissa must be positive")
    with mp.workprec(prec_bits + 80):
        nu_m = mp.mpc(nu)
        u_m = mp.mpf(u)
        a_m = mp.mpf(abscissa)
        q = u_m * u_m / 4

        def f(sv):
            return mp.e ** (sv - q / sv) * sv ** (-nu_m - 1)

        T = u_m / 2 + 30
        n_panels = int(2 * T / (math.pi / 2)) + 1
        pts = mp.linspace(-T, T, n_panels + 1)
        vertical = mp.quad(lambda t: f(a_m + 1j * t) * 1j, pts)
        ray = [-mp.inf, a_m - 200, a_m - 80, a_m - 20, a_m - 5, a_m]
        top = mp.quad(lambda x: f(x + 1j * T), ray)
        bottom = mp.quad(lambda x: f(x - 1j * T), ray)
        total = bottom + vertical - top
        value = (u_m / 2) ** nu_m * total / (2j * mp.pi)
        return complex(value)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

_BESSEL_CACHE: dict = {}
_BESSEL_CACHE_MAX = 200000


def bessel_j_detailed(nu, u: float) -> BesselEval:
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
            return BesselEval(1.0 + 0.0j, "exact", 53, 0, 0.0)
        if nu.real > 0:
            return BesselEval(0.0 + 0.0j, "exact", 53, 0, 0.0)
        raise DomainError(f"J_nu(0) undefined for Re(nu) <= 0 (nu = {nu})")

    # asymptotic when clearly in its regime and certified; a real order the
    # asymptotic refuses sits near a zero of J, where the series needs
    # repeated higher-precision passes and mpmath.besselj its own asymptotic
    # form. Past the series crossover (u >= max(300, 4 |nu|)) mpmath.besselj
    # takes any order; below it the series is the cheaper path.
    if u >= _ASYMP_MIN_U and u >= 4.0 * abs(nu) ** 2:
        try:
            return _bessel_asymptotic(nu, u)
        except PrecisionError:
            if nu.imag == 0.0:
                return _bessel_mpmath(nu, u)
    if u >= max(_MPMATH_MIN_U, _MPMATH_NU_RATIO * abs(nu)):
        return _bessel_mpmath(nu, u)
    return _bessel_series(nu, u)


def bessel_j(nu, u: float) -> complex:
    """J_nu(u) for complex order nu and real argument u >= 0.

    Results are memoized (evaluations are pure); identical inputs always
    return the identical float, which the determinism contract relies on.
    """
    key = (complex(nu), float(u))
    hit = _BESSEL_CACHE.get(key)
    if hit is not None:
        return hit
    value = bessel_j_detailed(nu, u).value
    if len(_BESSEL_CACHE) < _BESSEL_CACHE_MAX:
        _BESSEL_CACHE[key] = value
    return value


# ---------------------------------------------------------------------------
# Laplace line integral
# ---------------------------------------------------------------------------


def laplace_line_integral(s, N: float, a: Optional[float] = None) -> complex:
    """(1/2 pi i) * int over Re z = a of e^{N z} z^{-s} dz, for Re(s) > 0.

    Equal to N^{s-1} / Gamma(s). The infinite vertical line is deformed to a
    bracket contour: the segment |Im z| <= T plus horizontal rays at +-iT,
    on which the integrand decays like e^{N Re z}; the deformation is exact
    for every T > 0 because the branch cut z <= 0 never crosses the contour.

    a defaults to 1/N; abscissas with N a >> 1 are rejected because the
    e^{N a} factor on the contour swamps the answer in cancellation.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("laplace_line_integral requires Re(s) > 0")
    if not (N > 0):
        raise DomainError("N must be positive")
    if a is None:
        a = 1.0 / N
    if not (a > 0):
        raise DomainError("abscissa a must be positive")
    if N * a > 50.0:
        raise DomainError(
            f"abscissa a = {a} too far right for N = {N}: e^(N a) swamps the value; "
            "use a ~ 1/N"
        )

    # scale of the closed-form answer, for absolute quadrature tolerance
    scale = abs(cmath.exp((s - 1) * math.log(N) - log_gamma(s)))
    abs_tol = max(scale, 1e-290) * _REL_TOL * 0.25

    T = max(4.0 / N, 1.5 * a)

    def integrand(z: complex) -> complex:
        return cmath.exp(N * z - s * cmath.log(z))

    vertical = adaptive_gauss_kronrod(
        lambda y: integrand(complex(a, y)) * 1j, -T, T, abs_tol
    )
    ray_len = (200.0 + 3.0 * abs(s.imag)) / N + 4.0 * T
    x0 = a - ray_len
    top = adaptive_gauss_kronrod(lambda x: integrand(complex(x, T)), x0, a, abs_tol)
    bottom = adaptive_gauss_kronrod(lambda x: integrand(complex(x, -T)), x0, a, abs_tol)
    total = bottom + vertical - top
    return total / (2j * math.pi)
