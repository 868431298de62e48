"""The sums over every nontrivial zero of M2's, M3's and M4's paired rows, with
no zero and no Bessel function: the explicit formula for the Riesz means of psi
(Landau; Ingham, The Distribution of Prime Numbers, 1932, ch. IV).

With S(z) = sum_n Lambda(n) e^{-nz}, the residues of Gamma(w) (-zeta'/zeta)(w) z^{-w}
give S(z) = 1/z - sum_rho Gamma(rho) z^{-rho} + R(z), where

    R(z) = -log 2pi + (zeta'/zeta)(-1) z + (z^2/2)(log z - psi(3) - c2) + O(z^3),
    c2 = zeta''(-2) / (2 zeta'(-2)).

So for a factor X of the integrand, with IL_s[f] = (1/2 pi i) int e^{Nz} z^{-s} f(z) dz,

    sum_rho Gamma(rho) IL_{s+rho}[X] = IL_s[X/z] - IL_s[X S] + IL_s[X R],

summed in conjugate pairs (real). IL_s[X R] takes X at s, s - 1 and s - 2,
and IL_s[X z^2 log z] is the analytic -d/da of IL_a[X] at a = s - 2, taken
term by term (lattice_oracle's log inversions): a numerical derivative of a
float64 sum would swamp the row. The z^3 term left out is O(N^{s-4}) for a
smooth X and (N - lam)^{s-4} for a point lam of a Hardy sum, small but for
the few lam nearest N.

  * M2 (all_zero_sum): X = 1, IL_s[z^m] = N^{s-1-m}/Gamma(s-m), and
    IL_s[S] = sum_{n<N} Lambda(n) (N-n)^{s-1}/Gamma(s).
  * M3 and M4 (paired_all_zero_rows): X = T^2, sqrt(pi/z) T and T, the
    theta parts of lattice_oracle, s = k + 1. IL_s[X/z] and IL_s[X R] are
    Hardy sums (lattice_oracle.theta_rows); IL_s[X S] is the same split of
    omega^2 S, omega S and S, whose coefficients are r_Q(n), the
    Hardy-Littlewood count r_HL(n) = sum_{l>=1} Lambda(n - l^2) and Lambda(n):
    the package's LinnikTable.values and .one_square and its sieve.

The table products are float64, summed exactly rounded by math.fsum; the rest
runs in mpmath at 120 bits. This module reads none of formula's cell tables,
so it checks their split and assembly from outside.
"""

import math

import numpy as np
from mpmath import mp

from lattice_oracle import hardy_sums, il_power, theta_rows
from linnik.arithmetic import compute_rq, sieve_von_mangoldt

_PREC = 120


def riesz_sum(values: np.ndarray, N: int, s: float) -> float:
    """sum_{n<N} values[n] (N-n)^{s-1} over the nonzero entries, the products
    in float64, one fsum."""
    n = np.nonzero(values[:N])[0]
    return math.fsum((values[n] * (N - n).astype(np.float64) ** (s - 1.0)).tolist())


def _r_inverse(il, s) -> tuple:
    """IL_s[X R] for each X of il(a, log), which gives the tuple of IL_a[X]
    (IL_a[X log z] with log) over the factors X."""
    logderiv_m1 = mp.zeta(-1, derivative=1) / mp.zeta(-1)
    c2 = mp.zeta(-2, derivative=2) / (2 * mp.zeta(-2, derivative=1))
    at_s, at_s1, at_s2, log_s2 = il(s, False), il(s - 1, False), il(s - 2, False), il(s - 2, True)
    return tuple(
        -mp.log(2 * mp.pi) * a + logderiv_m1 * b + (d - (mp.digamma(3) + c2) * c) / 2
        for a, b, c, d in zip(at_s, at_s1, at_s2, log_s2)
    )


def all_zero_sum(N: int, s: float) -> float:
    """B(s) = sum over every nontrivial zero rho of Gamma(rho) N^{s-1+rho} / Gamma(s+rho),
    summed in conjugate pairs (real); s > 2."""
    lam_sum = riesz_sum(sieve_von_mangoldt(N), N, s)
    with mp.workprec(_PREC):
        s_ = mp.mpf(s)
        (r_part,) = _r_inverse(lambda a, log: (il_power(N, a, log),), s_)
        return float(il_power(N, s_ + 1) - mp.mpf(lam_sum) * mp.rgamma(s_) + r_part)


def paired_all_zero_rows(N: int, k: float) -> dict:
    """M3's zeros and M4's block3 and block4, each summed over every point and
    over every nontrivial zero as sum_rho Gamma(rho) IL_{k+1+rho}[X] for
    X = T^2, sqrt(pi/z) T and T; k > 1."""
    lam = sieve_von_mangoldt(N)
    rq = compute_rq(lam, N)
    tables = (lam, rq.one_square, rq.values)
    with mp.workprec(_PREC):
        s = mp.mpf(k) + 1
        over_z = theta_rows(hardy_sums(N), s + 1)
        times_s = theta_rows(
            [lambda a, v=v: mp.mpf(riesz_sum(v, N, float(a))) * mp.rgamma(a) for v in tables], s)
        times_r = _r_inverse(lambda a, log: theta_rows(hardy_sums(N, log), a), s)
        rows = (a - b + c for a, b, c in zip(over_z, times_s, times_r))
        return dict(zip(("zeros", "block3", "block4"), map(float, rows)))
