"""The sum over every nontrivial zero of M2's paired rows, with no zero and no
Bessel function: the explicit formula for the Riesz means of psi (Landau;
Ingham, The Distribution of Prime Numbers, 1932, ch. IV).

With S(z) = sum_n Lambda(n) e^{-nz}, the residues of Gamma(w) (-zeta'/zeta)(w) z^{-w}
give S(z) = 1/z - sum_rho Gamma(rho) z^{-rho} + R(z), where

    R(z) = -log 2pi + (zeta'/zeta)(-1) z + (z^2/2)(log z - psi(3) - c2) + O(z^3),
    c2 = zeta''(-2) / (2 zeta'(-2)).

Inverting z^{-s} times each piece by (1/2 pi i) int e^{Nz} z^{-s} dz
= N^{s-1}/Gamma(s), the sum over all zeros of M2's row of order s is

    B(s) = sum_rho Gamma(rho) N^{s-1+rho} / Gamma(s+rho)
         = N^s/Gamma(s+1) - sum_{n<N} Lambda(n) (N-n)^{s-1}/Gamma(s) + IL_s[R],

with IL_s[z^m] = N^{s-1-m}/Gamma(s-m) and IL_s[z^2 log z] the analytic
-d/da of N^{a-1}/Gamma(a) at a = s - 2. A numerical derivative of a float64
sum would swamp the row. The z^3 term left out is O(N^{s-4}).

The Lambda products are float64, summed exactly rounded by math.fsum; the
rest runs in mpmath at 120 bits. This module reads none of formula's cell
tables, so it checks their split and assembly from outside.
"""

import math

import numpy as np
from mpmath import mp

from linnik.arithmetic import sieve_von_mangoldt

_PREC = 120


def riesz_lambda_sum(N: int, s: float) -> float:
    """sum_{n<N} Lambda(n) (N-n)^{s-1}, the products in float64, one fsum."""
    lam = sieve_von_mangoldt(N).values[:N]
    n = np.nonzero(lam)[0]
    return math.fsum((lam[n] * (N - n).astype(np.float64) ** (s - 1.0)).tolist())


def all_zero_sum(N: int, s: float) -> float:
    """B(s) = sum over every nontrivial zero rho of Gamma(rho) N^{s-1+rho} / Gamma(s+rho),
    summed in conjugate pairs (real); s > 2."""
    lam_sum = riesz_lambda_sum(N, s)
    with mp.workprec(_PREC):
        N_, s_ = mp.mpf(N), mp.mpf(s)
        logderiv_m1 = mp.zeta(-1, derivative=1) / mp.zeta(-1)
        c2 = mp.zeta(-2, derivative=2) / (2 * mp.zeta(-2, derivative=1))

        def inv(a):  # IL_s[z^{s-a}] = N^{a-1}/Gamma(a)
            return N_ ** (a - 1) * mp.rgamma(a)

        log_piece = -N_ ** (s_ - 3) * (mp.log(N_) - mp.digamma(s_ - 2)) * mp.rgamma(s_ - 2)
        r_part = (
            -mp.log(2 * mp.pi) * inv(s_)
            + logderiv_m1 * inv(s_ - 1)
            + (log_piece - (mp.digamma(3) + c2) * inv(s_ - 2)) / 2
        )
        return float(inv(s_ + 1) - mp.mpf(lam_sum) * mp.rgamma(s_) + r_part)
