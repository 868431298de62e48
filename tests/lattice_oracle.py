"""M3's and M4's rows as finite sums, with no Bessel function: Hardy's identity
for the circle problem (Hardy, 1915; Chandrasekharan and Narasimhan, Ann. of
Math. 1961), applied to one S piece at a time.

Write IL_s[f] = (1/2 pi i) int e^{Nz} z^{-s} f(z) dz, so that
IL_s[e^{-lam z}] = (N - lam)^{s-1}/Gamma(s) for lam < N and 0 past it. With
omega(z) = sum_{l>=1} e^{-l^2 z}, its Jacobi main part P = (sqrt(pi/z) - 1)/2
and its theta part T = omega - P = sqrt(pi/z) sum_{m>=1} e^{-pi^2 m^2/z}:

    IL_s[z^{-a}]    = N^{s+a-1} / Gamma(s+a),
    IL_s[omega]     = sum_{1<=l<sqrt N} (N - l^2)^{s-1} / Gamma(s),
    IL_s[omega^2]   = sum_{lam<N} r2+(lam) (N - lam)^{s-1} / Gamma(s),

where r2+(lam) counts l1, l2 >= 1 with l1^2 + l2^2 = lam. So T, and
T^2 = omega^2 - P^2 - 2PT with 2PT = sqrt(pi/z) T - T, invert to finite sums
minus closed forms. An S piece z^{-a} puts s = k + 1 + a:

  * unpaired (a = 1, s = k + 2): M3 lattice = IL_s[T^2], M4 block1 =
    sqrt(pi) IL_{s+1/2}[T] and block2 = IL_s[T]; M1 plus these, with M3's and
    M4's signs, is IL_s[omega^2];
  * paired (a = rho, weight Gamma(rho), summed over conjugate pairs as
    2 Re): M3 zeros <-> IL_s[T^2], M4 block3 <-> sqrt(pi) IL_{s+1/2}[T] and
    block4 <-> IL_s[T].

The T^2 rows cancel about 8 digits against IL_s[omega^2], so everything runs
in mpmath at 110 bits, for real or complex s. The il_* functions and
theta_rows work at the caller's precision; with log, an il_* function inverts
its sum times log z, the -d/ds of the sum taken term by term. This module
reads none of formula's cell tables, so it checks their split and assembly
from outside.
"""

import functools
from collections import Counter
from math import isqrt

from mpmath import mp

_PREC = 110


@functools.cache
def _r2_plus(N: int) -> tuple:
    """((lam, r2+(lam)), ...) over 0 < lam < N."""
    counts = Counter(
        l1 * l1 + l2 * l2
        for l1 in range(1, isqrt(N - 1) + 1)
        for l2 in range(1, isqrt(N - 1 - l1 * l1) + 1)
    )
    return tuple(sorted(counts.items()))


def _riesz(terms, s, log: bool):
    """sum over (x, c) of c x^{s-1} / Gamma(s), the inversion of
    sum c e^{-(N-x) z}; with log, that of the same sum times log z, which is
    its -d/ds, computed term by term."""
    terms = list(terms)
    plain = mp.fsum(c * mp.power(x, s - 1) for x, c in terms) * mp.rgamma(s)
    if not log:
        return plain
    return mp.digamma(s) * plain - mp.fsum(
        c * mp.power(x, s - 1) * mp.log(x) for x, c in terms) * mp.rgamma(s)


def il_power(N: int, s, log: bool = False):
    """IL_s[1] = N^{s-1} / Gamma(s), or IL_s[log z] with log."""
    return _riesz(((N, 1),), s, log)


def il_omega(N: int, s, log: bool = False):
    """IL_s[omega] = sum_{1<=l<sqrt N} (N - l^2)^{s-1} / Gamma(s), or IL_s[omega log z] with log."""
    return _riesz(((N - l * l, 1) for l in range(1, isqrt(N - 1) + 1)), s, log)


def il_omega2(N: int, s, log: bool = False):
    """IL_s[omega^2] = sum_{lam<N} r2+(lam) (N - lam)^{s-1} / Gamma(s), or
    IL_s[omega^2 log z] with log."""
    return _riesz(((N - lam, r) for lam, r in _r2_plus(N)), s, log)


def hardy_sums(N: int, log: bool = False) -> tuple:
    """The inversions s -> IL_s[g], IL_s[omega g], IL_s[omega^2 g] of
    g = 1, or g = log z with log, for theta_rows."""
    return tuple(functools.partial(il, N, log=log) for il in (il_power, il_omega, il_omega2))


def theta_rows(sums, s) -> tuple:
    """(IL_s[T^2 g], sqrt(pi) IL_{s+1/2}[T g], IL_s[T g]) for a factor g of the
    integrand, from sums = the inversions a -> IL_a[g], IL_a[omega g],
    IL_a[omega^2 g]: T g is omega g minus (sqrt(pi/z) - 1) g / 2, and T^2 g is
    omega^2 g minus P^2 g = (pi/z - 2 sqrt(pi/z) + 1) g / 4 minus
    2PT g = sqrt(pi/z) T g - T g."""
    power, omega, omega2 = sums
    root_pi = mp.sqrt(mp.pi)

    def theta(a):
        return omega(a) - (root_pi * power(a + 0.5) - power(a)) / 2

    t, t_half = theta(s), root_pi * theta(s + 0.5)
    p2 = (mp.pi * power(s + 1) - 2 * root_pi * power(s + 0.5) + power(s)) / 4
    return omega2(s) - p2 - (t_half - t), t_half, t


def unpaired_blocks(N: int, k: float) -> dict:
    """M3's lattice and M4's block1 and block2 at s = k + 2, each summed over
    every point, and "omega2" = IL_s[omega^2], which M1 + M3 + M4 reach at
    Z = 0 (M4 = block1 - block2 there)."""
    with mp.workprec(_PREC):
        s = mp.mpf(k) + 2
        lattice, block1, block2 = theta_rows(hardy_sums(N), s)
        return {"lattice": float(lattice), "block1": float(block1), "block2": float(block2),
                "omega2": float(il_omega2(N, s))}


def paired_blocks(N: int, k: float, gammas) -> dict:
    """M3's zeros and M4's block3 and block4, each summed over every point and
    over the zeros 1/2 + i gamma of gammas as 2 Re Gamma(rho) IL_s[.],
    s = k + 1 + rho."""
    with mp.workprec(_PREC):
        sums = [mp.mpf(0)] * 3
        for gamma in gammas:
            rho = mp.mpc(0.5, gamma)
            weight = mp.gamma(rho)
            rows = theta_rows(hardy_sums(N), mp.mpf(k) + 1 + rho)
            sums = [acc + 2 * mp.re(weight * row) for acc, row in zip(sums, rows)]
        return dict(zip(("zeros", "block3", "block4"), map(float, sums)))
