"""Bessel J by direct quadrature of its contour-integral representation,
(u/2)^nu / (2 pi i) * int e^s s^{-nu-1} e^{-u^2/(4 s)} ds over a vertical
line: an oracle independent of both of the package's Bessel paths. It made
the FROZEN_SONINE points of frozen_values.py, and test_specfun re-derives
some of them live."""

import math

from mpmath import mp

from linnik.errors import DomainError


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
        # Gauss-Legendre gives the same doubles as mpmath's default
        # tanh-sinh at every oracle point of the test suite, in about a
        # third of the time
        vertical = mp.quad(lambda t: f(a_m + 1j * t) * 1j, pts, method="gauss-legendre")
        ray = [-mp.inf, a_m - 200, a_m - 80, a_m - 20, a_m - 5, a_m]
        top = mp.quad(lambda x: f(x + 1j * T), ray, method="gauss-legendre")
        bottom = mp.quad(lambda x: f(x - 1j * T), ray, method="gauss-legendre")
        total = bottom + vertical - top
        value = (u_m / 2) ** nu_m * total / (2j * mp.pi)
        return complex(value)
