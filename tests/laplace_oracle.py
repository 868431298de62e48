"""The Laplace pair (1/2 pi i) int e^{Nz} z^{-s} dz = N^{s-1} / Gamma(s) by
direct quadrature of the line integral: the identity the lattice and zero
oracles' IL_s rests on, checked with no closed form on the quadrature side."""

import cmath
import math

from linnik.errors import DomainError
from linnik.quadrature import adaptive_gauss_kronrod
from linnik.specfun import log_gamma

# The relative accuracy the line integral asks of its quadrature.
_REL_TOL = 1e-10


def laplace_line_integral(s, N: float) -> complex:
    """(1/2 pi i) * int over Re z = 1/N of e^{N z} z^{-s} dz, for Re(s) > 0.

    Equal to N^{s-1} / Gamma(s). The infinite vertical line is deformed to a
    bracket contour: the segment |Im z| <= T plus horizontal rays at +-iT,
    on which the integrand decays like e^{N Re z}; the deformation is exact
    for every T > 0 because the branch cut z <= 0 never crosses the contour.
    The abscissa 1/N keeps the factor e^{N Re z} at most e on the contour,
    so no large terms cancel.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("laplace_line_integral requires Re(s) > 0")
    if not (N > 0):
        raise DomainError("N must be positive")
    a = 1.0 / N

    # scale of the closed-form answer, for absolute quadrature tolerance
    scale = abs(cmath.exp((s - 1) * math.log(N) - log_gamma(s)))
    abs_tol = max(scale, 1e-290) * _REL_TOL * 0.25

    T = 4.0 / N

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
