import cmath
import math

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import NoConvergence

from linnik.errors import DomainError, PoleError, PrecisionError
from linnik import specfun
from linnik.specfun import (
    _bessel_asymptotic,
    _bessel_hankel,
    _bessel_series,
    bessel_j,
    bessel_j_detailed,
    bessel_j_sonine,
    gamma_ratio,
    laplace_line_integral,
    log_gamma,
)

from frozen_values import FROZEN_LOGGAMMA, FROZEN_SONINE


class TestLogGamma:
    def test_exact_values(self):
        assert cmath.exp(log_gamma(1.0)).real == pytest.approx(1.0, rel=1e-15)
        assert cmath.exp(log_gamma(0.5)).real == pytest.approx(
            math.sqrt(math.pi), rel=1e-15
        )
        assert cmath.exp(log_gamma(5.0)).real == pytest.approx(24.0, rel=1e-14)

    def test_frozen_points(self):
        for s, ref in FROZEN_LOGGAMMA:
            got = log_gamma(s)
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_exp_accuracy_over_disk(self):
        mp.dps = 40
        import random

        rng = random.Random(123)
        for _ in range(120):
            s = complex(rng.uniform(0.3, 199.0), rng.uniform(-150.0, 150.0))
            if abs(s) > 200.0:
                continue
            ref = mpmath.loggamma(mp.mpc(s))
            rel = abs(complex(mp.exp(mp.mpc(log_gamma(s)) - ref))) - 1.0
            assert abs(rel) <= 1e-13

    def test_stirling_magnitude_model(self):
        # |Gamma(1/2 + i t)| ~ sqrt(2 pi) e^{-pi t / 2} t^0 within 5% at t ~ 14
        t = 14.134725141734695
        got = abs(cmath.exp(log_gamma(complex(0.5, t))))
        model = math.sqrt(2 * math.pi) * math.exp(-math.pi * t / 2.0)
        assert abs(got / model - 1.0) < 0.05

    @pytest.mark.parametrize(
        "s, imag",
        [(-2.5 + 3j, -5.726104271910387), (-3.7, -4.0 * math.pi), (-0.5, -math.pi)],
    )
    def test_branch_for_negative_real_part(self, s, imag):
        # exp(log_gamma) is Gamma(s) on any branch; the imaginary part pins
        # mpmath's (a reflection formula gives 6.840 at -2.5+3i, 0 at -3.7)
        got = log_gamma(s)
        with mp.workprec(80):
            assert got == complex(mpmath.loggamma(s))
            gamma = complex(mpmath.gamma(s))
        assert abs(cmath.exp(got) / gamma - 1.0) <= 1e-13
        assert got.imag == pytest.approx(imag, rel=1e-15)

    def test_poles(self):
        for s in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError) as exc:
                log_gamma(s)
            assert exc.value.pole == int(s)


class TestGammaRatio:
    def test_integer_case(self):
        assert gamma_ratio(1.0, 3.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_frozen_high_precision_quotient(self):
        rho = 0.5 + 14.134725141734695j
        ref = 2.0176946126705693e-05 + 1.2618431027766718e-05j
        assert gamma_ratio(rho, 4.0) == pytest.approx(ref, rel=5e-13)

    def test_bounded_by_one_on_zero_grid(self, zeros100):
        for zero in zeros100.zeros[:20]:
            for off in (2.5, 3.0, 4.0):
                assert abs(gamma_ratio(zero.rho, off)) <= 1.0

    def test_pole_error(self):
        with pytest.raises(PoleError):
            gamma_ratio(-2.0, 1.0)


class TestBesselJ:
    def test_at_zero_argument(self):
        assert bessel_j(0.0, 0.0) == 1.0 + 0.0j
        assert bessel_j(2.5, 0.0) == 0.0 + 0.0j
        assert bessel_j(1.0 + 5.0j, 0.0) == 0.0 + 0.0j
        with pytest.raises(DomainError):
            bessel_j(-0.5, 0.0)
        with pytest.raises(DomainError):
            bessel_j(1.0j, 0.0)

    def test_half_integer_closed_form(self):
        for u in (1.0, 10.0):
            ref = math.sqrt(2.0 / (math.pi * u)) * math.sin(u)
            assert bessel_j(0.5, u).real == pytest.approx(ref, rel=1e-12)
        assert abs(bessel_j(0.5, math.pi)) < 1e-12

    def test_against_frozen_oracle_grid(self):
        for nu, u, ref in FROZEN_SONINE:
            got = bessel_j(nu, u)
            assert abs(got - ref) <= 1e-10 * abs(ref), (nu, u)

    def test_recurrence(self):
        for nu in (1.0, 2.5, 2.0 + 7.0j):
            for u in (1.0, 10.0, 100.0):
                a = bessel_j(nu - 1, u)
                b = bessel_j(nu + 1, u)
                c = bessel_j(nu, u)
                scale = max(abs(a), abs(b), abs(c))
                assert abs(a + b - (2.0 * nu / u) * c) <= 1e-9 * scale

    def test_real_order_gives_exactly_real_values(self):
        for u in (0.3, 7.0, 40.0):
            assert bessel_j(1.75, u).imag == 0.0

    def test_conjugate_symmetry(self):
        for nu in (1.5 + 3.0j, 3.5 + 14.1347j):
            for u in (0.5, 20.0, 150.0):
                a = bessel_j(nu, u)
                b = bessel_j(nu.conjugate(), u)
                assert abs(b - a.conjugate()) <= 1e-12 * abs(a)

    def test_strategy_consistency_in_overlap(self):
        # where the asymptotic expansion certifies 1e-10, it must agree with
        # the extended-precision series
        for nu in (0.0, 1.0, 2.5, 2.0 + 1.0j):
            for u in (25.0, 40.0, 60.0):
                s = _bessel_series(complex(nu), u)
                a = _bessel_asymptotic(complex(nu), u)
                assert abs(s.value - a.value) <= 1e-10 * max(abs(s.value), 1e-300)

    def test_asymptotic_refuses_outside_regime(self):
        with pytest.raises(PrecisionError) as exc:
            _bessel_asymptotic(20.0 + 0.0j, 60.0)
        assert exc.value.strategy == "asymptotic"

    def test_auto_prefers_asymptotic_when_cheap(self):
        d = bessel_j_detailed(2.0, 100.0)
        assert d.strategy == "asymptotic"
        d2 = bessel_j_detailed(3.5 + 14.1347j, 100.0)
        assert (d2.strategy, d2.bits, d2.terms, d2.err_estimate) == (
            "series", 80, 0, 4.0 * 2.0**-53
        )
        # a complex order with u >= max(300, 1.5 |nu|): the fixed-point
        # Hankel kernel, which reports its working bits and terms summed
        d3 = bessel_j_detailed(3.5 + 49.77j, 1000.0)
        assert (d3.strategy, d3.bits, d3.terms) == ("hankel", 94, 27)
        # u = 2.17 |nu|: too close for the double expansion (u < 4 |nu|^2),
        # inside the kernel's range
        d4 = bessel_j_detailed(3.5 + 236.52j, 512.8)
        assert (d4.strategy, d4.bits, d4.terms) == ("hankel", 205, 244)

    def test_mpmath_failure_is_precision_error(self, monkeypatch):
        # mpmath.besselj takes only the real orders the double expansion
        # refuses
        def refuse(*args, **kwargs):
            raise NoConvergence("refused")

        monkeypatch.setattr(mp, "besselj", refuse)
        with pytest.raises(PrecisionError) as exc:
            bessel_j_detailed(4.0, 3137.6632053307817)
        assert exc.value.strategy == "mpmath"

    def test_hankel_overflow_is_precision_error(self):
        # |J| ~ e^{pi gamma / 2} passes the double range at gamma = 460
        with pytest.raises(PrecisionError) as exc:
            bessel_j_detailed(2.5 + 460.0j, 5000.0)
        assert exc.value.strategy == "hankel"

    def test_real_order_near_a_zero_goes_to_mpmath(self):
        # J_4 is -7.5e-7 here, close to a zero: the asymptotic refuses (its
        # relative estimate is 1.3e-8) and the series would need 6844 bits
        u = 3137.6632053307817
        d = bessel_j_detailed(4.0, u)
        assert (d.strategy, d.bits) == ("mpmath", 53)
        s = _bessel_series(4.0 + 0.0j, u)
        assert abs(d.value - s.value) <= 1e-12 * abs(s.value)
        assert d.value.imag == 0.0

    @pytest.mark.parametrize("failure", [NoConvergence, ValueError])
    def test_series_failure_is_precision_error(self, monkeypatch, failure):
        # mpmath raises NoConvergence past maxterms and ValueError past maxprec
        def refuse(*args, **kwargs):
            raise failure("refused")

        monkeypatch.setattr(mp, "hyper", refuse)
        with pytest.raises(PrecisionError) as exc:
            bessel_j_detailed(3.5 + 14.1347j, 100.0)
        assert exc.value.strategy == "series"

    def test_negative_u_rejected(self):
        with pytest.raises(DomainError):
            bessel_j(1.0, -2.0)


def _hex(z: complex) -> tuple:
    return (z.real.hex(), z.imag.hex())


class TestHankelKernel:
    def test_matches_the_series_bit_for_bit(self, zeros100):
        # the orders of M3 and M4, k + c + rho, and their conjugates, at
        # u / |nu| from 1.5 to 10 with u >= 300
        gammas = zeros100.gammas()
        points = set()
        for n in (1, 10, 25, 50, 75, 100):
            for k in (1.7, 2.0, 2.5):
                for c in (0.5, 1.0):
                    for sign in (1.0, -1.0):
                        nu = complex(k + c + 0.5, sign * gammas[n - 1])
                        for ratio in (1.5, 2.0, 4.0, 10.0):
                            points.add((nu, max(300.0, ratio * abs(nu))))
        assert len(points) == 170
        for nu, u in sorted(points, key=lambda p: (p[0].imag, p[0].real, p[1])):
            d = _bessel_hankel(nu, u)
            assert d is not None, (nu, u)
            assert _hex(d.value) == _hex(_bessel_series(nu, u).value), (nu, u)

    def test_refuses_below_the_certificate(self, monkeypatch):
        # at u = 1.45 |nu|, gamma = 236.5, no term falls below 2^-60 of the
        # sum before the terms grow again; at 1.5 |nu| one does
        nu = 3.5 + 236.5242296658162j
        assert _bessel_hankel(nu, 1.5 * abs(nu)) is not None
        monkeypatch.setattr(specfun, "_HANKEL_NU_RATIO", 1.45)
        monkeypatch.setattr(specfun, "_HANKEL_TABLE", [None])
        u = 1.45 * abs(nu)
        assert _bessel_hankel(nu, u) is None
        d = bessel_j_detailed(nu, u)
        assert d.strategy == "series"
        assert _hex(d.value) == _hex(_bessel_series(nu, u).value)

    def test_refusal_falls_back_to_the_series(self, monkeypatch):
        monkeypatch.setattr(specfun, "_bessel_hankel", lambda nu, u: None)
        d = bessel_j_detailed(3.5 + 49.77j, 1000.0)
        assert d.strategy == "series"
        assert _hex(d.value) == _hex(_bessel_series(3.5 + 49.77j, 1000.0).value)

    def test_values_do_not_depend_on_call_order(self, monkeypatch):
        # the table holds one order; switching orders rebuilds it
        calls = [
            (3.5 + 49.7738324776723j, 400.0),
            (3.0 + 143.11184580762063j, 300.0),
            (3.5 + 49.7738324776723j, 1200.0),
            (3.0 + 143.11184580762063j, 900.0),
        ]
        runs = []
        for order in (calls, calls[::-1], sorted(calls, key=lambda c: c[1])):
            monkeypatch.setattr(specfun, "_HANKEL_TABLE", [None])
            runs.append({c: _hex(_bessel_hankel(*c).value) for c in order})
        assert runs[0] == runs[1] == runs[2]


class TestSonineOracle:
    def test_live_rederivation_of_frozen_points(self):
        for nu, u, ref in [FROZEN_SONINE[1], FROZEN_SONINE[22]]:
            live = bessel_j_sonine(nu, u, prec_bits=200)
            assert abs(live - ref) <= 1e-13 * abs(ref)

    def test_contour_independence(self):
        a1 = bessel_j_sonine(2.0 + 3.0j, 25.0, prec_bits=160, abscissa=1.0)
        a2 = bessel_j_sonine(2.0 + 3.0j, 25.0, prec_bits=160, abscissa=2.0)
        assert abs(a1 - a2) <= 1e-30 * abs(a1)

    def test_matches_independent_series_implementation(self):
        mp.dps = 60
        for nu, u in ((0.0, 1.0), (3.5 + 14.1347j, 10.0), (2.0 + 3.0j, 7.0)):
            ref = complex(mpmath.besselj(mp.mpc(nu), mp.mpf(u)))
            live = bessel_j_sonine(nu, u, prec_bits=200)
            assert abs(live - ref) <= 1e-14 * abs(ref)
            assert abs(live - bessel_j(nu, u)) <= 1e-12 * abs(live)


class TestLaplaceLineIntegral:
    def test_closed_forms(self):
        assert laplace_line_integral(1.0, 7.0).real == pytest.approx(1.0, rel=1e-10)
        assert laplace_line_integral(3.0, 2.0).real == pytest.approx(2.0, rel=1e-10)

    def test_complex_exponent(self):
        s, N = 2.0 + 1.0j, 10.0
        ref = cmath.exp((s - 1.0) * math.log(N) - log_gamma(s))
        got = laplace_line_integral(s, N)
        assert abs(got - ref) <= 1e-8 * abs(ref)

    def test_three_by_three_grid(self):
        for sr in (2.0, 3.0, 4.0):
            for si in (-1.0, 0.0, 1.0):
                s = complex(sr, si)
                ref = cmath.exp((s - 1.0) * math.log(30.0) - log_gamma(s))
                got = laplace_line_integral(s, 30.0)
                assert abs(got - ref) <= 1e-8 * abs(ref)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            laplace_line_integral(-1.0, 10.0)
        with pytest.raises(DomainError):
            laplace_line_integral(0.0 + 2.0j, 10.0)
        with pytest.raises(DomainError):
            laplace_line_integral(2.0, 10.0, a=100.0)
