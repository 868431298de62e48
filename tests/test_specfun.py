import cmath
import functools
import inspect
import math
import textwrap

import mpmath
import pytest
from mpmath import mp

from linnik.errors import DomainError, PrecisionError
from linnik import specfun
from linnik.arithmetic import CesaroParams
from linnik.formula import TruncationSpec, evaluate
from linnik.quadrature import adaptive_gauss_kronrod
from linnik.specfun import (
    _bessel_hankel,
    _bessel_series,
    bessel_j,
    bessel_j_detailed,
    gamma_ratio,
    log_gamma,
)

from frozen_values import FROZEN_LOGGAMMA, FROZEN_SONINE
from laplace_oracle import laplace_line_integral
from sonine_oracle import bessel_j_sonine


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
        import random

        rng = random.Random(123)
        with mp.workdps(40):
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
            with pytest.raises(DomainError) as exc:
                log_gamma(s)
            assert str(exc.value) == f"gamma pole at non-positive integer {int(s)}"
        for s in (math.inf, complex(1.0, math.nan)):
            with pytest.raises(DomainError):
                log_gamma(s)


class TestGammaRatio:
    def test_integer_case(self):
        assert gamma_ratio(1.0, 3.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_frozen_high_precision_quotient(self):
        rho = 0.5 + 14.134725141734695j
        ref = 2.0176946126705693e-05 + 1.2618431027766718e-05j
        first = gamma_ratio(rho, 4.0)
        assert first == pytest.approx(ref, rel=5e-13)
        # memoized per (rho, offset): a repeated call gives the same double
        assert gamma_ratio(rho, 4.0) == first
        assert gamma_ratio(complex(rho), 4.0 + 0j) == first

    def test_bounded_by_one_on_zero_grid(self, zeros100):
        for g in zeros100.zeros[:20]:
            for off in (2.5, 3.0, 4.0):
                assert abs(gamma_ratio(complex(0.5, g), off)) <= 1.0

    def test_pole_error(self):
        # after a memo hit, and on a repeat: a pole raises before the memo is
        # written, so it is never stored
        assert gamma_ratio(1.0, 2.0) == gamma_ratio(1.0, 2.0)
        for _ in range(2):
            for rho, offset in ((-2.0, 1.0), (0.5, -2.5)):
                with pytest.raises(DomainError) as exc:
                    gamma_ratio(rho, offset)
                assert str(exc.value) == "gamma pole at non-positive integer -2"


class TestBesselJ:
    def test_at_zero_argument(self):
        assert bessel_j(0.0, 0.0) == 1.0 + 0.0j
        assert bessel_j(2.5, 0.0) == 0.0 + 0.0j
        assert bessel_j(1.0 + 5.0j, 0.0) == 0.0 + 0.0j
        with pytest.raises(DomainError):
            bessel_j(-0.5, 0.0)
        with pytest.raises(DomainError):
            bessel_j(1.0j, 0.0)
        for nu, u in ((2.0, math.inf), (complex(2.0, math.nan), 1.0), (-3.0, 1.0)):
            with pytest.raises(DomainError):
                bessel_j(nu, u)

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
        # the series below the kernel's line and the kernel past it
        for u in (0.3, 7.0, 40.0, 1000.0):
            assert bessel_j(1.75, u).imag == 0.0

    def test_conjugate_symmetry(self):
        for nu in (1.5 + 3.0j, 3.5 + 14.1347j):
            for u in (0.5, 20.0, 150.0):
                a = bessel_j(nu, u)
                b = bessel_j(nu.conjugate(), u)
                assert abs(b - a.conjugate()) <= 1e-12 * abs(a)

    def test_auto_takes_the_kernel_past_its_line(self):
        # real orders: the series below u = 300, the fixed-point Hankel
        # kernel past it; each reports its working bits and the index of its
        # last term. At u = 100 the series makes one 130-bit pass of 162
        # terms; at the half-integer order 3.5 the expansion terminates
        # after 3 terms
        real = [bessel_j_detailed(nu, u) for nu, u in ((2.0, 100.0), (2.0, 1000.0), (3.5, 300.0))]
        assert [(d.strategy, d.bits, d.terms) for d in real] == [
            ("series", 130, 162), ("hankel", 90, 9), ("hankel", 90, 3),
        ]
        d2 = bessel_j_detailed(3.5 + 14.1347j, 100.0)
        assert (d2.strategy, d2.bits, d2.terms) == ("series", 130, 154)
        # complex orders with u >= max(300, 1.5 |nu|), the second at
        # u = 2.17 |nu|, near the kernel's line
        d3 = bessel_j_detailed(3.5 + 49.77j, 1000.0)
        assert (d3.strategy, d3.bits, d3.terms) == ("hankel", 94, 27)
        d4 = bessel_j_detailed(3.5 + 236.52j, 512.8)
        assert (d4.strategy, d4.bits, d4.terms) == ("hankel", 205, 244)

    def test_hankel_overflow_is_domain_error(self):
        # |J| ~ e^{pi gamma / 2} passes the double range at gamma = 460
        with pytest.raises(DomainError) as exc:
            _bessel_hankel(2.5 + 460.0j, 5000.0)
        assert type(exc.value) is DomainError
        assert str(exc.value) == (
            "J_nu(u) magnitude exceeds double range for nu = (2.5+460j), u = 5000.0"
        )

    @pytest.mark.parametrize(
        "limit, value, message",
        [("_SERIES_TERMS_PER_U", 0.5, "100.0 terms"), ("_SERIES_MAX_GUARD", 40, "past 120 bits")],
        ids=["term_cap", "guard_cap"],
    )
    def test_series_failure_is_precision_error(self, monkeypatch, limit, value, message):
        # at (3.5 + 14.1347i, 100) the series sums 154 terms in one pass at
        # 50 guard bits; a cap of 100 terms, or of 40 guard bits, stops it
        monkeypatch.setattr(specfun, limit, value)
        with pytest.raises(PrecisionError) as exc:
            bessel_j_detailed(3.5 + 14.1347j, 100.0)
        assert type(exc.value) is PrecisionError
        assert str(exc.value) == f"series did not converge: {message}"

    def test_series_overflow_is_domain_error(self):
        # |J| ~ (u/2)^nu / |Gamma(nu + 1)| passes the double range
        for nu, u in ((-200.5 + 0.0j, 1.0), (-180.5 + 3.0j, 2.0)):
            with pytest.raises(DomainError) as exc:
                _bessel_series(nu, u)
            assert type(exc.value) is DomainError
            assert str(exc.value) == (
                f"J_nu(u) magnitude exceeds double range for nu = {nu}, u = {u}"
            )

    def test_evaluate_needs_no_mp_hyper(self, zeros100, monkeypatch, cold_memos):
        def refuse(*args, **kwargs):
            raise AssertionError("mp.hyper called")

        monkeypatch.setattr(mp, "hyper", refuse)
        cold_memos(specfun.bessel_j)
        series = []
        detailed = specfun.bessel_j_detailed

        def counting(nu, u):
            d = detailed(nu, u)
            series.append(d.strategy == "series")
            return d

        monkeypatch.setattr(specfun, "bessel_j_detailed", counting)
        spec = TruncationSpec(Z=2, L=3, M=3, tol=1.0)
        report = evaluate(CesaroParams(N=2000, k=2.0), zeros100, spec)
        assert any(series)
        assert all(math.isfinite(getattr(report, m)) for m in ("m3", "m4"))

    def test_negative_u_rejected(self):
        with pytest.raises(DomainError):
            bessel_j(1.0, -2.0)


def _hex(z: complex) -> tuple:
    return (z.real.hex(), z.imag.hex())


class TestBesselSeries:
    @staticmethod
    def _within_4_ulps(nu, u):
        got = _bessel_series(complex(nu), u)
        with mp.workprec(300):
            ref = complex(mpmath.besselj(mp.mpc(nu), mp.mpf(u)))
        assert abs(got.value - ref) <= 4.0 * 2.0**-53 * abs(ref), (nu, u)
        return got

    def test_matches_mpmath_besselj_at_300_bits(self, zeros100):
        # real orders, the half-integer 3.5, the orders k + c + rho of M3 and
        # M4 (k = 2) at zeros 1, 50 and 100 and their conjugates, one whose
        # nu + 1 is no double (3.1 + 1 rounds), and orders where nu + n comes
        # near 0
        gammas = zeros100.zeros
        paired = [
            complex(2.0 + c + 0.5, sign * gammas[n - 1])
            for n in (1, 50, 100) for c in (0.5, 1.0) for sign in (1.0, -1.0)
        ]
        orders = [0.0, 0.5, 1.75, 4.0, 3.5] + paired + [complex(3.1, gammas[99])]
        orders += [-1.5, -2.5 + 1e-3j, -3.9999999]
        for nu in orders:
            for u in (1e-3, 0.3, 7.0, 140.5, 281.0):
                self._within_4_ulps(nu, u)

    def test_guard_bits_for_a_jump(self):
        # nu + 4 = 2^-150 i: t_3 ~ 2^-111 of the first term, then the step at
        # n = 4 multiplies by ~2^112, and the sum starts at 150 more guard
        # bits (without them its first digits are wrong)
        d = self._within_4_ulps(complex(-4.0, 2.0**-150), 2.0**-17)
        assert d.bits == 80 + 50 + 150


class TestHankelKernel:
    def test_matches_the_series_bit_for_bit(self, zeros100):
        # the orders of M3 and M4, k + c + rho, and their conjugates, at
        # u / |nu| from 1.5 to 10 with u >= 300
        gammas = zeros100.zeros
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

    def test_refuses_below_the_certificate(self, monkeypatch, cold_memos):
        # at u = 1.45 |nu|, gamma = 236.5, no term falls below 2^-60 of the
        # sum before the terms grow again; at 1.5 |nu| one does
        nu = 3.5 + 236.5242296658162j
        assert _bessel_hankel(nu, 1.5 * abs(nu)) is not None
        monkeypatch.setattr(specfun, "_HANKEL_NU_RATIO", 1.45)
        # a table built under the patched ratio must not reach later tests
        cold_memos(specfun._hankel_table)
        u = 1.45 * abs(nu)
        assert _bessel_hankel(nu, u) is None
        d = bessel_j_detailed(nu, u)
        assert d.strategy == "series"
        assert _hex(d.value) == _hex(_bessel_series(nu, u).value)

    def test_refuses_an_interval_that_straddles_a_double(self, zeros100, monkeypatch, cold_memos):
        # certified to 2^-50 and summed to 2^-56, some values' intervals hold
        # two doubles: 56 of these 192 points are refused and the other 136
        # are J rounded once, while with the refusal deleted 30 of the 56
        # come back as a wrong double
        monkeypatch.setattr(specfun, "_HANKEL_CERT_BITS", 50)
        monkeypatch.setattr(specfun, "_HANKEL_STOP_BITS", 56)
        cold_memos(specfun._hankel_table)
        points = [
            (complex(2.5 + q, sign * g), float(u))
            for q in (0.5, 1.0) for g in zeros100.zeros[:6] for sign in (1, -1)
            for u in range(300, 1001, 100)
        ]

        def rounded(nu, u):
            with mp.workprec(300):
                v = mpmath.besselj(mpmath.mpc(nu.real, nu.imag), u)
            return complex(float(v.real), float(v.imag))

        got = {c: _bessel_hankel(*c) for c in points}
        refused = [c for c, d in got.items() if d is None]
        # refusals of both signs: the conjugate branch passes one on
        assert {c[0].imag > 0 for c in refused} == {True, False}
        for c, d in got.items():
            if d is not None:
                assert d.value == rounded(*c), c
        # the kernel with its last refusal deleted, run under the same constants
        source = textwrap.dedent(inspect.getsource(specfun._bessel_hankel))
        deleted = source.replace("if lo_r != hi_r or lo_i != hi_i:", "if False:")
        assert deleted != source
        scope = dict(vars(specfun))
        exec(deleted, scope)
        wrong = [c for c in refused if scope["_bessel_hankel"](*c).value != rounded(*c)]
        assert 0 < len(wrong) < len(refused)
        d = bessel_j_detailed(*refused[0])
        assert d.strategy == "series"
        assert d.value == rounded(*refused[0])

    def test_refusal_falls_back_to_the_series(self, monkeypatch):
        monkeypatch.setattr(specfun, "_bessel_hankel", lambda nu, u: None)
        for nu, u in ((3.5 + 49.77j, 1000.0), (4.0 + 0.0j, 1405.0)):
            d = bessel_j_detailed(nu, u)
            assert d.strategy == "series"
            assert _hex(d.value) == _hex(_bessel_series(nu, u).value)

    def test_values_do_not_depend_on_call_order(self, cold_memos):
        # two orders interleaved: each table is built on its order's first
        # call and extended by the later ones
        calls = [
            (3.5 + 49.7738324776723j, 400.0),
            (3.0 + 143.11184580762063j, 300.0),
            (3.5 + 49.7738324776723j, 1200.0),
            (3.0 + 143.11184580762063j, 900.0),
        ]
        runs = []
        for order in (calls, calls[::-1], sorted(calls, key=lambda c: c[1])):
            cold_memos(specfun._hankel_table)
            runs.append({c: _hex(_bessel_hankel(*c).value) for c in order})
        assert runs[0] == runs[1] == runs[2]

    @staticmethod
    def _reset(cold_memos, warm_u=False):
        cold_memos(specfun._hankel_table)
        if not warm_u:
            cold_memos(specfun._hankel_u_constants)

    def test_values_do_not_depend_on_the_block_order(self, zeros100, monkeypatch, cold_memos):
        # the passes of one evaluate at N = 2000, k = 2: m3 "zeros" takes
        # k + 1 + rho over lattice roots, then m4 block3 the same orders over
        # m, then block4 k + 1/2 + rho over m; each order and each u recurs
        # across passes, so the tables and the per-u constants are reused,
        # and with the cap at one order a table is rebuilt on each switch
        sqrt_n = math.sqrt(2000.0)
        lattice = [math.sqrt(lam) for lam in (2, 5, 8, 10, 13)]
        rhos = [complex(0.5, zeros100.zeros[n]) for n in (0, 19, 49)]
        passes = (
            [(2.0 + 1.0 + rho, root) for rho in rhos for root in lattice],
            [(2.0 + 1.0 + rho, float(m)) for rho in rhos for m in (2, 3, 4)],
            [(2.0 + 0.5 + rho, float(m)) for rho in rhos for m in (2, 3, 4)],
        )
        calls = [(nu, 2.0 * math.pi * root * sqrt_n) for block in passes for nu, root in block]
        calls += [(nu.conjugate(), u) for nu, u in calls[:6]]
        assert all(u >= max(300.0, 1.5 * abs(nu)) for nu, u in calls)
        alone = {}
        for c in calls:  # each call on a cold table and a cold per-u cache
            self._reset(cold_memos)
            d = _bessel_hankel(*c)
            assert d is not None, c
            alone[c] = _hex(d.value)
        self._reset(cold_memos)
        with mp.workprec(24):  # the kernel sets every precision it uses
            cold = {c: _hex(_bessel_hankel(*c).value) for c in calls}
        self._reset(cold_memos, warm_u=True)
        warm = {c: _hex(_bessel_hankel(*c).value) for c in calls[::-1]}
        self._reset(cold_memos, warm_u=True)
        self._cap_tables(monkeypatch, 1)
        one_slot = {c: _hex(_bessel_hankel(*c).value) for c in calls}
        assert len(specfun._hankel_table.cache) == 1
        assert cold == warm == one_slot == alone

    @staticmethod
    def _cap_tables(monkeypatch, cap):
        """Hold the Hankel tables in a memo of cap orders for one test."""
        capped = specfun.memo(cap)(specfun._hankel_table.__wrapped__)
        monkeypatch.setattr(specfun, "_hankel_table", capped)

    @staticmethod
    def _doubled_run(monkeypatch, cold_memos, zeros100):
        """evaluate at N = 2000, k = 2, then with each cutoff doubled, on cold
        Bessel memos; returns the orders whose table was built, in order,
        the number of tables kept at the end (the memo never shrinks), and
        m3, m4 of every evaluate."""
        tables = specfun._hankel_table
        cold_memos(tables, specfun._hankel_u_constants, specfun.bessel_j)
        misses = tables.misses
        built = []
        table_class = specfun._HankelTable

        def counting(nu):
            built.append(nu)
            return table_class(nu)

        monkeypatch.setattr(specfun, "_HankelTable", counting)
        params = CesaroParams(N=2000, k=2.0)
        spec = TruncationSpec(Z=2, L=3, M=3, tol=1.0)
        values = []
        for s in (spec, spec.doubled("Z"), spec.doubled("L"), spec.doubled("M")):
            report = evaluate(params, zeros100, s)
            values.append((report.m3.hex(), report.m4.hex()))
        monkeypatch.setattr(specfun, "_HankelTable", table_class)
        assert tables.misses - misses == len(built)  # one build per miss
        return built, len(tables.cache), values

    def test_each_order_is_built_once(self, zeros100, monkeypatch, cold_memos):
        # m3 "zeros" and m4 block3 share the orders k + 1 + rho, and each
        # doubled cutoff takes them again: one table per order serves them all
        built, _, values = self._doubled_run(monkeypatch, cold_memos, zeros100)
        assert len(built) >= 8
        assert len(built) == len(set(built))
        # past the cap, tables are dropped and rebuilt; no value moves
        self._cap_tables(monkeypatch, 3)
        rebuilt, kept, capped = self._doubled_run(monkeypatch, cold_memos, zeros100)
        assert kept <= 3
        assert len(rebuilt) > len(built)
        assert capped == values

    def test_huge_argument_is_refused_or_correctly_rounded(self):
        # past u = 2^64 the phase must still be right to 2^-128 absolute: a
        # phase u - (Re nu / 2 + 1/4) pi formed at a fixed 164 bits gives
        # wrong doubles at the last three points
        for nu, u in (
            (3.5 + 14.134725141734695j, 1.3 * 2.0**64),
            (3.0 + 49.7738324776723j, 1e45),
            (3.0 - 21.022039638771556j, 3.0e80),
            (2.5 + 236.5242296658162j, 7.0e120),
        ):
            d = _bessel_hankel(nu, u)
            if d is not None:
                assert d.value == _besselj_300(nu, u), (nu, u)

    def test_certified_values_are_correctly_rounded(self, zeros100):
        # workload-like points: orders k + c + rho and their conjugates at
        # u = 2 pi sqrt(lam N), N from 500 to 8000, and at the kernel's edge
        # u = max(300, 1.5 |nu|); the real orders k + 2 and k + 3/2 (3.5 and
        # 4.5 terminate) at u from 300 to about 17000, and J_4 near a zero
        # (-7.5e-7); the oracle is mpmath.besselj at 300 bits, rounded per part
        points = [(4.0 + 0.0j, 3137.6632053307817)]
        for nu in (4.0, 3.5, 4.5, 0.5, 3.7):
            for lam, N in ((2, 2000.0), (3, 50000.0), (36, 200000.0)):
                points.append((complex(nu), 2.0 * math.pi * math.sqrt(lam * N)))
        for i, n in enumerate((1, 4, 9, 17, 26, 38, 50, 63, 77, 88, 95, 100)):
            rho = complex(0.5, zeros100.zeros[n - 1])
            k = (1.7, 2.0, 2.5)[i % 3]
            N = (500.0, 1000.0, 2000.0, 4000.0, 8000.0)[i % 5]
            for c, lam in ((1.0, 2), (0.5, 13)):
                nu = complex(k + c, 0.0) + rho
                u = 2.0 * math.pi * math.sqrt(lam * N)
                if u >= max(300.0, 1.5 * abs(nu)):
                    points.append((nu if i % 2 else nu.conjugate(), u))
            nu = complex(k + 1.0, 0.0) + rho
            points.append((nu, max(300.0, 1.5 * abs(nu))))
        assert len(points) >= 45
        for nu, u in points:
            d = _bessel_hankel(nu, u)
            assert d is not None, (nu, u)
            assert d.value == _besselj_300(nu, u), (nu, u)

    def test_certified_values_below_the_floor_are_correctly_rounded(
        self, zeros100, monkeypatch, cold_memos
    ):
        # the workloads' points below u = 300, which take the series today:
        # u = 2 pi sqrt(lam) sqrt(N), N = 500, 1000, 2000, lam = 1, 2, 4; the
        # real orders 4 and 3.5, and k + c + rho, k = 2, c = 1, 1/2, at every
        # 7th zero and its conjugate where u >= 1.5 |nu|. 116 of the 124
        # points certify, with the floor at 60
        us = {2.0 * math.pi * math.sqrt(lam) * math.sqrt(N)
              for N in (500.0, 1000.0, 2000.0) for lam in (1, 2, 4)}
        us = sorted(u for u in us if u < 300.0)
        orders = [complex(4.0), complex(3.5)]
        orders += [complex(2.0 + c + 0.5, sign * g)
                   for g in zeros100.zeros[::7] for c in (1.0, 0.5) for sign in (1, -1)]
        points = [(nu, u) for nu in orders for u in us if u >= 1.5 * abs(nu)]
        assert len(points) == 124
        assert bessel_j_detailed(*points[0]).strategy == "series"  # the floor is 300
        monkeypatch.setattr(specfun, "_HANKEL_MIN_U", 60.0)
        # a table built for the lower floor must not reach later tests
        cold_memos(specfun._hankel_table)
        certified = [(c, d) for c in points if (d := _bessel_hankel(*c)) is not None]
        assert len(certified) >= 100
        for c, d in certified:
            assert d.value == _besselj_300(*c), c


def _besselj_300(nu: complex, u: float) -> complex:
    with mp.workprec(300):
        ref = mpmath.besselj(mp.mpc(nu), mp.mpf(u))
        return complex(float(ref.real), float(ref.imag))


@functools.cache
def _sonine_200(nu, u) -> complex:
    """The oracle at 200 bits, computed once per point for this module: two
    tests take (3.5 + 14.1347i, 10), which is FROZEN_SONINE[22]."""
    return bessel_j_sonine(nu, u, prec_bits=200)


class TestSonineOracle:
    def test_live_rederivation_of_frozen_points(self):
        for nu, u, ref in [FROZEN_SONINE[1], FROZEN_SONINE[22]]:
            live = _sonine_200(nu, u)
            assert abs(live - ref) <= 1e-13 * abs(ref)

    def test_contour_independence(self):
        a1 = bessel_j_sonine(2.0 + 3.0j, 25.0, prec_bits=160, abscissa=1.0)
        a2 = bessel_j_sonine(2.0 + 3.0j, 25.0, prec_bits=160, abscissa=2.0)
        assert abs(a1 - a2) <= 1e-30 * abs(a1)

    def test_matches_independent_series_implementation(self):
        for nu, u in ((0.0, 1.0), (3.5 + 14.1347j, 10.0), (2.0 + 3.0j, 7.0)):
            with mp.workdps(60):
                ref = complex(mpmath.besselj(mp.mpc(nu), mp.mpf(u)))
                live = _sonine_200(nu, u)
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
        for N in (0.0, -10.0):
            with pytest.raises(DomainError):
                laplace_line_integral(2.0, N)


class TestAdaptiveGaussKronrod:
    @pytest.mark.parametrize("abs_tol", [0.0, -1e-12, math.inf, math.nan])
    def test_tolerance_must_be_positive_and_finite(self, abs_tol):
        with pytest.raises(ValueError):
            adaptive_gauss_kronrod(math.exp, 0.0, 1.0, abs_tol)

    def test_a_step_hits_the_depth_limit(self):
        # no panel straddling the step at 1/3 meets 1e-20
        with pytest.raises(PrecisionError) as exc:
            adaptive_gauss_kronrod(lambda x: float(x > 1.0 / 3.0), 0.0, 1.0, 1e-20)
        assert type(exc.value) is PrecisionError
        assert str(exc.value) == (
            "max depth reached on [0.33333333333333215, 0.3333333333333357] "
            "(err 1.780e-16 > tol 3.553e-35)"
        )

    def test_the_panel_budget_runs_out(self, monkeypatch):
        monkeypatch.setattr("linnik.quadrature._MAX_PANELS", 10)
        with pytest.raises(PrecisionError) as exc:
            adaptive_gauss_kronrod(lambda x: float(x > 1.0 / 3.0), 0.0, 1.0, 1e-20)
        assert type(exc.value) is PrecisionError
        assert str(exc.value) == (
            "panel budget exhausted on [0.328125, 0.3359375] (err 3.914e-04, tol 1.000e-20)"
        )
