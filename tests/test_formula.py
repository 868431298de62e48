import cmath
import math
import sys
import weakref
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from linnik import arithmetic, formula
from linnik.arithmetic import CesaroParams
from linnik.errors import DomainError, PrecisionError
from linnik.formula import (
    TruncationSpec,
    default_truncation,
    evaluate,
    fit_loglog_slope,
    lattice_points,
    scaling_study,
    threshold_probe,
    m1_term,
    m2_term,
    m3_term,
    m4_term,
)
from linnik.specfun import bessel_j, gamma_ratio, log_gamma
from linnik.zeros import _SAFETY, ZeroSet, zero_amp, zero_tail, zero_tail_bound


class TestLatticePoints:
    def test_small_radii(self):
        assert lattice_points(2, 0) == ()
        assert lattice_points(2, 1) == ()
        assert lattice_points(2, 2) == ((2, 1),)
        assert dict(lattice_points(2, 3)) == {2: 1, 5: 2, 8: 1}
        with pytest.raises(DomainError):
            lattice_points(2, -1)

    def test_counts_match_direct_enumeration(self):
        pts = dict(lattice_points(2, 12))
        direct = {}
        for l1 in range(1, 13):
            for l2 in range(1, 13):
                s = l1 * l1 + l2 * l2
                if s <= 144:
                    direct[s] = direct.get(s, 0) + 1
        assert pts == direct

    def test_squares_and_the_index_free_set(self):
        # j = 1 is the squares m^2 of m4, j = 0 the single lam = 0 of m1 and m2
        for M in (0, 1, 3, 256):
            assert lattice_points(1, M) == tuple((m * m, 1) for m in range(1, M + 1))
        assert lattice_points(0, 5) == ((0, 1),)

    def test_squares_give_the_doubles_of_the_single_index(self):
        # m4 summed over root = m with log m and bounded its tail by
        # max(M, 1)^{1-2s}/(2s-1); the squares' sqrt(lam), log(lam)/2 and
        # density bound are the same doubles
        for m in range(1, 257):
            assert (math.sqrt(m * m).hex(), (0.5 * math.log(m * m)).hex()) == (
                float(m).hex(), math.log(m).hex()
            )
        for k in (1.7, 2.0, 2.5):
            for _, _, q, paired in formula._cells(1, formula._S):
                s = (k + q + 0.5) / 2.0 + 0.25 if paired else (k + q) / 2.0 + 0.25
                t = 2.0 * s
                for M in range(257):
                    single = max(M, 1) ** (1.0 - t) / (t - 1.0)
                    assert formula._lattice_tail(1, M, s).hex() == single.hex(), (k, q, M)
                    # j = 0: the one point lam = 0 lies inside every cutoff
                    assert formula._lattice_tail(0, M, s) == 0.0, (k, q, M)
        # the density sum diverges at s <= j/2, as for m3's paired cells at k <= 0
        assert formula._lattice_tail(2, 3, 1.0) == math.inf
        assert formula._lattice_tail(1, 3, 0.5) == math.inf
        assert formula._cut_tail(0, 3, 500.0, 2.0) == 0.0
        assert formula._smallest_cutoff(0, 64, 500.0, 2.0, 1.0) == 3

    def test_the_cut_tail_weighs_the_s_pieces_of_the_call(self, monkeypatch):
        # with 1/z patched to z^{-3/2}, the unpaired cut tail weighs the cells
        # the terms then sum, not the ones of the unpatched table
        N, k = 2000.0, 2.0
        unpatched = formula._cut_tail(1, 3, N, k)
        patched = ((1, 1.5, False),) + formula._S[1:]
        monkeypatch.setattr(formula, "_S", patched)
        lnN = math.log(N)
        expected = formula._envelope(N) * sum(
            formula._pref(p, q, k, lnN) * formula._lattice_tail(1, 3, (k + q) / 2.0 + 0.25)
            for _, p, q, paired in formula._cells(1, patched) if not paired
        )
        assert formula._cut_tail(1, 3, N, k) == expected != unpatched


class TestOmega2Pieces:
    """formula._OMEGA2, each piece times the theta sum of its index set, adds
    up to omega(x)^2 itself. x = 1 is left out: there x^{-e} cannot show a
    wrong e."""

    XS = (2.0, 3.0, 5.0)
    DIMENSION = {"smooth": 0, "m": 1, "lattice": 2}  # the ids name the index sets

    @staticmethod
    def matches_omega_squared(x):
        theta = [
            math.fsum(mult * math.exp(-math.pi**2 * lam / x) for lam, mult in lattice_points(j, 12))
            for j in range(3)
        ]
        got = math.fsum(
            r * math.pi**e * x**-e * theta[j]
            for j, pieces in enumerate(formula._OMEGA2)
            for r, e in pieces
        )
        expected = arithmetic.omega2(x).value.real ** 2
        return got == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("x", XS)
    def test_pieces_sum_to_omega_squared(self, x):
        assert self.matches_omega_squared(x)

    MUTATIONS = {
        "flip r": lambda r, e: (-r, e),
        "e + 1/2": lambda r, e: (r, e + 0.5),
        "e - 1/2": lambda r, e: (r, e - 0.5),
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize(
        "index_set, i",
        [("smooth", 0), ("smooth", 1), ("smooth", 2), ("m", 0), ("m", 1), ("lattice", 0)],
    )
    def test_a_mutated_piece_fails(self, monkeypatch, index_set, i, mutation):
        omega2 = [list(pieces) for pieces in formula._OMEGA2]
        pieces = omega2[self.DIMENSION[index_set]]
        pieces[i] = self.MUTATIONS[mutation](*pieces[i])
        monkeypatch.setattr(formula, "_OMEGA2", tuple(map(tuple, omega2)))
        assert not all(self.matches_omega_squared(x) for x in self.XS)


class TestM1:
    def test_closed_form_k0(self):
        # at k = 0: pi N^2/8 + N/4 - (2/3) N^(3/2)
        got = m1_term(CesaroParams(N=100, k=0.0))
        expected = math.pi * 100**2 / 8 + 100 / 4 - (2.0 / 3.0) * 1000.0
        assert got == pytest.approx(expected, rel=1e-14)
        assert math.pi * 100**2 / 8 == pytest.approx(3926.9908169872415, rel=1e-15)

    def test_leading_term_dominance(self):
        k = 2.0
        target = math.pi / (4.0 * math.gamma(k + 3.0))
        r6 = m1_term(CesaroParams(N=10**6, k=k)) / (10**6) ** (k + 2)
        r8 = m1_term(CesaroParams(N=10**8, k=k)) / (10**8) ** (k + 2)
        assert abs(r8 - target) < abs(r6 - target)
        assert r8 == pytest.approx(target, rel=1e-3)

    def test_requires_k_above_minus_one(self):
        with pytest.raises(DomainError):
            m1_term(CesaroParams(N=100, k=-1.5))


@pytest.fixture(scope="module")
def spec50(zeros100):
    return default_truncation(CesaroParams(N=1000, k=2.0), zeros100)


class TestM2:
    def test_empty_zero_sum(self, zeros100):
        spec = TruncationSpec(Z=0, L=3, M=3, tol=1.0)
        assert m2_term(CesaroParams(N=1000, k=2.0), zeros100, spec).value == 0.0

    def test_magnitude_bound_from_gamma_ratios(self, zeros100, spec50):
        N, k = 1000.0, 2.0
        t = m2_term(CesaroParams(N=1000, k=k), zeros100, spec50)
        ratio_sum = sum(
            abs(gamma_ratio(complex(0.5, g), k + 1.5)) for g in zeros100.zeros[:50]
        )
        assert abs(t.value) <= 3.0 * N ** (k + 1.5) * ratio_sum

    def test_block_assembly(self, zeros100, spec50):
        t = m2_term(CesaroParams(N=500, k=2.0), zeros100, spec50)
        c = t.components
        recon = (
            -(math.pi / 4.0) * c["block1"]
            - 0.25 * c["block2"]
            + 0.5 * math.sqrt(math.pi) * c["block3"]
        )
        assert t.value == recon


class TestM3:
    def test_empty_lattice(self, zeros100):
        spec = TruncationSpec(Z=50, L=0, M=3, tol=1.0)
        assert m3_term(CesaroParams(N=100, k=2.0), zeros100, spec).value == 0.0

    def test_first_lattice_term_against_oracle_value(self, zeros100):
        # L = 2 keeps only (1,1); Z = 0 removes the zero part. The expected
        # value is (N^2/pi^3) * J_4(2 pi sqrt(2) sqrt(N)) / 2^2 with the
        # Bessel factor frozen from the 200-bit contour oracle.
        spec = TruncationSpec(Z=0, L=2, M=3, tol=1.0)
        got = m3_term(CesaroParams(N=100, k=2.0), zeros100, spec)
        assert got.value == pytest.approx(6.696964005506506, rel=1e-9)
        assert got.components["zeros"] == 0.0

    def test_sign_split(self, zeros100, spec50):
        t = m3_term(CesaroParams(N=500, k=2.0), zeros100, spec50)
        assert t.value == t.components["lattice"] - t.components["zeros"]
        assert set(t.tail_bounds) == {"lattice", "zeros"}
        assert all(v >= 0.0 for v in t.tail_bounds.values())


class TestM4:
    def test_empty_m_sum(self, zeros100):
        spec = TruncationSpec(Z=50, L=3, M=0, tol=1.0)
        assert m4_term(CesaroParams(N=100, k=2.0), zeros100, spec).value == 0.0

    def test_first_block_against_oracle_value(self, zeros100):
        # m = 1 only, zero blocks off: block1 = (N^2/pi^3) * J_4(2 pi sqrt(N));
        # J_4(20 pi) frozen from the contour oracle
        spec = TruncationSpec(Z=0, L=3, M=1, tol=1.0)
        t = m4_term(CesaroParams(N=100, k=2.0), zeros100, spec)
        assert t.components["block1"] == pytest.approx(25.671096501266785, rel=1e-9)

    def test_sign_pattern(self, zeros100, spec50):
        t = m4_term(CesaroParams(N=500, k=2.0), zeros100, spec50)
        c = t.components
        assert t.value == c["block1"] - c["block2"] - c["block3"] + c["block4"]


def _inverse_laplace(coef, s, c, N):
    """(1/2 pi i) int e^{Nz - c/z} coef z^{-s} dz = coef (N/c)^{(s-1)/2}
    J_{s-1}(2 sqrt(cN)) (DLMF 10.9; Watson, Bessel Functions, ch. 6)."""
    return coef * (N / c) ** ((s - 1) / 2) * mpmath.besselj(s - 1, 2 * mpmath.sqrt(c * N))


def _invert_power(coef, s, N):
    """(1/2 pi i) int e^{Nz} coef z^{-s} dz = coef N^{s-1} / Gamma(s)."""
    return coef * mpmath.mpf(N) ** (s - 1) / mpmath.gamma(s)


def _past_table_model(weight, gamma_T, edge=mpmath.inf):
    """mpmath.quad of a paired weight per zero times the counting density
    log(gamma/2pi)/(2pi), from gamma_T on, split at the plateau edge."""

    def integrand(g):
        return 2 * weight(g) * mpmath.log(g / (2 * mpmath.pi)) / (2 * mpmath.pi)

    pts = [gamma_T, edge, mpmath.inf] if gamma_T < edge < mpmath.inf else [gamma_T, mpmath.inf]
    return float(mpmath.quad(integrand, pts))


class TestZeroTailModel:
    """zeros.zero_tail's part past the table (Z = count leaves only that
    part) equals mpmath.quad of its own model, from above and below."""

    @pytest.mark.parametrize("N", [300, 500, 1000, 2000, 4000])
    def test_past_table_part_covers_its_model(self, zeros100, N):
        # the M3/M4 weight: a plateau up to edge = u_ref/2, then the
        # (edge/gamma)^{k+3/2} decay; N = 300 at cutoff 3 has its edge below
        # the last table zero, N = 4000 at cutoff 6 above it
        gamma_T = zeros100.zeros[-1]
        C = zero_amp(N)
        for cutoff in (3, 4, 6):
            edge = math.pi * cutoff * math.sqrt(N)
            for k in (1.7, 2.0, 2.5):
                decay = k + 1.5
                model = _past_table_model(
                    lambda g: C * min(1, (edge / g) ** decay), gamma_T, edge
                )
                past = zero_tail(zeros100, zeros100.count, C, 0.0, edge, decay)
                assert past == pytest.approx(model, rel=1e-12), (N, cutoff, k, past / model)

    @pytest.mark.parametrize("N", [300, 2000, 4000])
    def test_m2_past_table_part_is_its_model(self, zeros100, N):
        # M2's weight: the Stirling ratio model 1.25 gamma^-power N^{power-1/2}
        gamma_T = zeros100.zeros[-1]
        for power in (2.5, 3.0, 4.5):
            model = _past_table_model(
                lambda g: 1.25 * g ** (-power) * mpmath.mpf(N) ** (power - 0.5), gamma_T
            )
            past = zero_tail_bound(N, power, zeros100.count, zeros100) / _SAFETY
            assert past == pytest.approx(model, rel=1e-12), (N, power, past / model)


class TestBlockOracle:
    """Each block of m1 to m4 against its piece of the generating function
    z^{-k-1} S(z) omega(z)^2, inverted term by term.

    With omega(z) = sum_{l>=1} e^{-l^2 z} = (sqrt(pi/z) - 1)/2
    + sqrt(pi/z) sum_{m>=1} e^{-pi^2 m^2/z}, omega^2 has the index-free
    pieces ((sqrt(pi/z) - 1)/2)^2 (m1, m2) and the theta pieces
    (pi/z) sum_{l1,l2>=1} e^{-pi^2 (l1^2+l2^2)/z} (m3) and
    (pi/z - sqrt(pi/z)) sum_m e^{-pi^2 m^2/z} (m4); S(z) = 1/z
    - sum_rho Gamma(rho) z^{-rho} + ..., the zeros summed in conjugate pairs.
    """

    # theta pieces of omega^2 as (sign, e): sign (pi/z)^e
    THETA = {"pi": (1, 1), "sqrt": (-1, 0.5)}
    # term -> {component: (theta piece, S piece, sign of the component in the term)}
    BLOCKS = {
        "m3": {"lattice": ("pi", "one", 1), "zeros": ("pi", "zero", -1)},
        "m4": {
            "block1": ("pi", "one", 1),
            "block2": ("sqrt", "one", -1),
            "block3": ("pi", "zero", -1),
            "block4": ("sqrt", "zero", 1),
        },
    }

    def oracle(self, theta, s_piece, norms, k, N, rho):
        """The block summed over index norms lam (root^2) with multiplicities."""
        sign, e = self.THETA[theta]
        e = mpmath.mpf(e)
        coef = sign * mpmath.pi**e
        total = 0
        for lam, mult in norms:
            c = mpmath.pi**2 * lam
            if s_piece == "one":
                total += mult * _inverse_laplace(coef, k + 1 + e + 1, c, N)
            else:
                piece = _inverse_laplace(-coef * mpmath.gamma(rho), k + 1 + e + rho, c, N)
                total += 2 * mult * mpmath.re(piece)
        return float(total)

    @pytest.mark.parametrize("k", [2.0, 2.5])
    @pytest.mark.parametrize("N", [30, 200])
    def test_blocks_match_inverse_laplace_pieces(self, zeros100, N, k):
        spec = TruncationSpec(Z=1, L=2, M=1, tol=1.0)
        params = CesaroParams(N=N, k=k)
        norms = {"m3": lattice_points(2, 2), "m4": ((1, 1),)}
        terms = {"m3": m3_term(params, zeros100, spec), "m4": m4_term(params, zeros100, spec)}
        with mpmath.workdps(30):
            rho = mpmath.mpc(0.5, zeros100.zeros[0])
            for term, blocks in self.BLOCKS.items():
                t = terms[term]
                expected = {
                    name: self.oracle(theta, s_piece, norms[term], mpmath.mpf(k), N, rho)
                    for name, (theta, s_piece, _) in blocks.items()
                }
                for name, (_, _, sign) in blocks.items():
                    got = sign * t.components[name]
                    assert got == pytest.approx(expected[name], rel=1e-12), (term, name)
                scale = sum(abs(v) for v in expected.values())
                assert abs(t.value - sum(expected.values())) <= 1e-12 * scale, term

    def smooth_pieces(self):
        """{m2 component: (coef, e)} for the pieces coef z^{-e} of the square
        of (sqrt(pi/z) - 1)/2 = A z^{-1/2} + B."""
        A, B = mpmath.sqrt(mpmath.pi) / 2, mpmath.mpf(-0.5)
        return {
            "block1": (A * A, mpmath.mpf(1)),
            "block2": (B * B, mpmath.mpf(0)),
            "block3": (2 * A * B, mpmath.mpf(0.5)),
        }

    @pytest.mark.parametrize("k", [2.0, 2.5])
    @pytest.mark.parametrize("N", [30, 200])
    def test_index_free_pieces_match_inverse_laplace(self, zeros100, N, k):
        spec = TruncationSpec(Z=1, L=2, M=1, tol=1.0)
        params = CesaroParams(N=N, k=k)
        m1 = m1_term(params)
        t2 = m2_term(params, zeros100, spec)
        with mpmath.workdps(30):
            rho = mpmath.mpc(0.5, zeros100.zeros[0])
            kk = mpmath.mpf(k)
            pieces = self.smooth_pieces()
            # the 1/z piece of S: coef z^{-(k+2+e)}
            expected_m1 = sum(_invert_power(coef, kk + 2 + e, N) for coef, e in pieces.values())
            assert m1 == pytest.approx(float(expected_m1), rel=1e-12)
            # the -Gamma(rho) z^{-rho} piece: -coef Gamma(rho) z^{-(k+1+e+rho)};
            # an m2 component is the paired sum without -coef
            expected = {}
            for name, (coef, e) in pieces.items():
                paired = 2 * mpmath.re(_invert_power(mpmath.gamma(rho), kk + 1 + e + rho, N))
                assert t2.components[name] == pytest.approx(float(paired), rel=1e-12), name
                expected[name] = float(-coef * paired)
        scale = sum(abs(v) for v in expected.values())
        assert abs(t2.value - sum(expected.values())) <= 1e-12 * scale


class TestIndexFreeLimit:
    """A j = 0 cell of m1 or m2 is the lam -> 0 limit of the Bessel cell the
    kernel sums at j >= 1: coef pref J_nu(2 pi root sqrt N) / root^nu with
    pref = N^{(k+q)/2} pi^{p-k-q}, times 2 Re Gamma(rho) pi^-rho N^{rho/2} at
    a zero if paired (nu = k + q + rho). As J_nu(u) (u/2)^-nu Gamma(nu+1)
    = 1 - (u/2)^2/(nu+1) + O(u^4), at a small root the two differ by about
    pi^2 root^2 N / |nu+1| of the cell."""

    ROOT = 1e-4

    @pytest.mark.parametrize("paired", [False, True], ids=["one", "zeros"])
    @pytest.mark.parametrize("piece", range(3))
    @pytest.mark.parametrize("k", [2.0, 2.5])
    def test_each_cell_is_the_limit_of_its_bessel_form(
        self, zeros100, monkeypatch, k, piece, paired
    ):
        N, root = 500, self.ROOT
        monkeypatch.setattr(formula, "_OMEGA2", ((formula._OMEGA2[0][piece],),))
        s_piece = next(sp for sp in formula._S if sp[2] == paired)
        ((coef, p, q, _),) = formula._cells(0, (s_piece,))
        spec = TruncationSpec(Z=1, L=0, M=0, tol=1.0)
        params = CesaroParams(N=N, k=k)
        got = formula._bessel_term(0, (s_piece,), ("cell",), None, 0, params, zeros100, spec)
        rho = complex(0.5, zeros100.zeros[0]) if paired else 0.0
        nu = k + q + rho
        form = (coef * N ** ((k + q) / 2) * math.pi ** (p - k - q)
                * bessel_j(nu, 2 * math.pi * root * math.sqrt(N)) * cmath.exp(-nu * math.log(root)))
        if paired:
            form *= 2 * cmath.exp(log_gamma(rho) - rho * math.log(math.pi) + 0.5 * rho * math.log(N))
        first_order = math.pi**2 * root**2 * N / abs(nu + 1)
        assert abs(got.value - form.real) <= 2 * first_order * abs(form)


class TestEvaluate:
    def test_theorem_range_gate(self, zeros100, monkeypatch):
        def build(*args):
            raise AssertionError("left side computed")

        # the r_Q table of N = 100 may be held from another test
        monkeypatch.setattr(arithmetic, "compute_rq", build)
        monkeypatch.setattr(arithmetic, "cesaro_lhs", build)
        spec = TruncationSpec(Z=10, L=3, M=2, tol=1.0)
        for k in (1.2, 1.5):
            with pytest.raises(DomainError) as exc:
                evaluate(CesaroParams(N=100, k=k), zeros100, spec)
            assert str(exc.value) == f"k = {k} is outside the theorem range k > 3/2"

    def test_tail_notes_in_order(self, zeros100):
        spec = TruncationSpec(Z=50, L=3, M=2, tol=1.0)
        rep = evaluate(CesaroParams(N=100, k=2.0), zeros100, spec)
        # first the notes past tol, then those past their term's own |value|
        n_tol = sum("exceeds tol" in n for n in rep.notes)
        assert n_tol and all("exceeds tol" in n for n in rep.notes[:n_tol])
        unresolved = rep.notes[n_tol:]
        assert unresolved and all(" unresolved: tail " in n for n in unresolved)

    def test_a_Z_past_the_table_is_refused_before_the_work(self, zeros100, monkeypatch):
        def build(*args):
            raise AssertionError("compute_rq called")

        monkeypatch.setattr(arithmetic, "compute_rq", build)
        spec = TruncationSpec(Z=101, L=3, M=2, tol=1.0)
        with pytest.raises(DomainError) as exc:
            evaluate(CesaroParams(N=1000003, k=2.0), zeros100, spec)
        assert str(exc.value) == "Z = 101 out of range for table of 100 zeros"

    def test_lhs_error_is_tagged_like_the_terms(self, zeros100, spec50):
        # the sieve refuses N past MAX_SIEVE before it allocates
        with pytest.raises(DomainError) as exc:
            evaluate(CesaroParams(N=arithmetic.MAX_SIEVE + 1, k=2.0), zeros100, spec50)
        assert str(exc.value).startswith("lhs: ")

    def test_N4_lhs_vanishes_report_well_formed(self, zeros100):
        spec = TruncationSpec(Z=10, L=2, M=1, tol=1.0)
        rep = evaluate(CesaroParams(N=4, k=2.0), zeros100, spec)
        assert rep.lhs == 0.0
        assert rep.residual == rep.lhs - (rep.m1 + rep.m2 + rep.m3 + rep.m4)
        assert math.isfinite(rep.normalized_residual)
        assert set(rep.tail_bounds) == {"m2", "m3", "m4"}

    def test_bitwise_deterministic(self, zeros100):
        spec = TruncationSpec(Z=20, L=3, M=2, tol=1.0)
        a = evaluate(CesaroParams(N=300, k=2.0), zeros100, spec)
        b = evaluate(CesaroParams(N=300, k=2.0), zeros100, spec)
        assert (a.lhs, a.m1, a.m2, a.m3, a.m4, a.residual) == (
            b.lhs,
            b.m1,
            b.m2,
            b.m3,
            b.m4,
            b.residual,
        )

    def test_magnitude_hierarchy(self, grid_runs):
        for N, (_spec, rep) in grid_runs.items():
            assert rep.m1 > 0.0
            assert abs(rep.m2) + abs(rep.m3) + abs(rep.m4) < 0.05 * rep.m1

    def test_tails_missing_tol_are_noted(self, zeros100, grid_runs):
        spec, rep = grid_runs[2000]
        assert rep.tail_bounds["m3"] > spec.tol  # 3.25e6 against 8000
        assert (f"m3 tail bound {rep.tail_bounds['m3']:.3e} exceeds tol "
                f"{spec.tol:.3e}") in rep.notes
        loose = TruncationSpec(Z=spec.Z, L=spec.L, M=spec.M, tol=1e30)
        rep = evaluate(CesaroParams(N=2000, k=2.0), zeros100, loose)
        assert not any("exceeds tol" in n for n in rep.notes)

    def test_table_memo_keeps_the_last_n(self, cold_memos):
        from linnik import formula

        tables_for = formula._tables_for
        cold_memos(tables_for)
        first = tables_for(600)
        assert tables_for(600) is first
        other = tables_for(700)  # replaces 600 in the one slot
        assert list(tables_for.cache) == [(700,)]
        assert tables_for(700) is other
        again = tables_for(600)  # rebuilt, with the same bits
        assert again is not first
        assert np.array_equal(again.values, first.values)
        assert list(tables_for.cache) == [(600,)]

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="the release needs CPython 3.11's move of call arguments")
    def test_a_grown_build_frees_lambda_and_the_old_passes(self, cold_memos, monkeypatch):
        # the held table leaves the slot and the sieve's table goes straight
        # into compute_rq, so by the grown build's second (r_Q) pass Lambda
        # and the old table's arrays are freed: the peak is one r_Q table
        # plus one N-sized array
        tables_for = formula._tables_for
        cold_memos(tables_for)
        old = tables_for(3000)
        old_arrays = [weakref.ref(old.one_square), weakref.ref(old.values)]
        del old
        lams, alive = [], []
        add, sieve = arithmetic._add_one_square, arithmetic.sieve_von_mangoldt

        def spy_sieve(N):
            lam = sieve(N)
            lams.append(weakref.ref(lam))
            return lam

        def spy_add(src, out, first=0):
            alive.append([ref() is not None for ref in lams + old_arrays])
            add(src, out, first)

        monkeypatch.setattr(arithmetic, "sieve_von_mangoldt", spy_sieve)
        monkeypatch.setattr(arithmetic, "_add_one_square", spy_add)
        tables_for(6000)
        # pass 1 reads Lambda; the prefix's first pass is gone, its values
        # are held until the r_Q output exists
        assert alive == [[True, False, True], [False, False, False]]

    def test_a_failed_build_leaves_the_slot_empty(self, cold_memos, monkeypatch):
        tables_for = formula._tables_for
        cold_memos(tables_for)
        tables_for(3000)
        build = arithmetic.compute_rq

        def failing(lam, N, prefix=None):
            raise MemoryError

        monkeypatch.setattr(arithmetic, "compute_rq", failing)
        with pytest.raises(MemoryError):
            tables_for(6000)
        assert tables_for.cache == {}
        prefixes = []
        monkeypatch.setattr(arithmetic, "compute_rq",
                            lambda lam, N, prefix=None: prefixes.append(prefix) or
                            build(lam, N, prefix))
        assert tables_for(6000).limit == 6000
        assert prefixes == [None]  # built fresh

    def test_any_n_order_gives_the_cold_bits(self, zeros100, cold_memos, monkeypatch):
        # a grown table gives each N the bits of an evaluate whose table was
        # built cold at that N
        tables_for = formula._tables_for
        cold_memos(tables_for)
        spec = TruncationSpec(Z=2, L=3, M=3, tol=1.0)

        def fields(N):
            rep = evaluate(CesaroParams(N=N, k=2.0), zeros100, spec)
            return [x.hex() for x in (rep.lhs, rep.m1, rep.m2, rep.m3, rep.m4)]

        cold = {}
        for N in (3000, 6000, 12000):
            tables_for.cache.clear()
            cold[N] = fields(N)

        firsts, builds, sieves = [], [], []
        add, build, sieve = (arithmetic._add_one_square, arithmetic.compute_rq,
                             arithmetic.sieve_von_mangoldt)
        monkeypatch.setattr(arithmetic, "_add_one_square",
                            lambda src, out, first=0: firsts.append(first) or add(src, out, first))
        monkeypatch.setattr(arithmetic, "compute_rq",
                            lambda lam, N, prefix=None: builds.append(N) or build(lam, N, prefix))
        monkeypatch.setattr(arithmetic, "sieve_von_mangoldt",
                            lambda N: sieves.append(N) or sieve(N))
        # the passes start past the held limit for an N above it, and at 0
        # for a cold slot or an N below the held limit
        expected = {(3000, 6000, 12000): [0, 0, 3001, 3001, 6001, 6001],
                    (12000, 6000, 3000): [0, 0, 0, 0, 0, 0],
                    (12000, 3000, 6000): [0, 0, 0, 0, 3001, 3001]}
        for order, passes in expected.items():
            tables_for.cache.clear()
            del firsts[:], builds[:], sieves[:]
            for N in order:
                assert fields(N) == cold[N]
            assert builds == sieves == list(order)
            assert firsts == passes

    def test_subterm_error_carries_term_identification(self, zeros100, monkeypatch):
        # m3 is the first term to evaluate a Bessel function
        def uncertifiable(nu, u):
            raise PrecisionError("uncertifiable")

        monkeypatch.setattr("linnik.formula.bessel_j", uncertifiable)
        spec = TruncationSpec(Z=5, L=2, M=1, tol=1.0)
        with pytest.raises(PrecisionError) as exc:
            evaluate(CesaroParams(N=100, k=2.0), zeros100, spec)
        assert type(exc.value) is PrecisionError
        assert str(exc.value) == "m3: uncertifiable"

    @pytest.mark.parametrize("error, expected", [
        (lambda: DomainError("gamma pole at non-positive integer -3"),
         DomainError("m3: gamma pole at non-positive integer -3")),
        (lambda: PrecisionError("max depth reached"), PrecisionError("m3: max depth reached")),
        (lambda: OverflowError("int too large to convert to float"),
         DomainError("m3: a value exceeds double range (int too large to convert to float)")),
    ], ids=["domain", "precision", "overflow"])
    def test_a_term_error_keeps_its_type_and_message(
        self, zeros100, monkeypatch, error, expected
    ):
        # an OverflowError, a value past double range, comes out a DomainError
        def failing(nu, u):
            raise error()

        monkeypatch.setattr("linnik.formula.bessel_j", failing)
        spec = TruncationSpec(Z=5, L=2, M=1, tol=1.0)
        with pytest.raises(type(expected)) as exc:
            evaluate(CesaroParams(N=100, k=2.0), zeros100, spec)
        assert type(exc.value) is type(expected)
        assert vars(exc.value) == {}
        assert str(exc.value) == str(expected)


class TestLemma5Probe:
    def test_empty_zero_set(self):
        empty = ZeroSet((), "empty")
        assert threshold_probe(2, 1.75, 100, empty, 0) == ()

    def test_partial_sums_nonnegative_nondecreasing(self, zeros100):
        ps = threshold_probe(2, 1.75, 100, zeros100, 30)
        assert len(ps) == 30
        assert all(p >= 0.0 for p in ps)
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_divergent_grows_faster_than_convergent(self, zeros100):
        conv = threshold_probe(2, 1.75, 100, zeros100, 50)
        div = threshold_probe(2, 1.0, 100, zeros100, 50)
        assert div[49] / div[24] > conv[49] / conv[24]

    def test_dimension_validation(self, zeros100):
        with pytest.raises(DomainError):
            threshold_probe(4, 2.0, 100, zeros100, 5)
        with pytest.raises(DomainError):
            threshold_probe(2, -1.0, 100, zeros100, 5)
        with pytest.raises(DomainError):
            threshold_probe(2, 1.75, 0, zeros100, 5)
        # k + 1/2 <= d - 1: the per-zero integral diverges at v = 0
        with pytest.raises(DomainError):
            threshold_probe(3, 1.0, 100, zeros100, 5)
        with pytest.raises(DomainError):
            threshold_probe(2, 0.5, 100, zeros100, 5)

    @pytest.mark.parametrize("d,k", [(1, 1.0), (1, 1.75), (3, 1.75), (3, 2.5)])
    def test_terms_match_closed_form(self, zeros100, d, k):
        # for gamma >> sqrt(N) each term is, up to O(e^{-pi^2 gamma^2/(N v^2)}),
        # gamma^{-k-3/2} sum_j C(d,j) (sqrt(pi) gamma/(2 sqrt N))^j (-1/2)^{d-j}
        # Gamma(k+3/2-j)
        N = 25
        ps = threshold_probe(d, k, N, zeros100, 50)
        for j in range(24, 50):
            gamma = zeros100.zeros[j]
            x = math.sqrt(math.pi) * gamma / (2.0 * math.sqrt(N))
            closed = gamma ** (-k - 1.5) * sum(
                math.comb(d, i) * x**i * (-0.5) ** (d - i) * math.gamma(k + 0.5 + 1 - i)
                for i in range(d + 1)
            )
            assert ps[j] - ps[j - 1] == pytest.approx(closed, rel=1e-8)


class TestScalingFit:
    def test_synthetic_cubic(self):
        ns = [500, 1000, 2000, 4000]
        slope = fit_loglog_slope(ns, [0.7 * n**3 for n in ns])
        assert slope == pytest.approx(3.0, abs=1e-6)

    def test_a_zero_value_is_refused(self):
        # log 0 has no slope
        with pytest.raises(DomainError) as exc:
            fit_loglog_slope([10, 20, 40, 80], [0.0, 8e3, 6.4e4, 5.12e5])
        assert str(exc.value) == "the value at N = 10 is 0, which has no log-log slope"

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            fit_loglog_slope([10, 20], [0.0, 5.0])
        # three rows at one N are one point
        with pytest.raises(DomainError):
            fit_loglog_slope([500, 500, 500], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("N_list", [[500, 1000], [2000, 1000, 500], [500, 500, 500]])
    def test_study_needs_three_strictly_ascending_N(self, zeros100, N_list):
        with pytest.raises(DomainError):
            scaling_study(N_list, 2.0, zeros100)


class TestDefaultTruncation:
    def test_fifty_zeros_and_floors(self, zeros100):
        spec = default_truncation(CesaroParams(N=1000, k=2.0), zeros100)
        assert spec.Z == 50
        assert spec.L >= 3
        assert spec.M >= 3
        assert spec.tol == pytest.approx(1e-6 * 1000.0**3)

    def test_tolerance_tightens_cutoffs(self, zeros100):
        params = CesaroParams(N=1000, k=2.0)
        loose = default_truncation(params, zeros100)
        tight = default_truncation(params, zeros100, tol=loose.tol * 1e-4)
        assert tight.L >= loose.L
        assert tight.M >= loose.M
        assert tight.L > 3 or tight.M > 3

    @pytest.mark.parametrize("bad", [
        {"Z": -1}, {"L": -1}, {"M": -1}, {"tol": 0.0}, {"tol": -1.0},
        {"Z": 2.5}, {"L": 3.0}, {"M": 3.0},
    ])
    def test_spec_refuses_negative_cutoffs_and_tol(self, bad):
        with pytest.raises(DomainError):
            TruncationSpec(**{"Z": 2, "L": 3, "M": 3, "tol": 1.0, **bad})

    def test_doubling_helper(self, zeros100):
        spec = default_truncation(CesaroParams(N=500, k=2.0), zeros100)
        assert spec.doubled("Z").Z == 2 * spec.Z
        assert spec.doubled("L").L == 2 * spec.L
        assert spec.doubled("M").M == 2 * spec.M
        with pytest.raises(ValueError):
            spec.doubled("Q")

    @pytest.mark.parametrize("N", [10, 500, 2000])
    @pytest.mark.parametrize("k", [1.7, 2.0])
    def test_given_cutoffs_are_kept_and_the_rest_chosen_for_tol(self, zeros100, N, k):
        # each given cutoff in place of the one chosen for tol with none given
        params = CesaroParams(N=N, k=k)
        tol = 1e-9 * float(N) ** (k + 1.0)
        chosen = default_truncation(params, zeros100, tol=tol)
        for given in ({"L": 7}, {"M": 11}, {"Z": 3, "L": 5, "M": 13}):
            assert default_truncation(params, zeros100, tol=tol, **given) == replace(
                chosen, **given
            )

    def test_given_L_and_M_skip_the_search(self, zeros100, monkeypatch):
        def no_search(*args):
            raise AssertionError("cutoff search ran for a given cutoff")

        monkeypatch.setattr(formula, "_smallest_cutoff", no_search)
        params = CesaroParams(N=500, k=2.0)
        spec = default_truncation(params, zeros100, L=4, M=6)
        assert (spec.Z, spec.L, spec.M) == (50, 4, 6)
        assert spec.tol == pytest.approx(1e-6 * 500.0**3)
