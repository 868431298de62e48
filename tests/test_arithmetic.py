import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linnik import arithmetic
from linnik.arithmetic import (
    CesaroParams,
    cesaro_lhs,
    compute_rq,
    fsum_complex,
    omega2,
    sieve_von_mangoldt,
)
from linnik.errors import DomainError

from lhs_oracle import cesaro_lhs_k2
from s_oracle import s_tilde


def brute_prime_powers(limit):
    """Independent prime-power enumeration by trial division."""
    out = {}
    for n in range(2, limit + 1):
        m, p = n, None
        for d in range(2, n + 1):
            if d * d > m:
                break
            if m % d == 0:
                p = d
                while m % d == 0:
                    m //= d
                break
        if p is None:
            out[n] = (n, 1)  # n prime
        elif m == 1:
            j = round(math.log(n) / math.log(p))
            if p**j == n:
                out[n] = (p, j)
    return out


def per_prime_sieve(N):
    """Lambda values by one Python loop over every prime and its powers."""
    is_prime = np.ones(N + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(N) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    values = np.zeros(N + 1, dtype=np.float64)
    for p in np.nonzero(is_prime)[0].tolist():
        logp = math.log(p)
        pk = p
        while pk <= N:
            values[pk] = logp
            pk *= p
    return values


class TestVonMangoldt:
    def test_small_values(self):
        lam = sieve_von_mangoldt(20)
        assert lam[1] == 0.0
        assert lam[8] == math.log(2)
        assert lam[12] == 0.0
        assert lam[7] == math.log(7)
        assert lam[9] == math.log(3)

    def test_prime_power_detection_matches_trial_division(self):
        lam = sieve_von_mangoldt(600)
        brute = brute_prime_powers(600)
        assert np.flatnonzero(lam).tolist() == sorted(brute)
        assert all(lam[n] == math.log(p) for n, (p, _j) in brute.items())

    def test_prime_power_value_identical_float(self):
        lam = sieve_von_mangoldt(1024)
        for n, (p, _j) in brute_prime_powers(1024).items():
            assert lam[n] == lam[p]

    def test_psi_100_against_brute_force(self):
        lam = sieve_von_mangoldt(100)
        expected = math.fsum(math.log(p) for _, (p, _j) in brute_prime_powers(100).items())
        assert float(np.sum(lam)) == pytest.approx(expected, rel=1e-14)

    def test_chebyshev_band(self):
        lam = sieve_von_mangoldt(5000)
        for N in (1000, 2500, 5000):
            psi = float(np.sum(lam[: N + 1]))
            assert abs(psi - N) / N < 0.11

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 1001, 65537])
    def test_same_bits_as_the_per_prime_loop(self, N):
        got, want = sieve_von_mangoldt(N), per_prime_sieve(N)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_prime_values_are_math_log(self):
        N = 10**5
        lam = sieve_von_mangoldt(N)
        # an Eratosthenes sieve on a bytearray, apart from the package's
        is_prime = bytearray([0, 0]) + bytearray([1]) * (N - 1)
        for i in range(2, math.isqrt(N) + 1):
            if is_prime[i]:
                is_prime[i * i :: i] = bytes(len(range(i * i, N + 1, i)))
        primes = [n for n in range(N + 1) if is_prime[n]]
        assert len(primes) == 9592  # pi(10^5)
        assert all(lam[p] == math.log(p) for p in primes)

    def test_size_errors(self):
        with pytest.raises(DomainError, match="table limit must be >= 1, got 0"):
            sieve_von_mangoldt(0)
        with pytest.raises(DomainError, match="exceeds supported maximum 10000000"):
            sieve_von_mangoldt(10**7 + 1)


def brute_rq_counts(n_max):
    """Triple loop over m1 + l1^2 + l2^2 = n, counting prime powers per prime."""
    pp = brute_prime_powers(n_max)
    counts = [dict() for _ in range(n_max + 1)]
    for n in range(1, n_max + 1):
        l1 = 1
        while l1 * l1 + 1 < n:
            l2 = 1
            while l1 * l1 + l2 * l2 < n:
                m1 = n - l1 * l1 - l2 * l2
                if m1 in pp:
                    p = pp[m1][0]
                    counts[n][p] = counts[n].get(p, 0) + 1
                l2 += 1
            l1 += 1
    return counts


def counts_to_value(c):
    return math.fsum(cnt * math.log(p) for p, cnt in sorted(c.items()))


def pair_loop_rq(lam, N):
    """r_Q by one slice add per lattice pair (l1, l2), ascending: O(N^2) adds."""
    values = np.zeros(N + 1, dtype=np.float64)
    l1 = 1
    while l1 * l1 + 1 < N:
        l2 = 1
        while l1 * l1 + l2 * l2 < N:
            norm = l1 * l1 + l2 * l2
            values[norm + 1 : N + 1] += lam[1 : N - norm + 1]
            l2 += 1
        l1 += 1
    return values


def whole_array_rq(lam, N):
    """r_Q by two one-square passes, each one whole-array slice add per
    square, ascending in l."""

    def one_square(src):
        out = np.zeros(N + 1, dtype=np.float64)
        root = 1
        while root * root < N:
            sq = root * root
            out[sq + 1 :] += src[1 : N - sq + 1]
            root += 1
        return out

    return one_square(one_square(lam))


def compensated_lhs(rq, N, k):
    """The Cesaro sum as one Neumaier-compensated add per nonzero term,
    descending n."""
    total = comp = 0.0
    for n in range(N, 0, -1):
        r = rq.values[n]
        if r != 0.0:
            x = r * float(N - n) ** k
            t = total + x
            if abs(total) >= abs(x):
                comp += (total - t) + x
            else:
                comp += (x - t) + total
            total = t
    return (total + comp) / math.gamma(k + 1)


class TestLinnikCounts:
    def test_small_values(self, lam500):
        rq = compute_rq(lam500, 20)
        assert rq.values[1] == 0.0
        assert rq.values[2] == 0.0
        assert rq.values[3] == 0.0
        assert rq.values[4] == math.log(2)  # 4 = 2 + 1 + 1
        assert rq.values[6] == math.log(2)  # 6 = 4 + 1 + 1 only (Lambda(1) = 0)

    def test_nonnegative_and_zero_below_four(self, lam500, rq500):
        assert np.all(rq500.values >= 0.0)
        assert np.all(rq500.values[:4] == 0.0)

    def test_float_table_matches_exact_counts(self, lam500, rq500):
        counts = brute_rq_counts(500)
        for n in range(1, 501):
            expected = counts_to_value(counts[n])
            assert rq500.values[n] == pytest.approx(expected, rel=5e-14, abs=1e-300)

    @pytest.mark.parametrize("N", [4, 5, 17, 1001, 20000])
    def test_matches_pair_loop(self, N):
        lam = sieve_von_mangoldt(N)
        ours = compute_rq(lam, N).values
        oracle = pair_loop_rq(lam, N)
        assert np.array_equal(ours == 0.0, oracle == 0.0)
        nz = oracle != 0.0
        assert np.all(np.abs(ours[nz] - oracle[nz]) <= 1e-13 * oracle[nz])

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("N", [4, 5, 17, 1001, 4099])
    def test_any_block_size_gives_the_whole_array_bits(self, N, block, monkeypatch):
        lam = sieve_von_mangoldt(N)
        monkeypatch.setattr(arithmetic, "_BLOCK", block)
        assert compute_rq(lam, N).values.tobytes() == whole_array_rq(lam, N).tobytes()

    def test_two_blocks_give_the_whole_array_bits(self):
        N = 140000
        assert 2 * arithmetic._BLOCK < N + 1 <= 3 * arithmetic._BLOCK
        lam = sieve_von_mangoldt(N)
        assert compute_rq(lam, N).values.tobytes() == whole_array_rq(lam, N).tobytes()

    def test_prefix_is_the_same_bits_for_any_length(self, monkeypatch):
        lam = sieve_von_mangoldt(5000)
        # under a 64-entry block, M = 62..65 and 129 put the table's end
        # either side of a block edge
        for block in (arithmetic._BLOCK, 64):
            monkeypatch.setattr(arithmetic, "_BLOCK", block)
            full = compute_rq(lam, 5000).values
            for M in (4, 17, 62, 63, 64, 65, 129, 1000, 4999):
                assert full[: M + 1].tobytes() == compute_rq(lam, M).values.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=4, max_value=300))
    def test_float_table_matches_exact_counts_generated(self, N):
        lam = sieve_von_mangoldt(N)
        rq = compute_rq(lam, N)
        counts = brute_rq_counts(N)
        for n in range(N + 1):
            assert rq.values[n] == pytest.approx(counts_to_value(counts[n]), rel=5e-14, abs=1e-300)

    def test_table_shorter_than_requested(self, lam500):
        with pytest.raises(DomainError):
            compute_rq(lam500, 600)

    def test_first_pass_is_the_one_square_count(self, lam500):
        # r_HL(j) = sum over l >= 1 of Lambda(j - l^2), the same float sum
        # ascending in l
        first = compute_rq(lam500, 500).one_square
        for j in range(501):
            total = 0.0
            for l in range(1, math.isqrt(max(j - 1, 0)) + 1):
                total += float(lam500[j - l * l])
            assert first[j] == total


# (N1, N2): one entry grown; a few blocks; and prefixes that end one before,
# on and one past the 65536-entry block edge, grown to three blocks
GROWN = [(4, 5), (17, 1001), (1000, 4099), (65535, 140000), (65536, 140000),
         (65537, 140000)]


class TestGrownTable:
    @pytest.fixture(scope="class")
    def lam140k(self):
        return sieve_von_mangoldt(140000)

    @pytest.fixture(scope="class")
    def rq140k(self, lam140k):
        return compute_rq(lam140k, 140000)

    @staticmethod
    def same_bits(a, b):
        assert a.limit == b.limit
        assert a.values.tobytes() == b.values.tobytes()
        assert a.one_square.tobytes() == b.one_square.tobytes()

    @pytest.mark.parametrize("N1, N2", GROWN)
    def test_a_grown_table_is_a_fresh_build(self, lam140k, N1, N2):
        prefix = compute_rq(lam140k, N1)
        self.same_bits(compute_rq(lam140k, N2, prefix), compute_rq(lam140k, N2))
        assert prefix.limit == N1  # the prefix is copied, not written

    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("N1, N2", GROWN[:3])
    def test_any_block_size_grows_the_same_bits(self, lam140k, N1, N2, block, monkeypatch):
        monkeypatch.setattr(arithmetic, "_BLOCK", block)
        grown = compute_rq(lam140k, N2, compute_rq(lam140k, N1))
        self.same_bits(grown, compute_rq(lam140k, N2))

    def test_growth_adds_only_past_the_prefix(self, lam500, monkeypatch):
        firsts = []
        add = arithmetic._add_one_square
        monkeypatch.setattr(arithmetic, "_add_one_square",
                            lambda src, out, first=0: firsts.append(first) or add(src, out, first))
        compute_rq(lam500, 500, compute_rq(lam500, 200))
        assert firsts == [0, 0, 201, 201]

    @pytest.mark.parametrize("N", [17, 200])
    def test_a_prefix_at_or_past_n_is_refused(self, lam500, N):
        with pytest.raises(DomainError):
            compute_rq(lam500, N, compute_rq(lam500, 200))

    @pytest.mark.parametrize("k", [0.0, 2.0, 2.5])
    @pytest.mark.parametrize("N", [65536, 65537, 140000])
    def test_the_blocked_cesaro_sum_is_one_fsum(self, rq140k, N, k):
        # cesaro_lhs sums the weighted terms one _BLOCK at a time; the 140000
        # table spans three blocks, and the sum must be the float of one fsum
        # over the whole weighted array
        w = np.arange(N - 1, -1, -1, dtype=np.float64)
        np.power(w, k, out=w)
        w *= rq140k.values[1 : N + 1]
        whole = math.fsum(memoryview(w)) / math.gamma(k + 1)
        assert cesaro_lhs(rq140k, CesaroParams(N=N, k=k)) == whole


class TestCesaroLhs:
    def test_weight_vanishes_at_n_equal_N(self, rq500):
        assert cesaro_lhs(rq500, CesaroParams(N=4, k=2.0)) == 0.0

    def test_hand_value_N5(self, rq500):
        # only r_Q(4) = log 2 contributes, weight 1^2 / Gamma(3) = 1/2
        got = cesaro_lhs(rq500, CesaroParams(N=5, k=2.0))
        assert got == pytest.approx(math.log(2) / 2, rel=1e-15)

    def test_against_fsum_oracle(self, lam500, rq500):
        pp = {n: float(lam500[n]) for n in np.flatnonzero(lam500).tolist()}
        for N in (100, 250, 500):
            for k in (2.0, 2.5):
                terms = []
                for m1, w in pp.items():
                    l1 = 1
                    while m1 + l1 * l1 + 1 <= N:
                        l2 = 1
                        while m1 + l1 * l1 + l2 * l2 <= N:
                            n = m1 + l1 * l1 + l2 * l2
                            terms.append(w * float(N - n) ** k)
                            l2 += 1
                        l1 += 1
                oracle = math.fsum(terms) / math.gamma(k + 1)
                got = cesaro_lhs(rq500, CesaroParams(N=N, k=k))
                assert got == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("N, bits", [
        (10**3, "0x1.c1061b9122f3dp+34"),
        (10**4, "0x1.22862f45049f2p+48"),
        (10**5, "0x1.689f238c768c6p+61"),
        (10**6, "0x1.ba7849fab17a1p+74"),
    ])
    def test_equals_the_exact_prefix_moment_sum_at_k2(self, N, bits):
        # the exact sum, rounded once, from no r_Q table
        exact = cesaro_lhs_k2(N)
        assert exact.hex() == bits
        assert cesaro_lhs(compute_rq(sieve_von_mangoldt(N), N), CesaroParams(N=N, k=2.0)) == exact

    def test_against_compensated_loop(self):
        lam = sieve_von_mangoldt(4000)
        for N in (500, 4000):
            rq = compute_rq(lam, N)
            for k in (0.0, 2.0, 2.5):
                got = cesaro_lhs(rq, CesaroParams(N=N, k=k))
                assert got == pytest.approx(compensated_lhs(rq, N, k), rel=1e-15)

    def test_monotone_in_N(self, rq500):
        vals = [cesaro_lhs(rq500, CesaroParams(N=N, k=2.0)) for N in range(4, 120)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_k_zero_convention_and_negative_k(self, rq500):
        v = cesaro_lhs(rq500, CesaroParams(N=10, k=0.0))
        # 0^0 = 1: the n = N term enters with weight 1
        direct = math.fsum(rq500.values[1:11])
        assert v == pytest.approx(direct, rel=1e-14)
        with pytest.raises(DomainError):
            cesaro_lhs(rq500, CesaroParams(N=10, k=-0.5))
        # and a table shorter than N, N < 4, a non-integer N and a non-finite k
        with pytest.raises(DomainError):
            cesaro_lhs(rq500, CesaroParams(N=501, k=2.0))
        for N, k in ((3, 2.0), (500.0, 2.0), (10, math.inf), (10, math.nan)):
            with pytest.raises(DomainError):
                CesaroParams(N=N, k=k)
        # weights past double range: inf times r_Q(1) = 0 made the sum nan
        with pytest.raises(OverflowError):
            cesaro_lhs(rq500, CesaroParams(N=500, k=137.0))


class TestGeneratingFunctions:
    def test_s_tilde_direct_sum(self, lam500):
        z = complex(10.0, 0.0)
        got = s_tilde(z, 20, lam500)
        expected = math.fsum(
            lam500[m] * math.exp(-10.0 * m) for m in range(1, 21)
        )
        assert got.value.real == pytest.approx(expected, rel=1e-13)
        assert abs(got.value.imag) == 0.0
        assert got.tail_bound <= 2 * 20 * math.exp(-200.0) / 10.0

    @pytest.mark.parametrize("z", [complex(0.3, 2.0), complex(0.01, 0.0)])
    @pytest.mark.parametrize("C", [2, 8, 9, 500])
    def test_s_tilde_is_the_fsum_over_the_table(self, lam500, z, C):
        # C = 8 and 9 are prime powers; 500 is the table's limit
        want = fsum_complex(float(lam500[m]) * cmath.exp(-m * z) for m in range(1, C + 1))
        assert s_tilde(z, C, lam500).value == want

    def test_s_tilde_decays_for_large_a(self, lam500):
        got = s_tilde(complex(50.0, 0.0), 10, lam500)
        assert abs(got.value) < 1e-21

    def test_s_tilde_tail_for_tiny_a(self, lam500):
        # e^{-a} rounds to 1.0 here; the tail is the closed form
        # e^{-a(C+1)} ((C+1)/(1-q) + q/(1-q)^2), q = e^{-a}, at 50 digits
        a, C = 1e-17, 10
        got = s_tilde(complex(a, 0.0), C, lam500)
        with mpmath.workdps(50):
            q = mpmath.exp(-mpmath.mpf(a))
            ref = float(q ** (C + 1) * ((C + 1) / (1 - q) + q / (1 - q) ** 2))
        assert math.isfinite(got.tail_bound)
        assert got.tail_bound == pytest.approx(ref, rel=1e-14)
        assert got.value.real == pytest.approx(math.fsum(lam500[1:C + 1]), rel=1e-14)

    def test_pnt_form(self):
        a = 1e-3
        got = s_tilde(complex(a, 0.0), 10**5, sieve_von_mangoldt(10**5))
        assert abs(a * got.value.real - 1.0) < 0.15

    def test_domain_error(self, lam500):
        with pytest.raises(DomainError):
            s_tilde(complex(-1.0, 0.5), 10, lam500)
        with pytest.raises(DomainError):
            s_tilde(complex(1.0, 0.5), 0, lam500)
        with pytest.raises(DomainError):
            s_tilde(complex(1.0, 0.5), 501, lam500)
        with pytest.raises(DomainError):
            omega2(complex(0.0, 1.0))

    def test_omega2_trivial_bound(self):
        for a in (0.01, 0.1, 1.0):
            bound = math.sqrt(math.pi) / (2.0 * math.sqrt(a))
            ref = abs(omega2(complex(a, 0.0)).value)
            assert ref <= bound
            for y in (-2.0, 0.0, 3.0):
                assert abs(omega2(complex(a, y)).value) <= ref + 1e-15

    def test_theta_functional_equation(self):
        for a in (0.01, 0.1, 1.0):
            for y in (-2.0, 0.0, 3.0):
                z = complex(a, y)
                lhs = 1.0 + 2.0 * omega2(z).value
                rhs = cmath.sqrt(math.pi / z) * (1.0 + 2.0 * omega2(math.pi**2 / z).value)
                assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
