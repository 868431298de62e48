import cmath
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from linnik.arithmetic import CesaroParams
from linnik.errors import DomainError, ZeroTableError
from linnik.formula import evaluate, threshold_probe
from linnik.specfun import gamma_ratio, log_gamma
from linnik.zeros import (
    ZeroSet,
    bundled_zeros_path,
    compute_zeros,
    load_zeros,
    paired_zero_sum,
    zero_tail,
    zero_tail_bound,
)

THREE_ZEROS = "14.134725141\n21.022039638\n25.010857580\n"


class TestLoadZeros:
    def test_three_line_file(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text(THREE_ZEROS)
        zs = load_zeros(p)
        assert zs.count == 3
        assert zs.zeros == (14.134725141, 21.022039638, 25.010857580)
        rhos = []
        paired_zero_sum(lambda rho: rhos.append(rho) or 0.0, zs, 3)
        assert rhos == [complex(0.5, g) for g in zs.zeros]

    def test_empty_file_is_valid(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        zs = load_zeros(p)
        assert zs.count == 0
        assert paired_zero_sum(lambda r: r, zs, 0) == 0.0

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("# header\n\n14.134725141\n# middle\n21.022039638\n")
        assert load_zeros(p).count == 2

    def test_descending_pair_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("14.134725141\n25.010857580\n21.022039638\n")
        with pytest.raises(ZeroTableError) as exc:
            load_zeros(p)
        assert str(exc.value) == (
            "line 3: ordinates must ascend strictly (21.022039638 after 25.01085758)"
        )

    def test_unparseable_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("14.134725141\nnot-a-number\n")
        with pytest.raises(ZeroTableError) as exc:
            load_zeros(p)
        assert str(exc.value) == (
            "line 2: unparseable number: could not convert string to float: 'not-a-number'"
        )

    def test_first_zero_sanity_window(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("15.5\n21.0\n")
        with pytest.raises(ZeroTableError):
            load_zeros(p)
        for first in ("0.0", "-14.134725141"):
            p.write_text(f"{first}\n21.0\n")
            with pytest.raises(ZeroTableError) as exc:
                load_zeros(p)
            assert str(exc.value) == f"line 1: zero ordinate must be positive, got {float(first)}"

    def test_non_utf8_line_is_named(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"14.134725141\n\xff21.022039638\n")
        with pytest.raises(ZeroTableError) as exc:
            load_zeros(p)
        assert str(exc.value) == "line 2: not UTF-8 text"

    def test_unreadable_path_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_zeros(tmp_path / "missing.txt")
        with pytest.raises(IsADirectoryError):
            load_zeros(tmp_path)

    def test_second_column_names_line(self, tmp_path):
        # every zero is 1/2 + i gamma: a table holds ordinates only
        p = tmp_path / "z.txt"
        p.write_text("# gamma\n14.134725141\n21.022039638 0.5\n")
        with pytest.raises(ZeroTableError) as exc:
            load_zeros(p)
        assert str(exc.value) == "line 3: expected 1 column, got 2"

    def test_bundled_table(self, zeros100):
        assert zeros100.count == 100
        assert 14.0 < zeros100.zeros[0] < 14.3
        # published first three ordinates
        assert zeros100.zeros[0] == pytest.approx(14.134725141734693, abs=1e-9)
        assert zeros100.zeros[1] == pytest.approx(21.022039638771555, abs=1e-9)
        assert zeros100.zeros[2] == pytest.approx(25.010857580145688, abs=1e-9)

    @pytest.mark.parametrize("ordinate", ["nan", "inf", "0.0", "-21.0"])
    def test_ordinate_not_positive_and_finite_names_line(self, tmp_path, ordinate):
        # nan and inf pass the ascending check (every comparison with nan is
        # False, and inf ascends), so only the ordinate check refuses them
        p = tmp_path / "bad.txt"
        p.write_text(f"14.134725141\n{ordinate}\n")
        with pytest.raises(ZeroTableError) as exc:
            load_zeros(p)
        assert str(exc.value) == f"line 2: zero ordinate must be positive, got {float(ordinate)}"


class TestComputeZeros:
    def test_first_ten_match_bundled_bit_for_bit(self, zeros100):
        assert compute_zeros(10).zeros == zeros100.zeros[:10]

    def test_count_below_one(self):
        with pytest.raises(DomainError):
            compute_zeros(0)


def test_bundled_table_checksum():
    """The packaged table is the data every frozen value rests on; a changed
    byte must fail here before it moves a term."""
    digest = hashlib.sha256(bundled_zeros_path().read_bytes()).hexdigest()
    assert digest == "cc67e0404f0046dc0242fdf47cfea2c71e282464dff2ef70872aa31e751612a4"


class TestPairedZeroSum:
    def test_empty_sum(self, zeros100):
        assert paired_zero_sum(lambda r: r, zeros100, 0) == 0.0

    def test_range_error(self, zeros100):
        with pytest.raises(DomainError):
            paired_zero_sum(lambda r: r, zeros100, 101)

    def test_against_naive_two_sided_sum(self, zeros100):
        def f(rho):
            return cmath.exp(log_gamma(rho))

        got = paired_zero_sum(f, zeros100, 50)
        # naive sum over rho and conj(rho); Gamma(conj s) = conj Gamma(s)
        naive = 0.0 + 0.0j
        for g in zeros100.zeros[:50]:
            v = f(complex(0.5, g))
            naive += v + v.conjugate()
        assert abs(naive.imag) <= 1e-15 * abs(naive.real)
        assert got == pytest.approx(naive.real, rel=1e-13)

    def test_two_sided_real_part_vanishes_for_i_times_symmetric(self, zeros100):
        # f = i g with g conjugate-symmetric: the two-sided pair sum
        # f(rho) + f(conj rho) = i (g(rho) + conj g(rho)) is purely imaginary
        def g(rho):
            return gamma_ratio(rho, 2.0)

        for gamma in zeros100.zeros[:10]:
            v = 1j * g(complex(0.5, gamma))
            w = 1j * g(complex(0.5, gamma)).conjugate()
            assert abs((v + w).real) <= 1e-18


class TestZeroTailBound:
    def test_ratio_model_dominates_true_ratio(self, zeros100):
        # per-term model RATIO_SLACK * gamma^-power must cover the true ratio
        for g in zeros100.zeros:
            for power in (2.5, 3.0, 4.0, 4.5):
                true = abs(gamma_ratio(complex(0.5, g), power))
                assert true <= 1.25 * g ** (-power)

    def test_monotone_decreasing_in_Z(self, zeros100):
        bounds = [zero_tail_bound(1000, 4.0, Z, zeros100) for Z in range(0, 100, 10)]
        assert all(b >= a for a, b in zip(bounds[1:], bounds))

    def test_contains_actual_tail(self, zeros100):
        # |sum_{j in [Z, 100)} paired terms| <= bound(Z) for an m2-style weight
        N, k = 1000.0, 2.0
        power = k + 2.0
        lnN = math.log(N)

        def f(rho):
            return gamma_ratio(rho, power) * cmath.exp((power - 1.0 + rho) * lnN)

        full = paired_zero_sum(f, zeros100, 100)
        for Z in (30, 50, 80):
            part = paired_zero_sum(f, zeros100, Z)
            assert abs(full - part) <= zero_tail_bound(N, power, Z, zeros100)

    def test_infinite_for_tiny_power(self, zeros100):
        assert zero_tail_bound(100, 1.05, 10, zeros100) == math.inf


@pytest.mark.parametrize("Z", [-1, 101])
@pytest.mark.parametrize("refuse", [
    lambda zs, Z: threshold_probe(2, 1.75, 100, zs, Z),
    lambda zs, Z: paired_zero_sum(lambda rho: 0.0, zs, Z),
    lambda zs, Z: zero_tail(zs, Z, 1.0, 0.0, 100.0, 3.5),
    # a TruncationSpec refuses Z < 0 itself, so a plain namespace stands in
    lambda zs, Z: evaluate(CesaroParams(N=300, k=2.0), zs,
                           SimpleNamespace(Z=Z, L=3, M=2, tol=1.0)),
], ids=["threshold_probe", "paired_zero_sum", "zero_tail", "evaluate"])
def test_a_Z_outside_the_table_is_refused_with_one_message(zeros100, refuse, Z):
    with pytest.raises(DomainError) as exc:
        refuse(zeros100, Z)
    assert str(exc.value) == f"Z = {Z} out of range for table of 100 zeros"


@pytest.mark.parametrize("refuse", [
    lambda zs, Z: threshold_probe(2, 1.75, 100, zs, Z),
    lambda zs, Z: paired_zero_sum(lambda rho: 0.0, zs, Z),
    lambda zs, Z: zero_tail(zs, Z, 1.0, 0.0, 100.0, 3.5),
    # a TruncationSpec refuses a non-integer Z itself, so a plain namespace stands in
    lambda zs, Z: evaluate(CesaroParams(N=300, k=2.0), zs,
                           SimpleNamespace(Z=Z, L=3, M=2, tol=1.0)),
], ids=["threshold_probe", "paired_zero_sum", "zero_tail", "evaluate"])
def test_a_non_integer_Z_is_refused_with_one_message(zeros100, refuse):
    with pytest.raises(DomainError) as exc:
        refuse(zeros100, 2.5)
    assert str(exc.value) == "Z must be an integer, got 2.5"


def test_import_loads_no_network_modules():
    """No package module imports urllib, http.client or ssl: importing the
    package in a fresh process loads none of them, and this keeps it so."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = (
        "import sys, linnik\n"
        "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
