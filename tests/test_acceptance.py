"""Acceptance suite: each exit criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with -s to see them on success).

Criterion 8 checks the convergence threshold k > d - 1/2 through the decay
rate of the probe's terms against their closed form, rather than through a
plateau of the partial sums: fifty zeros give partial[50]/partial[25] of 1.40
at k = 1.75 against 1.48 at the divergent boundary k = 3/2, too close to
separate the two sides.
"""

import cmath
import functools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from linnik import cli, formula
from linnik.arithmetic import (
    CesaroParams,
    cesaro_lhs,
    compute_rq,
    omega2,
    s_tilde,
    sieve_von_mangoldt,
)
from linnik.formula import (
    TruncationSpec,
    default_truncation,
    fit_loglog_slope,
    m1_term,
    m2_term,
    m3_term,
    m4_term,
    threshold_probe,
)
from linnik.specfun import bessel_j, log_gamma
from linnik.zeros import load_zeros, zero_tail_bound

from conftest import ACCEPTANCE_GRID
from frozen_values import FROZEN_SONINE
from laplace_oracle import laplace_line_integral
from lattice_oracle import paired_blocks, unpaired_blocks
from test_arithmetic import brute_rq_counts, counts_to_value
from zero_oracle import all_zero_sum, paired_all_zero_rows

EPS = 2.220446049250313e-16
SRC = Path(__file__).resolve().parent.parent / "src"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_c01_explicit_formula_scaling(grid_runs):
    ns = list(ACCEPTANCE_GRID)
    residuals = [grid_runs[N][1].residual for N in ns]
    slope = fit_loglog_slope(ns, residuals)
    nres = [abs(grid_runs[N][1].normalized_residual) for N in ns]
    spread = max(nres) / min(nres)
    ok = slope <= 3.2 and spread < 10.0
    _report(1, "explicit-formula scaling", ok,
            f"slope={slope:.4f} (<=3.2), normalized-residual spread={spread:.3f} (<10)")
    assert ok


def test_c02_relative_convergence(grid_runs):
    ratios = []
    ok = True
    for N in ACCEPTANCE_GRID:
        rep = grid_runs[N][1]
        r = abs(rep.lhs / rep.m1 - 1.0)
        ratios.append(r)
        ok &= r <= 5.0 * N ** -0.25
    ok &= all(b < a for a, b in zip(ratios, ratios[1:]))
    _report(2, "relative convergence", ok,
            "|lhs/m1-1|=" + ", ".join(f"{r:.3e}" for r in ratios) + " (decreasing)")
    assert ok


def test_c03_zero_term_effectiveness(grid_runs):
    ns = list(ACCEPTANCE_GRID)
    r1 = [grid_runs[N][1].lhs - grid_runs[N][1].m1 for N in ns]
    r2 = [r1[i] - grid_runs[ns[i]][1].m2 for i in range(len(ns))]
    rms1 = math.sqrt(sum(x * x for x in r1) / len(r1))
    rms2 = math.sqrt(sum(x * x for x in r2) / len(r2))
    lhs_rms = math.sqrt(sum(grid_runs[N][1].lhs ** 2 for N in ns) / len(ns))
    floor = 64.0 * EPS * lhs_rms
    ok = rms2 <= rms1 + floor
    ratios = [
        max(abs(grid_runs[N][1].m3), abs(grid_runs[N][1].m4)) / N ** 2.1 for N in ns
    ]
    C = max(ratios)
    ok &= all(
        max(abs(grid_runs[N][1].m3), abs(grid_runs[N][1].m4))
        <= C * N ** 2.1 * (1.0 + 1e-12)
        for N in ns
    )
    _report(3, "zero-term effectiveness", ok,
            f"RMS(lhs-m1)={rms1:.6e} -> RMS(lhs-m1-m2)={rms2:.6e}; "
            f"fitted C={C:.4f} for |m3|,|m4| <= C N^(k/2+1.1)")
    assert ok


def test_c04_brute_force_oracle_equivalence(lam500, rq500):
    counts = brute_rq_counts(500)
    zeros_ok = True
    worst_rq = 0.0
    for n in range(501):
        want = counts_to_value(counts[n])
        zeros_ok &= (rq500.values[n] == 0.0) == (want == 0.0)
        if want:
            worst_rq = max(worst_rq, abs(rq500.values[n] - want) / want)
    pp = {n: float(lam500[n]) for n in np.flatnonzero(lam500).tolist()}
    worst = 0.0
    for N in (100, 250, 500):
        for k in (2.0, 2.5):
            terms = []
            for m1, w in pp.items():
                l1 = 1
                while m1 + l1 * l1 + 1 <= N:
                    l2 = 1
                    while m1 + l1 * l1 + l2 * l2 <= N:
                        terms.append(w * float(N - m1 - l1 * l1 - l2 * l2) ** k)
                        l2 += 1
                    l1 += 1
            oracle = math.fsum(terms) / math.gamma(k + 1.0)
            got = cesaro_lhs(rq500, CesaroParams(N=N, k=k))
            worst = max(worst, abs(got - oracle) / oracle)
    ok = zeros_ok and worst_rq <= 5e-14 and worst <= 1e-12
    _report(4, "brute-force oracle equivalence", ok,
            f"r_Q table vs triple loop for n<=500: zero pattern matches {zeros_ok}, "
            f"worst {worst_rq:.2e} (<=5e-14); "
            f"worst lhs deviation {worst:.2e} (<=1e-12)")
    assert ok


def test_c05_special_function_accuracy():
    worst_b = 0.0
    for nu, u, ref in FROZEN_SONINE:
        worst_b = max(worst_b, abs(bessel_j(nu, u) - ref) / abs(ref))
    worst_r = 0.0
    for nu in (1.0, 2.5, 2.0 + 7.0j):
        for u in (1.0, 10.0, 100.0):
            a, b, c = bessel_j(nu - 1, u), bessel_j(nu + 1, u), bessel_j(nu, u)
            worst_r = max(
                worst_r,
                abs(a + b - (2.0 * nu / u) * c) / max(abs(a), abs(b), abs(c)),
            )
    worst_l = 0.0
    for sr in (2.0, 3.0, 4.0):
        for si in (-1.0, 0.0, 1.0):
            s = complex(sr, si)
            ref = cmath.exp((s - 1.0) * math.log(30.0) - log_gamma(s))
            worst_l = max(worst_l, abs(laplace_line_integral(s, 30.0) - ref) / abs(ref))
    ok = worst_b <= 1e-10 and worst_r <= 1e-9 and worst_l <= 1e-8
    _report(5, "special-function accuracy", ok,
            f"bessel vs oracle {worst_b:.2e} (<=1e-10); recurrence {worst_r:.2e} "
            f"(<=1e-9); laplace {worst_l:.2e} (<=1e-8)")
    assert ok


def test_c06_modularity_suite():
    worst_t = 0.0
    for a in (0.01, 0.1, 1.0):
        for y in (-2.0, 0.0, 3.0):
            z = complex(a, y)
            lhs = 1.0 + 2.0 * omega2(z).value
            rhs = cmath.sqrt(math.pi / z) * (1.0 + 2.0 * omega2(math.pi**2 / z).value)
            worst_t = max(worst_t, abs(lhs - rhs) / abs(lhs))
    theta_ok = worst_t <= 1e-12

    a = 1.0 / 50.0
    C = 5000
    lam = sieve_von_mangoldt(C)
    rq = compute_rq(lam, C)
    gen_ok = True
    details = []
    for y in (0.0, 1.0):
        z = complex(a, y)
        series = complex(
            math.fsum(rq.values[n] * cmath.exp(-n * z).real for n in range(1, C + 1)),
            math.fsum(rq.values[n] * cmath.exp(-n * z).imag for n in range(1, C + 1)),
        )
        st = s_tilde(z, C, lam)
        w = omega2(z)
        prod = st.value * w.value * w.value
        resid = abs(series - prod)
        # combined tails: r_Q side (r_Q(n) <= (pi/4) n log n <= n^2),
        # product side via |S - S_hat| |w|^2 + |S_hat| (2|w| + dw) dw,
        # plus the double-rounding floor of both accumulations
        w_a = omega2(complex(a, 0.0)).value.real
        s_a = s_tilde(complex(a, 0.0), C, lam).value.real
        tail_rq = 1.1 * math.exp(-a * C) * (C**2 / a + 2 * C / a**2 + 2 / a**3)
        bound = (
            tail_rq
            + st.tail_bound * w_a * w_a
            + (abs(st.value) + st.tail_bound) * (2.0 * w_a + w.tail_bound) * w.tail_bound
            + 64.0 * EPS * s_a * w_a * w_a
        )
        gen_ok &= resid <= bound
        details.append(f"y={y}: |resid|={resid:.2e} <= bound={bound:.2e}")
    ok = theta_ok and gen_ok
    _report(6, "modularity suite", ok,
            f"theta functional equation {worst_t:.2e} (<=1e-12); " + "; ".join(details))
    assert ok


def test_c07_s_tilde_explicit_formula(zeros100):
    a = 1.0 / 100.0
    cutoff = 10**5
    lam = sieve_von_mangoldt(cutoff)
    consts = []
    for y in (0.0, 0.05):
        z = complex(a, y)
        st = s_tilde(z, cutoff, lam).value
        zsum = 0.0 + 0.0j
        for gamma in zeros100.zeros[:50]:
            rho = complex(0.5, gamma)
            g = cmath.exp(log_gamma(rho)) * cmath.exp(-rho * cmath.log(z))
            gc = cmath.exp(log_gamma(rho)).conjugate() * cmath.exp(
                -rho.conjugate() * cmath.log(z)
            )
            zsum += g + gc
        resid = abs(st - (1.0 / z - zsum))
        shape = math.sqrt(abs(z))
        if abs(y) > a:
            shape *= 1.0 + math.log(abs(y) / a) ** 2
        consts.append(resid / shape)
    c_fit = math.sqrt(consts[0] * consts[1])
    ok = all(c <= 3.0 * c_fit and c_fit <= 3.0 * c for c in consts)
    _report(7, "S-tilde explicit-formula check", ok,
            f"per-point constants {consts[0]:.3f}, {consts[1]:.3f}; fitted {c_fit:.3f} "
            "(each within 3x of fit)")
    assert ok


def _probe_closed_form_d2(gamma: float, k: float, N: int) -> float:
    """Per-zero probe term at d = 2, beta = 1/2, up to O(e^{-pi^2 gamma^2/(N v^2)})."""
    return gamma ** (-k - 1.5) * (
        math.pi * gamma**2 * math.gamma(k - 0.5) / (4.0 * N)
        - math.sqrt(math.pi) * gamma * math.gamma(k + 0.5) / (2.0 * math.sqrt(N))
        + math.gamma(k + 1.5) / 4.0
    )


def test_c08_threshold_probe(zeros100):
    # on zeros 25-50 at N = 100, d = 2 (threshold k = 3/2):
    # (a) each term matches the closed form to 1e-5 relative;
    # (b) the log-log slope of the terms against gamma is < -1 (convergent
    #     against the zero density) at k = 1.75 and > -1 at k = 1.5 and 1.0;
    # (c) the divergent series still grows: partial[50]/partial[25] > 1.5 at k = 1.0
    N = 100
    gammas = zeros100.zeros[24:50]
    devs, slopes, partials = {}, {}, {}
    for k in (1.75, 1.5, 1.0):
        ps = threshold_probe(2, k, N, zeros100, 50)
        terms = [b - a for a, b in zip(ps[23:49], ps[24:50])]
        devs[k] = max(
            abs(t / _probe_closed_form_d2(g, k, N) - 1.0) for t, g in zip(terms, gammas)
        )
        slopes[k] = fit_loglog_slope(gammas, terms)
        partials[k] = ps
    r_div = partials[1.0][49] / partials[1.0][24]
    ok_a = all(dev <= 1e-5 for dev in devs.values())
    ok_b = slopes[1.75] < -1.0 and slopes[1.5] > -1.0 and slopes[1.0] > -1.0
    ok_c = r_div > 1.5
    ok = ok_a and ok_b and ok_c
    _report(8, "threshold probe", ok,
            "(a) closed-form dev " + ", ".join(f"k={k}: {v:.1e}" for k, v in devs.items())
            + f" (<=1e-5): {ok_a}; (b) slope k=1.75: {slopes[1.75]:.3f} (<-1), "
            f"k=1.5: {slopes[1.5]:.3f} (>-1), k=1.0: {slopes[1.0]:.3f} (>-1): {ok_b}; "
            f"(c) ratio(k=1.0)={r_div:.4f} (>1.5): {ok_c}")
    assert ok


def test_c09_truncation_containment(grid_runs, doubled_runs):
    ok = True
    worst = 0.0
    for N in ACCEPTANCE_GRID:
        _spec, base = grid_runs[N]
        by = doubled_runs[N]
        checks = [
            ("Z", "m2", abs(by["Z"].m2 - base.m2)),
            ("Z", "m3", abs(by["Z"].m3 - base.m3)),
            ("Z", "m4", abs(by["Z"].m4 - base.m4)),
            ("L", "m3", abs(by["L"].m3 - base.m3)),
            ("M", "m4", abs(by["M"].m4 - base.m4)),
        ]
        for which, term, delta in checks:
            bound = base.tail_bounds[term]
            ok &= delta <= bound
            if bound > 0:
                worst = max(worst, delta / bound)
    _report(9, "truncation containment", ok,
            f"worst |change|/bound = {worst:.3e} over doubled Z/L/M at every grid N")
    assert ok


def _evaluate_in_subprocess(hash_seed: str, out) -> bytes:
    """stdout and output file of `linnik evaluate` in a fresh interpreter
    under one PYTHONHASHSEED."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "linnik.cli", "evaluate", "--N", "700", "--k", "2.2",
            "--Z", "20", "--L", "9", "--M", "20", "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=300, check=True)
    return proc.stdout + out.read_bytes()


def test_c10_determinism(tmp_path, grid_runs):
    out1, out2 = (tmp_path / f"r{i}.csv" for i in range(2))
    argv = ["evaluate", "--N", "500", "--k", "2", "--zeros", "bundled", "--out"]
    assert cli.main(argv + [str(out1)]) == 0
    assert cli.main(argv + [str(out2)]) == 0
    same_rerun = out1.read_bytes() == out2.read_bytes()
    # set and dict order of str keys moves with the hash seed; the bytes must not
    same_hash_seed = (_evaluate_in_subprocess("0", tmp_path / "h0.csv")
                      == _evaluate_in_subprocess("12345", tmp_path / "h12345.csv"))

    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    probe_argv = ["probe", "--d", "2", "--k", "1.75", "--N", "100", "--Z", "10"]
    assert cli.main(probe_argv + ["--out", str(p1)]) == 0
    assert cli.main(probe_argv + ["--out", str(p2)]) == 0
    same_probe = p1.read_bytes() == p2.read_bytes()

    ok = same_rerun and same_hash_seed and same_probe
    _report(10, "determinism", ok,
            f"rerun identical: {same_rerun}; hash-seed independent: {same_hash_seed}; "
            f"probe identical: {same_probe}")
    assert ok


# P^2 = (pi/z)/4 - sqrt(pi/z)/2 + 1/4, as (coefficient, power e of pi/z) by
# m2's component: with S's piece -Gamma(rho) z^{-rho}, a component is the
# paired zero sum of Gamma(rho)/Gamma(rho+s) N^{s-1+rho} with s = k + 1 + e,
# and m2 is minus the sum of coefficient pi^e component
P_SQUARED = {"block1": (0.25, 1.0), "block2": (0.25, 0.0), "block3": (-0.5, 0.5)}

_all_zero_sum = functools.cache(all_zero_sum)


def _m2_rows(zs, N: int, k: float, Z: int) -> list:
    """(N, k, Z, component, exact, value, tail) for each m2 component: summed
    over every zero (zero_oracle, no zero used), over the first Z zeros
    (m2_term), and its reported zero tail bound."""
    t = m2_term(CesaroParams(N=N, k=k), zs, TruncationSpec(Z=Z, L=3, M=3, tol=1.0))
    return [(N, k, Z, name, _all_zero_sum(N, k + 1.0 + e), t.components.get(name, math.nan),
             zero_tail_bound(N, k + 1.0 + e, Z, zs))
            for name, (_, e) in P_SQUARED.items()]


def _m2_value_row(zs, N: int, k: float, Z: int) -> list:
    """(N, k, Z, "m2", exact, value, tail) for m2's value, assembled from
    P_SQUARED and the all-zeros sums, within the components' summed tails."""
    value = m2_term(CesaroParams(N=N, k=k), zs, TruncationSpec(Z=Z, L=3, M=3, tol=1.0)).value
    parts = [(c * math.pi**e, _all_zero_sum(N, k + 1.0 + e), zero_tail_bound(N, k + 1.0 + e, Z, zs))
             for c, e in P_SQUARED.values()]
    return [(N, k, Z, "m2", -math.fsum(w * exact for w, exact, _ in parts), value,
             math.fsum(abs(w) * tail for w, _, tail in parts))]


@pytest.fixture(scope="module")
def m2_oracle_rows(zeros100):
    return [row for N in (500, 2000, 10**4, 10**5, 10**6) for k in (2.0, 2.5)
            for Z in (50, 100) for row in _m2_rows(zeros100, N, k, Z)]


def test_c11_m2_zero_truncation(m2_oracle_rows):
    ok = all(abs(exact - value) <= tail for *_, exact, value, tail in m2_oracle_rows)
    ratios = [tail / abs(exact - value) for *_, exact, value, tail in m2_oracle_rows
              if exact != value]
    _report(11, "m2 zero truncation", ok,
            f"tail/|exact - value| = {min(ratios):.1f}..{max(ratios):.1f} (>=1) over "
            f"{len(m2_oracle_rows)} components, N = 500..10^6, k = 2, 2.5, Z = 50, 100")
    assert ok


@pytest.mark.parametrize("scale", [0.0, -1.0], ids=["dropped", "flipped"])
def test_c11_fails_when_m2_is_dropped_or_flipped(m2_oracle_rows, scale):
    # the smallest |exact|/tail over the grid is 1.89 (block2, N = 500, k = 2, Z = 50)
    missed = [row[:4] for row in m2_oracle_rows
              if abs(row[4] - scale * row[5]) <= row[6]]
    assert missed == []


# Criterion 12: M3's and M4's rows against Hardy's exact sums (lattice_oracle)

C12_GRID = tuple((N, k) for N in ACCEPTANCE_GRID for k in (1.7, 2.0, 2.5))
PAIRED_Z = 3
# each unpaired component exceeds twice its cut tail on one of these rows
MUTATION_GRID = ((1000, 1.7), (1000, 2.5), (2000, 1.7), (2000, 2.5))

_unpaired_blocks = functools.cache(unpaired_blocks)
_paired_blocks = functools.cache(paired_blocks)


def _outside(rows, scale: float = 1.0) -> list:
    """The labels of the rows (..., exact, value, tail) whose value, times
    scale, lies farther than tail from exact; a missing value (nan) does."""
    return [row[:-3] for row in rows if not abs(row[-3] - scale * row[-2]) <= row[-1]]


def _c12_rows(zs, N: int, k: float, spec) -> list:
    """(N, k, component, exact, value, tail) for each unpaired M3/M4 component
    at Z = 0 and spec's cutoffs, against its Hardy sum, within the unpaired
    cut tail of its index set (the rule default_truncation uses)."""
    params, at0 = CesaroParams(N=N, k=k), replace(spec, Z=0)
    exact = _unpaired_blocks(N, k)
    rows = []
    for term, j, cutoff, names in ((m3_term, 2, spec.L, ("lattice",)),
                                   (m4_term, 1, spec.M, ("block1", "block2"))):
        t, tail = term(params, zs, at0), formula._cut_tail(j, cutoff, N, k)
        rows += [(N, k, name, exact[name], t.components.get(name, math.nan), tail)
                 for name in names]
    return rows


def _identity_row(zs, N: int, k: float, spec) -> list:
    """(N, k, "m1+m3+m4", exact, value, tail): the terms' values at Z = 0
    (M3 = lattice, M4 = block1 - block2) against IL_{k+2}[omega^2], within
    the two unpaired cut tails."""
    params, at0 = CesaroParams(N=N, k=k), replace(spec, Z=0)
    value = m1_term(params) + m3_term(params, zs, at0).value + m4_term(params, zs, at0).value
    tail = formula._cut_tail(2, spec.L, N, k) + formula._cut_tail(1, spec.M, N, k)
    return [(N, k, "m1+m3+m4", _unpaired_blocks(N, k)["omega2"], value, tail)]


def _paired_rows(zs, N: int, k: float, spec, Z: int = PAIRED_Z, components=()) -> list:
    """(N, k, term, exact, value, tail) for the paired part of m3 and m4 over
    the first Z zeros, taken as value(Z) - value(0) so that each cell's
    sign counts, against the Hardy sums with M3 = lattice - zeros and
    M4 = block1 - block2 - block3 + block4, within the term's reported cut tail.
    Then (N, k, name, exact, value, tail) for each paired component named in
    components, against its Hardy sum, within the same tail."""
    params = CesaroParams(N=N, k=k)
    at_z, at0 = replace(spec, Z=Z), replace(spec, Z=0)
    exact = _paired_blocks(N, k, zs.zeros[:Z])
    rows = []
    for term, key, want in ((m3_term, "lattice", -exact["zeros"]),
                            (m4_term, "msum", exact["block4"] - exact["block3"])):
        t = term(params, zs, at_z)
        rows.append((N, k, key, want, t.value - term(params, zs, at0).value, t.tail_bounds[key]))
        rows += [(N, k, name, exact[name], t.components[name], t.tail_bounds[key])
                 for name in components if name in t.components]
    return rows


@pytest.fixture(scope="module")
def c12_specs(zeros100):
    return {(N, k): default_truncation(CesaroParams(N=N, k=k), zeros100) for N, k in C12_GRID}


@pytest.fixture(scope="module")
def c12_rows(zeros100, c12_specs):
    return [row for (N, k), spec in c12_specs.items() for row in _c12_rows(zeros100, N, k, spec)]


def _ratios(rows) -> str:
    r = [tail / abs(exact - value) for *_, exact, value, tail in rows if exact != value]
    return f"{min(r):.1f}..{max(r):.1f}"


def test_c12_m3_m4_unpaired_rows(zeros100, c12_specs, c12_rows):
    identity = [row for (N, k), spec in c12_specs.items()
                for row in _identity_row(zeros100, N, k, spec)]
    ok = not _outside(c12_rows) and not _outside(identity)
    _report(12, "m3/m4 unpaired rows", ok,
            f"tail/|exact - value| = {_ratios(c12_rows)} over {len(c12_rows)} components, "
            f"{_ratios(identity)} for m1 + m3 + m4 at Z = 0; N = 500..4000, k = 1.7, 2, 2.5")
    assert ok


@pytest.mark.parametrize("scale", [0.0, -1.0], ids=["dropped", "flipped"])
def test_c12_fails_when_an_unpaired_component_is_dropped_or_flipped(c12_rows, scale):
    # a component whose |exact| is below its cut tail passes dropped: lattice
    # at N = 4000, k = 2 and 2.5, block1 at N = 500, k = 2, block2 at
    # N = 500, k = 2.5 and N = 4000, k = 2
    assert {name for _, _, name in _outside(c12_rows, scale)} == {"lattice", "block1", "block2"}


def test_c12_m3_m4_paired_rows(zeros100, c12_specs):
    rows = [row for N in (500, 2000) for row in _paired_rows(zeros100, N, 2.0, c12_specs[N, 2.0])]
    ok = not _outside(rows)
    _report(12, "m3/m4 paired rows", ok,
            f"tail/|exact - value| = {_ratios(rows)} over m3 and m4 at Z = {PAIRED_Z}, "
            "N = 500, 2000, k = 2")
    assert ok


# Criterion 14: each paired M3/M4 component at production Z against the Hardy
# sums over the same zeros, so that only the point cut lies between them

C14_GRID = tuple((N, k) for N in (500, 2000) for k in (2.0, 2.5))
C14_Z = 50
C14_PAIRED = ("zeros", "block3", "block4")


@pytest.fixture(scope="module")
def c14_rows(zeros100):
    """_paired_rows at Z = C14_Z, L = M = 64: m3's and m4's paired parts and
    their paired components over the same zeros as the Hardy sums."""
    spec = TruncationSpec(Z=C14_Z, L=64, M=64, tol=1.0)
    return [row for N, k in C14_GRID
            for row in _paired_rows(zeros100, N, k, spec, C14_Z, C14_PAIRED)]


def test_c14_m3_m4_paired_components_at_production_Z(c14_rows):
    ok = not _outside(c14_rows)
    _report(14, "m3/m4 paired components at Z = 50", ok,
            f"tail/|exact - value| = {_ratios(c14_rows)} over {len(c14_rows)} rows, "
            "L = M = 64, N = 500, 2000, k = 2, 2.5")
    assert ok


@pytest.mark.parametrize("scale", [0.0, -1.0], ids=["dropped", "flipped"])
def test_c14_fails_when_a_paired_component_is_dropped_or_flipped(c14_rows, scale):
    # m3's zeros lies inside m3's cut tail at N = 2000, k = 2 (|zeros| is
    # 0.31 of it), so a dropped or flipped zeros passes there
    missed = {name: [] for name in C14_PAIRED}
    for row in c14_rows:
        if row[2] in missed and not _outside([row], scale):
            missed[row[2]].append(row[:2])
    assert missed == {"zeros": [(2000, 2.0)], "block3": [], "block4": []}


def _failed_checks(zs, specs) -> dict:
    """{check: labels of the rows it fails} over MUTATION_GRID, for the checks
    that compare M1-M4 with an exact sum. A check whose terms raise fails."""
    checks = {
        "c12": _c12_rows,
        "identity": _identity_row,
        "paired": _paired_rows,
        "c11": lambda zs, N, k, spec: _m2_rows(zs, N, k, 50),
        "m2 value": lambda zs, N, k, spec: _m2_value_row(zs, N, k, 50),
    }
    failed = {}
    for name, rows_of in checks.items():
        try:
            missed = [m for N, k in MUTATION_GRID for m in _outside(rows_of(zs, N, k, specs[N, k]))]
        except Exception as exc:  # a mutated table may break a term outright
            missed = [type(exc).__name__]
        if missed:
            failed[name] = missed
    return failed


def test_the_mutation_checks_pass_on_the_table(zeros100, c12_specs):
    assert _failed_checks(zeros100, c12_specs) == {}


_PIECE_MUTATIONS = {
    "flip": lambda sign, x, *rest: (-sign, x, *rest),
    "+1/2": lambda sign, x, *rest: (sign, x + 0.5, *rest),
    "-1/2": lambda sign, x, *rest: (sign, x - 0.5, *rest),
    "drop": None,
}
_PIECES = [("_OMEGA2", j, i) for j, pieces in enumerate(formula._OMEGA2)
           for i in range(len(pieces))] + [("_S", None, i) for i in range(len(formula._S))]


def _mutated(pieces: tuple, i: int, mutation: str) -> tuple:
    """pieces with piece i changed by _PIECE_MUTATIONS[mutation], or dropped."""
    change = _PIECE_MUTATIONS[mutation]
    return pieces[:i] + (() if change is None else (change(*pieces[i]),)) + pieces[i + 1:]


@pytest.mark.parametrize("mutation", sorted(_PIECE_MUTATIONS))
@pytest.mark.parametrize(
    "table, j, i", _PIECES,
    ids=[f"{t}[{i}]" if j is None else f"{t}[{j}][{i}]" for t, j, i in _PIECES],
)
def test_a_mutated_cell_piece_fails_a_check(zeros100, c12_specs, monkeypatch,
                                            table, j, i, mutation):
    # flip r or an S sign; move e (an omega^2 piece's power of pi/z) or a (an
    # S piece's power of 1/z) by 1/2; or drop the piece
    if j is None:
        patched = _mutated(formula._S, i, mutation)
    else:
        omega2 = formula._OMEGA2
        patched = omega2[:j] + (_mutated(omega2[j], i, mutation),) + omega2[j + 1:]
    monkeypatch.setattr(formula, table, patched)
    assert _failed_checks(zeros100, c12_specs)


# Criterion 13: M3's and M4's paired rows summed over every zero (zero_oracle)

# N = 10^5 passes too (tail/error 2.0e3-6.4e3) but its oracle takes 5.8 s
C13_GRID = tuple((N, k) for N in (500, 2000, 10**4) for k in (2.0, 2.5))
C13_Z = (50, 100)
# M3 = lattice - zeros and M4 = block1 - block2 - block3 + block4
C13_SIGNS = {"m3": {"lattice": 1, "zeros": -1},
             "m4": {"block1": 1, "block2": -1, "block3": -1, "block4": 1}}

_paired_all_zero_rows = functools.cache(paired_all_zero_rows)


@pytest.fixture(scope="module")
def c13_terms(zeros100):
    """{(N, k, Z): {"m3": TermValue, "m4": TermValue}} at the default L, M."""
    terms = {}
    for N, k in C13_GRID:
        params = CesaroParams(N=N, k=k)
        spec = default_truncation(params, zeros100)
        for Z in C13_Z:
            at_z = replace(spec, Z=Z)
            terms[N, k, Z] = {"m3": m3_term(params, zeros100, at_z),
                              "m4": m4_term(params, zeros100, at_z)}
    return terms


def _c13_rows(terms, component=None, scale: float = 1.0) -> list:
    """(N, k, Z, term, exact, value, tail) for m3 and m4: the Hardy rows, the
    unpaired over every point and the paired over every point and zero, with
    the term's signs, against the term's value within its reported cut and
    zero tails. The paired component named by component, if any, enters the
    value times scale."""
    rows = []
    for (N, k, Z), by_term in terms.items():
        exact = {**_unpaired_blocks(N, k), **_paired_all_zero_rows(N, k)}
        for term, t in by_term.items():
            signs = C13_SIGNS[term]
            value = t.value
            if component in signs:
                value += (scale - 1.0) * signs[component] * t.components[component]
            want = math.fsum(sign * exact[name] for name, sign in signs.items())
            rows.append((N, k, Z, term, want, value, sum(t.tail_bounds.values())))
    return rows


def test_c13_m3_m4_paired_rows_over_every_zero(c13_terms):
    rows = _c13_rows(c13_terms)
    ok = not _outside(rows)
    _report(13, "m3/m4 paired rows over every zero", ok,
            f"tail/|exact - value| = {_ratios(rows)} over m3 and m4, N = 500..10^4, "
            f"k = 2, 2.5, Z = {', '.join(map(str, C13_Z))}")
    assert ok


@pytest.mark.parametrize("scale", [0.0, -1.0], ids=["dropped", "flipped"])
@pytest.mark.parametrize("component", ["zeros", "block3", "block4"])
def test_c13_cannot_see_a_dropped_or_flipped_paired_component(c13_terms, component, scale):
    # The zero tails past Z dominate each term's tail: on its closest row, a
    # paired component leaves it only when it moves by 495 (m3 zeros), 661
    # (block3) or 1670 (block4) times itself. Until those tails tighten
    # (ROADMAP items 3 + 4 and 6), c13 catches only errors of that size.
    assert _outside(_c13_rows(c13_terms, component, scale)) == []
