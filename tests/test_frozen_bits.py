"""Bit-identity gate: M1-M4, every component and every tail bound, and the
Bessel values of the series strategy and of the auto path (the series or the
fixed-point Hankel kernel), against the float.hex values in frozen_values.py.

A refactor that claims to keep the main terms bit-identical must pass this
unchanged; a change that moves a value updates the entry it moves and
records old -> new in CHANGES.md.
"""

from collections import Counter

import pytest

from linnik.arithmetic import CesaroParams
from linnik.formula import TruncationSpec, m1_term, m2_term, m3_term, m4_term
from linnik.specfun import _bessel_series, bessel_j_detailed

from conftest import ACCEPTANCE_GRID, ACCEPTANCE_K
from frozen_values import FROZEN_CUTOFF_TERMS, FROZEN_GRID_TERMS, FROZEN_SERIES


def term_hex(params, zs, spec) -> dict:
    """{"m1", "<term>", "<term>.<component>", "<term>.tail.<key>"} -> float.hex."""
    out = {"m1": m1_term(params).hex()}
    for name, term in (("m2", m2_term), ("m3", m3_term), ("m4", m4_term)):
        t = term(params, zs, spec)
        out[name] = t.value.hex()
        out.update((f"{name}.{c}", v.hex()) for c, v in t.components.items())
        out.update((f"{name}.tail.{c}", v.hex()) for c, v in t.tail_bounds.items())
    return out


@pytest.mark.parametrize("N", ACCEPTANCE_GRID)
def test_grid_terms(grid_runs, zeros100, N):
    # the Bessel values are memoized by the grid_runs evaluation, so the
    # terms are recomputed here at little cost
    spec, report = grid_runs[N]
    got = term_hex(CesaroParams(N=N, k=ACCEPTANCE_K), zeros100, spec)
    assert [getattr(report, m).hex() for m in ("m1", "m2", "m3", "m4")] == [
        got[m] for m in ("m1", "m2", "m3", "m4")
    ]
    got["lhs"] = report.lhs.hex()
    got["spec"] = (spec.Z, spec.L, spec.M, spec.tol.hex())
    assert got == FROZEN_GRID_TERMS[N]


@pytest.mark.parametrize("cutoffs", sorted(FROZEN_CUTOFF_TERMS))
def test_cutoff_terms(zeros100, cutoffs):
    N, Z, L, M, k = cutoffs
    spec = TruncationSpec(Z=Z, L=L, M=M, tol=1.0)
    assert term_hex(CesaroParams(N=N, k=k), zeros100, spec) == FROZEN_CUTOFF_TERMS[cutoffs]


@pytest.mark.parametrize("nu, u, re, im", FROZEN_SERIES)
def test_series_points(nu, u, re, im):
    d = _bessel_series(complex(nu), u)
    assert d.strategy == "series"
    assert (d.value.real.hex(), d.value.imag.hex()) == (re, im)
    # the auto path gives the same bits through either of its paths
    a = bessel_j_detailed(nu, u)
    assert (a.value.real.hex(), a.value.imag.hex()) == (re, im)


def test_auto_sends_points_past_the_crossover_to_the_hankel_kernel():
    # 20 points have u >= max(300, 1.5 |nu|); five stay on the series
    routed = [(u, bessel_j_detailed(nu, u).strategy) for nu, u, _, _ in FROZEN_SERIES]
    assert Counter(strategy for _, strategy in routed) == {"hankel": 20, "series": 5}
    assert (12000.0, "hankel") in routed
