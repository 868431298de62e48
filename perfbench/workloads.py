"""Workload inputs, the program calls each workload makes, and the checks on
its outputs.

Every workload uses k = 2 and the bundled zero table. The seed varies only the
N values: seed 0 gives the exact grids below, and any other seed shifts the
first N of a grid by a deterministic integer jitter of at most JITTER of it and
keeps the grid's ratios. The ratios matter: J_nu(2 pi sqrt(lam N)) at
(lam, N) = (8, 500) is the same value as at (2, 2000), so about a quarter of
grid_scan's Bessel calls are memo hits across grid N, and a jitter that broke
the ratios would add a third more series work. The cutoffs default_truncation
picks stay the same within +-2 % of every grid N, so the jitter changes the
inputs without changing the shape of the work.

This module imports nothing from the package, so that the worker can start its
set-up clock before the first package import.
"""

import hashlib
import json
import math
import random

K = 2.0
JITTER = 0.005

# (first N, multipliers) of each workload's grid.
GRIDS = {
    # scaling_study over the acceptance grid (c01-c03), default cutoffs.
    "grid_scan": (500, (1, 2, 4, 8)),
    # evaluate at one N with the default spec, then Z, L and M doubled (c09).
    "containment": (2000, (1,)),
    # zero-free evaluate (Z = 0), the work of `linnik scan --Z 0`.
    "large_n": (50000, (1, 2, 4)),
}

# Wall time of one untraced pass at the benchmark's first commit (2-vCPU
# Xeon VM, Python 3.11.7, mpmath on its python backend). A run makes
# passes(name, seconds) passes, a count fixed by these figures and not by how
# fast the passes go, so two commits compared at one --seconds run the same
# work.
NOMINAL_PASS_S = {"grid_scan": 16.5, "containment": 38.0, "large_n": 11.1}

# c01 bound on the log-log slope of |residual| over the grid.
MAX_SLOPE = 3.2
# lhs and m1 carry no truncation, so against the reference they get the c04
# rounding gate instead of a tail bound.
REL_GATE = 1e-12

TERMS = ("lhs", "m1", "m2", "m3", "m4")
TAILED = ("m2", "m3", "m4")


def grid(name: str, seed: int) -> tuple:
    """The N values of a workload for a seed; seed 0 gives the exact grid."""
    first, mults = GRIDS[name]
    if seed:
        span = int(JITTER * first)
        first += random.Random(f"{name}:{seed}").randint(-span, span)
    return tuple(first * m for m in mults)


def evaluations(name: str) -> int:
    """How many evaluate calls one pass of the workload makes."""
    return 4 if name == "containment" else len(GRIDS[name][1])


def passes(name: str, seconds: float) -> int:
    """Untraced passes in a run of about `seconds` of solve time; at least one."""
    return max(1, round(seconds / NOMINAL_PASS_S[name]))


def prepare(name: str, ns, linnik, zs) -> list:
    """(params, spec) of every evaluation the workload makes, in order. This
    is the last set-up step: the truncation is chosen here."""
    formula = linnik.formula
    CesaroParams = linnik.arithmetic.CesaroParams
    if name == "containment":
        params = CesaroParams(N=ns[0], k=K)
        spec = formula.default_truncation(params, zs)
        return [(params, spec)] + [(params, spec.doubled(w)) for w in ("Z", "L", "M")]
    Z = 0 if name == "large_n" else None
    return [
        (params, formula.default_truncation(params, zs, Z=Z))
        for params in (CesaroParams(N=n, k=K) for n in ns)
    ]


def solve(name: str, ns, linnik, zs, plan) -> tuple:
    """Run the workload. Returns (reports, run-level values)."""
    formula = linnik.formula
    if name == "grid_scan":
        study = formula.scaling_study(list(ns), K, zs)
        return list(study.rows), {"slope": study.slope}
    return [formula.evaluate(params, zs, spec) for params, spec in plan], {}


def op_record(params, spec, report) -> dict:
    """The outputs of one evaluation that the checks and the digest read."""
    rec = {"N": params.N, "Z": spec.Z, "L": spec.L, "M": spec.M}
    for term in TERMS:
        rec[term] = getattr(report, term)
    for term in TAILED:
        rec[f"tail_{term}"] = report.tail_bounds[term]
    return rec


def digest(ops, extra) -> str:
    """sha256 of every output value at full precision."""
    blob = json.dumps({"ops": ops, "extra": extra}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def op_failures(op) -> list:
    """Checks on one evaluation: every term finite, and c02."""
    bad = [f"N={op['N']}: {t} = {op[t]!r} is not finite"
           for t in TERMS if not math.isfinite(op[t])]
    if bad:
        return bad
    rel = abs(op["lhs"] / op["m1"] - 1.0)
    limit = 5.0 * op["N"] ** -0.25
    if not rel <= limit:
        bad.append(f"N={op['N']}: c02 |lhs/m1-1| = {rel:.3e} > {limit:.3e}")
    return bad


def run_failures(name: str, seed: int, ops, extra, reference) -> list:
    """Checks on a whole pass; one failure fails every evaluation in it."""
    bad = []
    if name == "grid_scan":
        slope = extra["slope"]
        if not slope <= MAX_SLOPE:
            bad.append(f"c01 residual slope {slope!r} > {MAX_SLOPE}")
    if name == "containment":
        base = ops[0]
        for which, op in zip("ZLM", ops[1:]):
            for term in TAILED:
                delta = abs(op[term] - base[term])
                if not delta <= base[f"tail_{term}"]:
                    bad.append(f"c09 {which} doubled: |d{term}| = {delta:.3e} > "
                               f"tail {base[f'tail_{term}']:.3e}")
    if seed == 0:
        bad.extend(reference_failures(ops, reference[name]))
    return bad


def reference_failures(ops, ref_ops) -> list:
    """Seed-0 outputs against the values recorded at the benchmark's first
    commit: lhs and m1 to REL_GATE, m2-m4 within their reported tail bounds."""
    if len(ops) != len(ref_ops):
        return [f"{len(ops)} evaluations, reference has {len(ref_ops)}"]
    bad = []
    for op, ref in zip(ops, ref_ops):
        where = f"N={op['N']} Z={op['Z']} L={op['L']} M={op['M']}"
        if any(op[key] != ref[key] for key in ("N", "Z", "L", "M")):
            bad.append(f"{where}: reference was computed at N={ref['N']} "
                       f"Z={ref['Z']} L={ref['L']} M={ref['M']}")
            continue
        for term in TERMS:
            delta = abs(op[term] - ref[term])
            allowed = (op[f"tail_{term}"] if term in TAILED
                       else REL_GATE * abs(ref[term]))
            if not delta <= allowed:
                bad.append(f"{where}: {term} moved {delta:.3e} from the reference "
                           f"(allowed {allowed:.3e})")
    return bad
