"""Deterministic adaptive Gauss-Kronrod quadrature for complex integrands.

A plain recursive G7/K15 bisection rule. No randomness, no reliance on
evaluation order side effects, so repeated runs are bitwise identical.
"""

import math

from .errors import PrecisionError

__all__ = ["adaptive_gauss_kronrod"]

# G7/K15 nodes and weights on [-1, 1] (positive half; symmetric).
_KRONROD_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_KRONROD_WEIGHTS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
# Embedded 7-point Gauss weights, matching Kronrod nodes 1, 3, 5, 7.
_GAUSS_WEIGHTS = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# Bisection depth and panel budget, past which the rule gives up.
_MAX_DEPTH = 48
_MAX_PANELS = 200000


def _gk15(f, a: float, b: float):
    """One G7/K15 panel; returns (kronrod, |kronrod - gauss|)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fk = 0.0j
    fg = 0.0j
    for i, x in enumerate(_KRONROD_NODES):
        if x == 0.0:
            v = complex(f(mid))
            fk += _KRONROD_WEIGHTS[i] * v
            fg += _GAUSS_WEIGHTS[3] * v
        else:
            v1 = complex(f(mid - half * x))
            v2 = complex(f(mid + half * x))
            fk += _KRONROD_WEIGHTS[i] * (v1 + v2)
            if i % 2 == 1:
                fg += _GAUSS_WEIGHTS[i // 2] * (v1 + v2)
    return half * fk, abs(half * (fk - fg))


def adaptive_gauss_kronrod(f, a: float, b: float, abs_tol: float) -> complex:
    """Integrate f over [a, b] to absolute tolerance abs_tol.

    Bisects depth-first in a fixed left-to-right order. Raises
    PrecisionError when the panel budget or depth limit is exhausted.
    """
    if not (abs_tol > 0) or not math.isfinite(abs_tol):
        raise ValueError("abs_tol must be positive and finite")
    total = 0.0 + 0.0j
    panels = 0
    stack = [(float(a), float(b), float(abs_tol), 0)]
    while stack:
        x0, x1, tol, depth = stack.pop()
        val, err = _gk15(f, x0, x1)
        panels += 1
        if panels > _MAX_PANELS:
            raise PrecisionError(
                f"panel budget exhausted on [{x0}, {x1}] (err {err:.3e}, tol {abs_tol:.3e})"
            )
        # second disjunct: the estimate has hit the double-rounding floor of
        # the panel value itself and cannot contract further
        if err <= tol or err <= 5e-15 * abs(val) or (x1 - x0) < 1e-300:
            total += val
            continue
        if depth >= _MAX_DEPTH:
            raise PrecisionError(
                f"max depth reached on [{x0}, {x1}] (err {err:.3e} > tol {tol:.3e})"
            )
        xm = 0.5 * (x0 + x1)
        # push right first so the left half is processed next (fixed order)
        stack.append((xm, x1, 0.5 * tol, depth + 1))
        stack.append((x0, xm, 0.5 * tol, depth + 1))
    return total
