"""Layer spans recorded from outside the package, and the per-layer metrics
derived from them.

The package calls its own public functions through module attributes: m3_term
looks up ``formula.bessel_j``, ``bessel_j`` looks up
``specfun.bessel_j_detailed``, ``_tables_for`` looks up
``arithmetic.compute_rq``. ``Tracer.install`` replaces every such binding of
each traced function with a wrapper that records one span per call: name,
start, end, parent span and a few attributes read from the arguments or the
result. Nothing under ``src/`` changes. Spans stay in memory until the run
ends, when ``write`` saves them.

Layers that are deliberately not wrapped: ``summation`` (CompensatedSum.add
runs once per term, so a span per call would cost more than the call; its
cost lands in the self time of the formula terms and in cesaro_lhs),
``quadrature`` (not on the evaluate path) and ``cli`` (a thin front end).
"""

import functools
import json
import math
import time

# (module, public functions of that module whose calls become spans); the
# span name is "<module>.<function>".
TRACE_POINTS = (
    ("arithmetic", ("sieve_von_mangoldt", "compute_rq", "cesaro_lhs")),
    ("specfun", ("bessel_j", "bessel_j_detailed", "log_gamma", "gamma_ratio")),
    ("zeros", ("load_zeros", "paired_zero_sum", "zero_tail_bound")),
    (
        "formula",
        ("default_truncation", "evaluate", "m1_term", "m2_term", "m3_term", "m4_term"),
    ),
)

SPAN_NAMES = tuple(f"{mod}.{func}" for mod, funcs in TRACE_POINTS for func in funcs)

# Upper edges of the Bessel argument buckets: the series cost grows faster
# than linearly in u, so a kernel change shows first in the top buckets.
U_BUCKETS = ((500.0, "u_lt_500"), (1000.0, "u_500_1000"), (2000.0, "u_1000_2000"),
             (math.inf, "u_ge_2000"))

# compute_rq does one float64 slice add per element: read two operands and
# write one, 24 bytes. bytes_moved is this computed figure, not a measurement.
BYTES_PER_ADD = 24


def rq_adds(N: int) -> int:
    """Element adds compute_rq makes at N: the sum over lattice norms
    lam = l1^2 + l2^2 < N (l1, l2 >= 1) of N - lam."""
    adds = 0
    l1 = 1
    while l1 * l1 + 1 < N:
        rest = N - l1 * l1  # l2^2 < rest
        c = math.isqrt(rest - 1)
        adds += c * rest - c * (c + 1) * (2 * c + 1) // 6
        l1 += 1
    return adds


def _bessel_attrs(args, kwargs, result):
    nu = complex(args[0] if args else kwargs["nu"])
    u = float(args[1] if len(args) > 1 else kwargs["u"])
    return {"u": u, "complex": nu.imag != 0.0}


def _bessel_eval_attrs(args, kwargs, result):
    return {"strategy": result.strategy, "bits": result.bits, "terms": result.terms}


def _compute_rq_attrs(args, kwargs, result):
    N = args[1] if len(args) > 1 else kwargs["N"]
    return {"adds": rq_adds(int(N))}


_ATTRS = {
    "specfun.bessel_j": _bessel_attrs,
    "specfun.bessel_j_detailed": _bessel_eval_attrs,
    "arithmetic.compute_rq": _compute_rq_attrs,
}


class Tracer:
    """Records spans [name, start, end, parent index, attrs] in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._t0 = time.perf_counter()

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every binding of each traced function in the package namespace
        and its layer modules. A traced function that no longer exists raises
        AttributeError, so a renamed layer cannot silently drop out."""
        namespaces = [package] + [getattr(package, mod) for mod, _ in TRACE_POINTS]
        for mod, funcs in TRACE_POINTS:
            home = getattr(package, mod)
            for func in funcs:
                original = getattr(home, func)
                wrapper = self.wrap(original, f"{mod}.{func}")
                for ns in namespaces:
                    for attr in [a for a, v in vars(ns).items() if v is original]:
                        setattr(ns, attr, wrapper)

    def write(self, path) -> None:
        """Save the spans as JSON, times in seconds from tracer creation."""
        rows = [
            [name, start - self._t0, end - self._t0, parent, attrs]
            for name, start, end, parent, attrs in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "attrs"],
                       "spans": rows}, fh)


def _bucket(u: float) -> str:
    return next(label for edge, label in U_BUCKETS if u < edge)


def counts(spans) -> dict:
    """Deterministic work counts: they must repeat exactly for one input."""
    out = {f"{name}.calls": 0 for name in SPAN_NAMES}
    for name, *_ in spans:
        out[f"{name}.calls"] += 1
    for _, edge_label in U_BUCKETS:
        out[f"specfun.bessel.{edge_label}.calls"] = 0
    misses = {}
    for name, _s, _e, parent, attrs in spans:
        if name == "specfun.bessel_j":
            key = f"specfun.bessel.{_bucket(attrs['u'])}.calls"
            out[key] += 1
        elif name == "specfun.bessel_j_detailed":
            misses[attrs["strategy"]] = misses.get(attrs["strategy"], 0) + 1
    for strategy in ("series", "asymptotic"):
        misses.setdefault(strategy, 0)
    for strategy, n in misses.items():
        out[f"specfun.bessel.{strategy}.calls"] = n
    series = [a for n, _s, _e, _p, a in spans
              if n == "specfun.bessel_j_detailed" and a["strategy"] == "series"]
    out["specfun.bessel.series.max_bits"] = max((a["bits"] for a in series), default=0)
    out["specfun.bessel.series.terms"] = sum(a["terms"] for a in series)

    calls = out["specfun.bessel_j.calls"]
    missed = sum(1 for n, _s, _e, p, _a in spans
                 if n == "specfun.bessel_j_detailed" and p >= 0
                 and spans[p][0] == "specfun.bessel_j")
    out["specfun.bessel_j.misses"] = missed
    out["specfun.bessel_j.cache_hit_ratio"] = (calls - missed) / calls if calls else 0.0
    adds = sum(a["adds"] for n, _s, _e, _p, a in spans if n == "arithmetic.compute_rq")
    out["arithmetic.compute_rq.adds"] = adds
    out["arithmetic.compute_rq.bytes_moved"] = BYTES_PER_ADD * adds
    evaluations = out["formula.evaluate.calls"]
    tables = out["arithmetic.compute_rq.calls"]
    out["arithmetic.table_hit_ratio"] = 1.0 - tables / evaluations if evaluations else 0.0
    return out


def timings(spans, solve_s: float) -> dict:
    """Busy time per layer (inclusive), self time of the Bessel-heavy terms,
    Bessel time by strategy, order type and argument bucket, and the shares
    of the traced solve time. Times are in seconds."""
    out = {f"{name}.s": 0.0 for name in SPAN_NAMES}
    out["formula.m3_term.self_s"] = out["formula.m4_term.self_s"] = 0.0
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        out[f"{name}.s"] += end - start
        if parent >= 0:
            child_time[parent] += end - start
    for key in ("series", "asymptotic", "real", "cplx") + tuple(b for _, b in U_BUCKETS):
        out[f"specfun.bessel.{key}.s"] = 0.0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        if name == "specfun.bessel_j":
            out[f"specfun.bessel.{_bucket(attrs['u'])}.s"] += dur
            out["specfun.bessel.cplx.s" if attrs["complex"] else "specfun.bessel.real.s"] += dur
        elif name == "specfun.bessel_j_detailed":
            key = f"specfun.bessel.{attrs['strategy']}.s"
            out[key] = out.get(key, 0.0) + dur
        elif name in ("formula.m3_term", "formula.m4_term"):
            out[f"{name}.self_s"] += dur - child_time[i]
    out["specfun.bessel.series.share"] = out["specfun.bessel.series.s"] / solve_s
    out["arithmetic.compute_rq.share"] = out["arithmetic.compute_rq.s"] / solve_s
    out["trace.span_coverage"] = out["formula.evaluate.s"] / solve_s
    return out
