"""Command-line front end.

Subcommands: evaluate, scan, zeros {fetch,validate,info}, probe, selftest,
and bessel (ad-hoc single evaluation for debugging).

All outputs are deterministic functions of the configuration and input files:
numbers are serialized with 17 significant digits, no timestamps or wallclock
figures are written, and reruns produce byte-identical files.

Exit codes: 0 ok, 1 usage, 2 data/validation, 3 numeric/precision.
"""

import argparse
import cmath
import math
import sys
from pathlib import Path

from . import arithmetic, formula, specfun, zeros as zeros_mod
from .arithmetic import CesaroParams
from .errors import (
    DomainError,
    FetchError,
    IntegrityError,
    LinnikError,
    PrecisionError,
    QuadratureError,
    TableSizeError,
    ZeroTableError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

CSV_HEADER = "N,k,lhs,m1,m2,m3,m4,residual,normalized_residual,slope_na"
_ROW_FIELDS = ("N", "k", "lhs", "m1", "m2", "m3", "m4", "residual",
               "normalized_residual", "slope_na")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return "%.17g" % float(x)


def _report_row(rep, slope=None) -> dict:
    return {
        "N": rep.params.N,
        "k": rep.params.k,
        "lhs": rep.lhs,
        "m1": rep.m1,
        "m2": rep.m2,
        "m3": rep.m3,
        "m4": rep.m4,
        "residual": rep.residual,
        "normalized_residual": rep.normalized_residual,
        "slope_na": "na" if slope is None else slope,
    }


def _write_rows(path, rows, fmt: str) -> None:
    if fmt == "csv":
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(",".join(_fmt(row[f]) for f in _ROW_FIELDS))
        payload = "\n".join(lines) + "\n"
    else:
        out_rows = []
        for row in rows:
            obj = "{" + ", ".join(
                f'"{f}": ' + (f'"{row[f]}"' if isinstance(row[f], str) else _fmt(row[f]))
                for f in _ROW_FIELDS
            ) + "}"
            out_rows.append(obj)
        payload = '{"rows": [' + ", ".join(out_rows) + "]}\n"
    Path(path).write_text(payload, encoding="utf-8", newline="\n")


def _load_zero_set(spec_str: str):
    if spec_str == "bundled":
        return zeros_mod.load_zeros(zeros_mod.bundled_zeros_path(), "bundled")
    return zeros_mod.load_zeros(spec_str)


def _overrides(args) -> dict:
    """The --Z, --L, --M and --tol given, for formula.override_truncation."""
    return {n: getattr(args, n) for n in ("Z", "L", "M", "tol") if getattr(args, n) is not None}


def cmd_evaluate(args) -> int:
    zs = _load_zero_set(args.zeros)
    params = CesaroParams(N=args.N, k=args.k)
    spec = formula.override_truncation(params, zs, _overrides(args))
    rep = formula.evaluate(params, zs, spec, allow_subcritical=args.allow_subcritical)
    _write_rows(args.out, [_report_row(rep)], args.format)
    print(
        f"N={rep.params.N} k={_fmt(rep.params.k)} residual={_fmt(rep.residual)} "
        f"normalized_residual={_fmt(rep.normalized_residual)}"
    )
    for note in rep.notes:
        print(f"note: {note}")
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.synthetic_selftest:
        ns = [500, 1000, 2000, 4000]
        slope, _ = formula.fit_loglog_slope(ns, [0.7 * n**3 for n in ns])
        print(f"synthetic slope={_fmt(slope)}")
        return EXIT_OK if abs(slope - 3.0) <= 1e-6 else EXIT_NUMERIC
    try:
        n_list = [int(x) for x in args.N_list.split(",") if x.strip()]
    except ValueError as exc:
        raise _UsageError(f"--N-list must be comma-separated integers ({exc})") from None
    if len(n_list) < 3:
        raise _UsageError("--N-list needs at least 3 ascending values")
    zs = _load_zero_set(args.zeros)
    study = formula.scaling_study(
        n_list,
        args.k,
        zs,
        spec_overrides=_overrides(args),
        allow_subcritical=args.allow_subcritical,
    )
    rows = [_report_row(rep, slope=study.slope) for rep in study.rows]
    _write_rows(args.out, rows, args.format)
    if args.plot_data:
        lines = ["log_N,log_abs_residual"]
        for rep in study.rows:
            if rep.residual != 0.0:
                lines.append(
                    _fmt(math.log(rep.params.N)) + "," + _fmt(math.log(abs(rep.residual)))
                )
        Path(args.plot_data).write_text("\n".join(lines) + "\n", encoding="utf-8")
    for rep in study.rows:
        print(
            f"N={rep.params.N} residual={_fmt(rep.residual)} "
            f"normalized_residual={_fmt(rep.normalized_residual)}"
        )
    print(f"slope={_fmt(study.slope)}")
    if study.excluded:
        print(f"note: zero-residual rows excluded from fit: {list(study.excluded)}")
    return EXIT_OK


def cmd_zeros(args) -> int:
    if args.zeros_cmd == "fetch":
        path = zeros_mod.fetch_zeros(args.source, args.limit, cache=args.cache_dir)
        zs = zeros_mod.load_zeros(path, args.source)
        print(f"fetched {zs.count} zeros -> {path}")
        return EXIT_OK
    zs = _load_zero_set(args.table)
    if args.zeros_cmd == "validate":
        print(f"OK, count={zs.count}")
        return EXIT_OK
    # info
    lo = zs.zeros[0].gamma if zs.count else float("nan")
    hi = zs.zeros[-1].gamma if zs.count else float("nan")
    print(f"count={zs.count} gamma_first={_fmt(lo)} gamma_last={_fmt(hi)}")
    return EXIT_OK


def cmd_probe(args) -> int:
    zs = _load_zero_set(args.zeros)
    if args.Z is not None:
        zs = zs.truncated(args.Z)
    series = formula.threshold_probe(args.d, args.k, args.N, zs, vmax=args.vmax)
    lines = ["zeros_included,partial_sum"]
    for i, p in enumerate(series.partial_sums, start=1):
        lines.append(f"{i},{_fmt(p)}")
    payload = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _selftest_checks():
    """(name, category, callable) triples; callables raise on failure."""

    def theta_modularity():
        for a in (0.01, 0.1, 1.0):
            for y in (-2.0, 0.0, 3.0):
                z = complex(a, y)
                lhs = arithmetic.theta3(z).value
                w = math.pi ** 2 / z
                rhs = cmath.sqrt(math.pi / z) * arithmetic.theta3(w).value
                if abs(lhs - rhs) > 1e-12 * abs(lhs):
                    raise AssertionError(f"theta functional equation off at z={z}")

    def laplace_identity():
        for s in (1.0, 3.0, 2.0 + 1.0j):
            v = specfun.laplace_line_integral(s, 10.0)
            ref = cmath.exp((complex(s) - 1) * math.log(10.0) - specfun.log_gamma(s))
            if abs(v - ref) > 1e-8 * abs(ref):
                raise AssertionError(f"laplace identity off at s={s}")

    def bessel_recurrence():
        for nu in (1.0, 2.5, 2.0 + 7.0j):
            for u in (1.0, 10.0, 100.0):
                a = specfun.bessel_j(nu - 1, u)
                b = specfun.bessel_j(nu + 1, u)
                c = specfun.bessel_j(nu, u)
                resid = abs(a + b - 2.0 * nu / u * c)
                scale = max(abs(a), abs(b), abs(c))
                if resid > 1e-9 * scale:
                    raise AssertionError(f"recurrence off at nu={nu} u={u}")

    def rq_oracle():
        lam = arithmetic.sieve_von_mangoldt(200)
        counts = arithmetic.rq_prime_counts(lam, 200)
        pp = {int(n): (int(p), int(j)) for n, p, j in zip(lam.pp_n, lam.pp_p, lam.pp_j)}
        for n in range(1, 201):
            brute = {}
            for l1 in range(1, n):
                if l1 * l1 >= n:
                    break
                for l2 in range(1, n):
                    m1 = n - l1 * l1 - l2 * l2
                    if m1 < 1:
                        break
                    if m1 in pp:
                        p = pp[m1][0]
                        brute[p] = brute.get(p, 0) + 1
            if brute != counts[n]:
                raise AssertionError(f"r_Q prime counts mismatch at n={n}")

    def zeros_bundled():
        zs = zeros_mod.load_zeros(zeros_mod.bundled_zeros_path(), "bundled")
        if zs.count != 100:
            raise AssertionError(f"bundled table has {zs.count} zeros, expected 100")

    return (
        ("theta_modularity", EXIT_NUMERIC, theta_modularity),
        ("laplace_identity", EXIT_NUMERIC, laplace_identity),
        ("bessel_recurrence", EXIT_NUMERIC, bessel_recurrence),
        ("rq_oracle", EXIT_NUMERIC, rq_oracle),
        ("zeros_bundled", EXIT_DATA, zeros_bundled),
    )


def cmd_selftest(args) -> int:
    results = []
    first_fail = None
    for name, category, check in _selftest_checks():
        try:
            check()
            results.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report every failure mode
            results.append((name, False, str(exc)))
            if first_fail is None:
                first_fail = (name, category)
    if args.json:
        checks = ", ".join(
            '{"name": "%s", "passed": %s}' % (n, "true" if ok else "false")
            for n, ok, _ in results
        )
        print('{"checks": [' + checks + "]}")
    else:
        for n, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'} {n}" + (f" ({detail})" if detail else ""))
    if first_fail is None:
        return EXIT_OK
    if not args.json:
        print(f"first failing check: {first_fail[0]}")
    return first_fail[1]


def cmd_bessel(args) -> int:
    d = specfun.bessel_j_detailed(complex(args.nu_re, args.nu_im), args.u)
    print(
        f"J({_fmt(args.nu_re)}{'+' if args.nu_im >= 0 else '-'}{_fmt(abs(args.nu_im))}i, "
        f"{_fmt(args.u)}) = {_fmt(d.value.real)} + {_fmt(d.value.imag)}i"
    )
    print(f"strategy={d.strategy} bits={d.bits} terms={d.terms} err_estimate={_fmt(d.err_estimate)}")
    return EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="linnik", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    ev = sub.add_parser("evaluate", help="evaluate both sides of the formula at one N")
    ev.add_argument("--N", type=int, required=True)
    ev.add_argument("--k", type=float, required=True)
    ev.add_argument("--zeros", default="bundled", help="'bundled' or path to a zero table")
    ev.add_argument("--Z", type=int, default=None)
    ev.add_argument("--L", type=int, default=None)
    ev.add_argument("--M", type=int, default=None)
    ev.add_argument("--tol", type=float, default=None)
    ev.add_argument("--out", required=True)
    ev.add_argument("--format", choices=("csv", "json"), default="csv")
    ev.add_argument("--allow-subcritical", action="store_true")
    ev.set_defaults(func=cmd_evaluate)

    sc = sub.add_parser("scan", help="scaling study over an N grid")
    sc.add_argument("--N-list", dest="N_list", default="")
    sc.add_argument("--k", type=float, default=2.0)
    sc.add_argument("--zeros", default="bundled")
    sc.add_argument("--Z", type=int, default=None)
    sc.add_argument("--L", type=int, default=None)
    sc.add_argument("--M", type=int, default=None)
    sc.add_argument("--tol", type=float, default=None)
    sc.add_argument("--out", default="scan.csv")
    sc.add_argument("--format", choices=("csv", "json"), default="csv")
    sc.add_argument("--plot-data", dest="plot_data", default=None)
    sc.add_argument("--allow-subcritical", action="store_true")
    sc.add_argument("--synthetic-selftest", dest="synthetic_selftest", action="store_true")
    sc.set_defaults(func=cmd_scan)

    zr = sub.add_parser("zeros", help="zero-table management")
    zsub = zr.add_subparsers(dest="zeros_cmd", required=True)
    zf = zsub.add_parser("fetch")
    zf.add_argument("--source", default="bundled")
    zf.add_argument("--limit", type=int, default=100)
    zf.add_argument("--cache-dir", dest="cache_dir", default=None)
    zv = zsub.add_parser("validate")
    zv.add_argument("table", help="'bundled' or path")
    zi = zsub.add_parser("info")
    zi.add_argument("table", nargs="?", default="bundled")
    zr.set_defaults(func=cmd_zeros)

    pr = sub.add_parser("probe", help="convergence-threshold probe")
    pr.add_argument("--d", type=int, required=True, choices=(1, 2, 3))
    pr.add_argument("--k", type=float, required=True)
    pr.add_argument("--N", type=int, required=True)
    pr.add_argument("--zeros", default="bundled")
    pr.add_argument("--Z", type=int, default=None)
    pr.add_argument("--vmax", type=float, default=40.0)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_probe)

    st = sub.add_parser("selftest", help="fast invariant suite")
    st.add_argument("--json", action="store_true")
    st.set_defaults(func=cmd_selftest)

    be = sub.add_parser(
        "bessel", help="single Bessel evaluation (debugging)",
        description="Evaluate J_nu(u) on the path the package takes, chosen from u "
        "and nu alone (see linnik.specfun): the fixed-point Hankel kernel "
        "(strategy=hankel) when u >= max(300, 1.5 |nu|) and it certifies the "
        "value, the power series (strategy=series) otherwise. Print the value "
        "with that path's strategy, working bits, terms summed and error "
        "estimate.",
    )
    be.add_argument("--nu-re", dest="nu_re", type=float, required=True)
    be.add_argument("--nu-im", dest="nu_im", type=float, default=0.0)
    be.add_argument("--u", type=float, required=True)
    be.set_defaults(func=cmd_bessel)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ZeroTableError, FetchError, IntegrityError, TableSizeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (PrecisionError, QuadratureError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DomainError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LinnikError as exc:  # pragma: no cover - catch-all for package errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
