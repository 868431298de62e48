"""Command-line front end.

Subcommands: evaluate, scan, zeros {compute,info}, probe, and bessel (ad-hoc
single evaluation for debugging). evaluate and scan share --zeros, --Z, --L,
--M and --tol; a cutoff given is used as is, and formula.default_truncation
chooses the others for --tol at every N. Both take only the theorem range
k > 3/2 and refuse a smaller --k before any term is computed. zeros info
loads a table with every check of load_zeros.

All outputs are deterministic functions of the configuration and input files:
numbers are serialized with 17 significant digits, no timestamps or wallclock
figures are written, and reruns produce byte-identical files. One CSV writer
writes every table; the evaluate/scan rows have one schema, _ROW_FIELDS, and
the --out file is the one result of either command. evaluate and scan print
each report's notes as "note: <text>" lines. An --out path is checked before
any work: its directory must exist and the path must not be a directory, so a
run that cannot write its result computes nothing and writes nothing. An empty
--N-list entry is a usage error; fewer than 3 entries, or entries not strictly
ascending, are a validation error, as is a --Z outside the zero table
(negative or past its end), refused with the one message of every command.
Each is refused before anything is computed.

Exit codes: 0 ok, 1 usage, 2 data/validation (a value past double range
among them), 3 numeric (a value in range that could not be certified).
"""

import argparse
import errno
import os
import sys
from pathlib import Path

from . import formula, specfun, zeros as zeros_mod
from .arithmetic import CesaroParams
from .errors import LinnikError, PrecisionError, ZeroTableError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

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


def _report_row(rep, slope=None) -> tuple:
    """The values of one report row, in the order of _ROW_FIELDS."""
    return (rep.params.N, rep.params.k, rep.lhs, rep.m1, rep.m2, rep.m3, rep.m4,
            rep.residual, rep.normalized_residual, "na" if slope is None else slope)


def _write_csv(header: str, rows, out) -> None:
    """Write the header line and one line of comma-joined _fmt values per row
    to the file out, or to stdout when out is None."""
    lines = [header] + [",".join(_fmt(x) for x in row) for row in rows]
    payload = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(payload, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(payload)


def _load_zero_set(table: str):
    """The packaged table for 'bundled', else the table file at that path."""
    bundled = table == "bundled"
    path = zeros_mod.bundled_zeros_path() if bundled else table
    return zeros_mod.load_zeros(path, "bundled" if bundled else None)


def _cutoffs(args) -> dict:
    """--Z, --L, --M and --tol (None where not given) for formula.default_truncation."""
    return {n: getattr(args, n) for n in ("Z", "L", "M", "tol")}


def cmd_evaluate(args) -> int:
    zs = _load_zero_set(args.zeros)
    params = CesaroParams(N=args.N, k=args.k)
    spec = formula.default_truncation(params, zs, **_cutoffs(args))
    rep = formula.evaluate(params, zs, spec)
    _write_csv(",".join(_ROW_FIELDS), [_report_row(rep)], args.out)
    print(
        f"N={rep.params.N} k={_fmt(rep.params.k)} residual={_fmt(rep.residual)} "
        f"normalized_residual={_fmt(rep.normalized_residual)}"
    )
    for note in rep.notes:
        print(f"note: {note}")
    return EXIT_OK


def cmd_scan(args) -> int:
    try:
        n_list = [int(x) for x in args.N_list.split(",")]
    except ValueError as exc:
        raise _UsageError(f"--N-list must be comma-separated integers ({exc})") from None
    zs = _load_zero_set(args.zeros)
    study = formula.scaling_study(n_list, args.k, zs, **_cutoffs(args))
    rows = [_report_row(rep, slope=study.slope) for rep in study.rows]
    _write_csv(",".join(_ROW_FIELDS), rows, args.out)
    for rep in study.rows:
        print(
            f"N={rep.params.N} residual={_fmt(rep.residual)} "
            f"normalized_residual={_fmt(rep.normalized_residual)}"
        )
        for note in rep.notes:
            print(f"note: {note}")
    print(f"slope={_fmt(study.slope)}")
    return EXIT_OK


def cmd_zeros(args) -> int:
    if args.zeros_cmd == "compute":
        zs = zeros_mod.compute_zeros(args.count)
        _write_csv(
            f"# First {zs.count} zeta zero ordinates from mpmath.zetazero at 80 bits, "
            "rounded to doubles.",
            ((g,) for g in zs.zeros),
            args.out,
        )
        return EXIT_OK
    zs = _load_zero_set(args.table)
    lo = zs.zeros[0] if zs.count else float("nan")
    hi = zs.zeros[-1] if zs.count else float("nan")
    print(f"count={zs.count} gamma_first={_fmt(lo)} gamma_last={_fmt(hi)}")
    return EXIT_OK


def cmd_probe(args) -> int:
    zs = _load_zero_set(args.zeros)
    Z = zs.count if args.Z is None else args.Z
    partials = formula.threshold_probe(args.d, args.k, args.N, zs, Z)
    _write_csv("zeros_included,partial_sum", enumerate(partials, start=1), args.out)
    return EXIT_OK


def cmd_bessel(args) -> int:
    d = specfun.bessel_j_detailed(complex(args.nu_re, args.nu_im), args.u)
    print(
        f"J({_fmt(args.nu_re)}{'+' if args.nu_im >= 0 else '-'}{_fmt(abs(args.nu_im))}i, "
        f"{_fmt(args.u)}) = {_fmt(d.value.real)} {'+' if d.value.imag >= 0 else '-'} "
        f"{_fmt(abs(d.value.imag))}i"
    )
    print(f"strategy={d.strategy} bits={d.bits} terms={d.terms}")
    return EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="linnik", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    # the options evaluate and scan share
    terms = _Parser(add_help=False)
    terms.add_argument("--zeros", default="bundled", help="'bundled' or path to a zero table")
    terms.add_argument("--Z", type=int, default=None)
    terms.add_argument("--L", type=int, default=None)
    terms.add_argument("--M", type=int, default=None)
    terms.add_argument("--tol", type=float, default=None)

    ev = sub.add_parser(
        "evaluate", parents=[terms], help="evaluate both sides of the formula at one N"
    )
    ev.add_argument("--N", type=int, required=True)
    ev.add_argument("--k", type=float, required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_evaluate)

    sc = sub.add_parser("scan", parents=[terms], help="scaling study over an N grid")
    sc.add_argument("--N-list", dest="N_list", required=True)
    sc.add_argument("--k", type=float, required=True)
    sc.add_argument("--out", required=True)
    sc.set_defaults(func=cmd_scan)

    zr = sub.add_parser("zeros", help="zero-table management")
    zsub = zr.add_subparsers(dest="zeros_cmd", required=True)
    zc = zsub.add_parser("compute", help="compute a zero table with mpmath")
    zc.add_argument("--count", type=int, required=True)
    zc.add_argument("--out", default=None)
    zi = zsub.add_parser("info", help="load a table, with every check, and summarize it")
    zi.add_argument("table", nargs="?", default="bundled", help="'bundled' or path")
    zr.set_defaults(func=cmd_zeros)

    pr = sub.add_parser("probe", help="convergence-threshold probe")
    pr.add_argument("--d", type=int, required=True, choices=(1, 2, 3))
    pr.add_argument("--k", type=float, required=True)
    pr.add_argument("--N", type=int, required=True)
    pr.add_argument("--zeros", default="bundled")
    pr.add_argument("--Z", type=int, default=None)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_probe)

    be = sub.add_parser(
        "bessel", help="single Bessel evaluation (debugging)",
        description="Evaluate J_nu(u) on the path the package takes, chosen from u "
        "and nu alone (see linnik.specfun): the fixed-point Hankel kernel "
        "(strategy=hankel) when u >= max(300, 1.5 |nu|) and it certifies the "
        "value, the power series (strategy=series) otherwise. Print the value "
        "with that path's strategy, working bits and terms summed.",
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
        out = getattr(args, "out", None)
        if out:
            # the error the write would raise, before any work, not after it
            if not Path(out).parent.is_dir():
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
            if Path(out).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ZeroTableError, OSError) as exc:  # a table or output file
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PrecisionError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except LinnikError as exc:  # DomainError
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
