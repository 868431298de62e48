"""One workload pass in a fresh, single-threaded Python process.

    python3 -m perfbench.worker --workload NAME --seed N --mode setup|solve|trace
                                [--spans FILE]

A fresh process starts with the package's memo caches (_BESSEL_CACHE,
_LATTICE_CACHE, _TABLE_CACHE) empty, as they are for a `linnik evaluate`
user. The pass times set-up (from just before `import linnik` until the zero
table is loaded and every truncation is chosen) and solve (the workload's
evaluations), and prints one JSON object on its last line of output. Mode
`setup` stops after set-up; mode `trace` wraps the layers with a Tracer first
and reports per-layer counts and timings, writing the spans to FILE.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from perfbench import tracer as tracing
from perfbench import workloads

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    """What the timings depend on besides the code: interpreter, bigint
    backend of mpmath (gmpy2 changes its speed a lot), numpy, CPUs."""
    import mpmath
    import numpy
    from mpmath.libmp import BACKEND

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": BACKEND,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def run(name: str, ns, mode: str, spans_path=None) -> dict:
    """One pass of workload `name` over the N values `ns`."""
    tracer = tracing.Tracer() if mode == "trace" else None

    t0 = time.perf_counter()
    import linnik

    if tracer is not None:
        tracer.install(linnik)
    zs = linnik.zeros.load_zeros(linnik.zeros.bundled_zeros_path(), "bundled")
    plan = workloads.prepare(name, ns, linnik, zs)
    setup_s = time.perf_counter() - t0

    src = Path(linnik.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise RuntimeError(f"imported linnik from {src}, not from this checkout's src/")
    out = {"setup_s": setup_s}
    if mode == "setup":
        return out

    error = None
    t1 = time.perf_counter()
    try:
        reports, extra = workloads.solve(name, ns, linnik, zs, plan)
    except Exception:  # a raising evaluation is a failed operation, not a crash
        error = traceback.format_exc(limit=4)
    solve_s = time.perf_counter() - t1
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["solve_s"] = solve_s
    out["error"] = error
    if error is None:
        out["ops"] = [workloads.op_record(p, s, r) for (p, s), r in zip(plan, reports)]
        out["extra"] = extra
    out["env"] = environment()
    if tracer is not None:
        out["counts"] = tracing.counts(tracer.spans)
        out["timings"] = tracing.timings(tracer.spans, solve_s)
        if spans_path:
            tracer.write(spans_path)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GRIDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "solve", "trace"))
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    ns = workloads.grid(args.workload, args.seed)
    result = run(args.workload, ns, args.mode, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
