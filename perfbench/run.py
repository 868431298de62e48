"""Benchmark of the linnik package: cold-process workloads, checked outputs.

    python3 perfbench/run.py --workload grid_scan|containment|large_n \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src. Each
pass runs in a fresh single-threaded Python process (perfbench/worker.py),
one evaluation at a time (closed loop, one client), and nothing else runs
beside it. Run nothing else on the machine while it measures.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s       median set-up time (import linnik, load the bundled zeros,
                choose every truncation) over set-up-only processes, half
                before and half after the solve passes (after one discarded
                warm-up), and the solve passes;
  solve_s       median wall time of the workload's evaluations per pass;
  peak_rss_mib  median peak resident memory of a pass.
A run makes a fixed number of passes, about --seconds of solve time at the
nominal pass times in perfbench/workloads.py and at least one, so two commits
compared at one --seconds run the same work.

--trace 1 runs one untraced pass and one traced pass and reports the
per-layer metrics of the traced one (perfbench/tracer.py), with the tracing
overhead as traced over untraced solve time. The spans go to
perfbench/out/spans-<workload>-seed<seed>.json.

Every evaluate call is one operation. It fails if it raises or its outputs
fail a check (perfbench/workloads.py). A failed pass-level check fails every
operation of the pass, and so does a determinism break: output digests, and
for a traced pass its exact-repeat counts, must equal those of every other
pass of the same workload, seed and package source, in this run or in an
earlier one in this checkout (perfbench/out/digests.json and counts.json).
The last line of output is one JSON
object: correct, attempted, failed and the metrics named in BENCHMARK.json.
A full record of the run goes to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

OUT = HERE / "out"
DEADLINE_S = 170.0
SETUP_SAMPLES = 10
WORKER_ENV = {
    "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(ROOT))),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def source_hash() -> str:
    """sha256 over the package sources and data, to key recorded digests."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "linnik"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_worker(name, seed, mode, started, spans=None) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", name,
           "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 1.0:
        return {"crash": "no time left before the deadline"}
    env = dict(os.environ, **WORKER_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        return {"crash": f"{mode} pass killed at the {DEADLINE_S:.0f} s deadline"}
    if proc.returncode != 0:
        return {"crash": f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_pass(name, seed, res, reference, planned) -> dict:
    """Attach the failed-operation count and the reasons to a solve pass."""
    if "crash" in res or res.get("error"):
        res["failures"] = [res.get("crash") or res["error"]]
        res["failed"] = planned
        return res
    ops, extra = res["ops"], res["extra"]
    per_op = [workloads.op_failures(op) for op in ops]
    run_level = workloads.run_failures(name, seed, ops, extra, reference)
    res["failures"] = run_level + [f for fs in per_op for f in fs]
    res["failed"] = planned if run_level else sum(1 for fs in per_op if fs)
    res["digest"] = workloads.digest(ops, extra)
    return res


def load_json(path, default):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return default


def save_json(path, data) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def record_repeat(store_name, key, value, what) -> list:
    """Compare a value with the one recorded for the same key by earlier runs
    in this checkout (and record it if it is the first)."""
    path = OUT / store_name
    store = load_json(path, {})
    seen = store.setdefault(key, value)
    save_json(path, store)
    if seen == value:
        return []
    if isinstance(seen, dict):
        diff = sorted(k for k in set(seen) | set(value) if seen.get(k) != value.get(k))
        return [f"{what} differ from an earlier run of {key}: {', '.join(diff)}"]
    return [f"{what} differ from an earlier run of {key}"]


def fail_all(passes, problems, planned) -> None:
    if not problems:
        return
    for p in passes:
        p["failures"] = problems + p["failures"]
        p["failed"] = planned


def measure(name, seed, seconds, trace, started) -> dict:
    """Run the passes of one benchmark run and check them."""
    reference = load_json(HERE / "reference.json", None)
    if reference is None:
        raise BenchError("perfbench/reference.json is missing")
    planned = workloads.evaluations(name)
    source = source_hash()
    record = {"workload": name, "seed": seed, "trace": trace, "source": source,
              "grid": workloads.grid(name, seed), "setups": [], "passes": []}
    OUT.mkdir(exist_ok=True)

    def solve_pass(mode, spans=None):
        res = run_worker(name, seed, mode, started, spans)
        res["mode"] = mode
        record["passes"].append(check_pass(name, seed, res, reference, planned))
        return res

    def setup_samples(n):
        # a set-up that crashes here crashes the solve passes too, which fail
        for res in (run_worker(name, seed, "setup", started) for _ in range(n)):
            if "crash" not in res:
                record["setups"].append(res["setup_s"])

    if trace:
        solve_pass("solve")
        solve_pass("trace", OUT / f"spans-{name}-seed{seed}.json")
    else:
        run_worker(name, seed, "setup", started)  # warm-up: bytecode, file cache
        # The machine's speed drifts over seconds, so half the set-up samples
        # are taken before the solve passes and half after them.
        setup_samples(SETUP_SAMPLES // 2)
        for _ in range(workloads.passes(name, seconds)):
            if "crash" in solve_pass("solve"):
                break
        setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    # Determinism (c10): every pass of one seed and source gives one digest.
    key = f"{name}/seed{seed}/{source}"
    passes = [p for p in record["passes"] if "digest" in p]
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        fail_all(passes, ["output digests differ between the passes of this run"], planned)
    elif digests:
        fail_all(passes, record_repeat("digests.json", key, digests.pop(), "output digests"),
                 planned)
    traced = [p for p in passes if "counts" in p]
    if traced:
        fail_all(passes, record_repeat("counts.json", key, traced[0]["counts"],
                                       "exact-repeat counts"), planned)
    return record


def end_to_end(record) -> dict:
    timed = [p for p in record["passes"] if "solve_s" in p]
    if not timed:
        raise BenchError("no pass finished: " + "; ".join(
            f for p in record["passes"] for f in p["failures"]))
    return {
        "setup_s": statistics.median(record["setups"] + [p["setup_s"] for p in timed]),
        "solve_s": statistics.median(p["solve_s"] for p in timed),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in timed),
    }


def per_layer(record) -> dict:
    by_mode = {p["mode"]: p for p in record["passes"] if "solve_s" in p}
    traced, plain = by_mode.get("trace"), by_mode.get("solve")
    if traced is None or plain is None or "counts" not in traced:
        raise BenchError("the traced and untraced passes did not both finish: " + "; ".join(
            f for p in record["passes"] for f in p["failures"]))
    values = dict(traced["counts"], **traced["timings"])
    values["trace.solve_s"] = traced["solve_s"]
    values["trace.untraced_solve_s"] = plain["solve_s"]
    values["trace.overhead_ratio"] = traced["solve_s"] / plain["solve_s"] - 1.0
    return values


def declared_metrics(trace) -> list:
    spec = load_json(ROOT / "BENCHMARK.json", None)
    if spec is None:
        raise BenchError("BENCHMARK.json is missing at the checkout root")
    return spec["per_layer" if trace else "end_to_end"]


def summary(record, values) -> list:
    env = next((p["env"] for p in record["passes"] if "env" in p), {})
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"grid={list(record['grid'])} source={record['source']}",
        "env: " + ", ".join(f"{k}={v}" for k, v in env.items()),
    ]
    if record["setups"]:
        lines.append("setup-only passes: " + " ".join(f"{s:.4f}" for s in record["setups"]))
    for i, p in enumerate(record["passes"], 1):
        timing = (f"setup {p['setup_s']:.4f} s, solve {p['solve_s']:.4f} s, "
                  f"rss {p['peak_rss_mib']:.1f} MiB" if "solve_s" in p else "no timing")
        lines.append(f"pass {i} ({p['mode']}): {timing}, failed {p['failed']}, "
                     f"digest {p.get('digest', '-')[:16]}")
        lines.extend(f"  FAIL {f}" for f in p["failures"])
    for name in sorted(values):
        v = values[name]
        lines.append(f"  {name} = {v:.6g}" if isinstance(v, float) else f"  {name} = {v}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GRIDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    try:
        if not (ROOT / "src" / "linnik" / "__init__.py").is_file():
            raise BenchError(f"no package source at {ROOT / 'src' / 'linnik'}")
        declared = declared_metrics(args.trace)
        record = measure(args.workload, args.seed, args.seconds, args.trace, started)
        values = per_layer(record) if args.trace else end_to_end(record)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = len(record["passes"]) * workloads.evaluations(args.workload)
    failed = sum(p["failed"] for p in record["passes"])
    record["values"] = values
    save_json(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print("\n".join(summary(record, values)))
    print(f"failed_ratio = {failed}/{attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
