"""The per-layer counts of a traced pass repeat exactly for one input.

Each traced pass runs in its own fresh process, so the package caches start
cold both times. The inputs are small, so the test stays quick: a large_n pass
at small N through the worker, and a containment-style run (evaluate, then
each cutoff doubled) at two zeros, which exercises the complex-order series
and both memo caches.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_repeat.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from perfbench import tracer, workloads

ROOT = Path(__file__).resolve().parent.parent

_WORKER_PASS = """
import json
from perfbench import worker
print(json.dumps(worker.run("large_n", (3000, 6000), "trace")))
"""

_DOUBLED_PASS = """
import json
import linnik
from perfbench import tracer
t = tracer.Tracer()
t.install(linnik)
zs = linnik.zeros.load_zeros(linnik.zeros.bundled_zeros_path(), "bundled")
params = linnik.arithmetic.CesaroParams(N=2000, k=2.0)
spec = linnik.formula.TruncationSpec(Z=2, L=3, M=3, tol=1.0)
for s in (spec, spec.doubled("Z"), spec.doubled("L"), spec.doubled("M")):
    linnik.formula.evaluate(params, zs, s)
print(json.dumps({"counts": tracer.counts(t.spans)}))
"""


def fresh_process(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_worker_counts_and_outputs_repeat_exactly():
    first, second = fresh_process(_WORKER_PASS), fresh_process(_WORKER_PASS)
    assert first["error"] is None, first["error"]
    assert first["counts"] == second["counts"]
    assert workloads.digest(first["ops"], first["extra"]) == workloads.digest(
        second["ops"], second["extra"])
    assert first["counts"]["formula.evaluate.calls"] == 2
    adds = tracer.rq_adds(3000) + tracer.rq_adds(6000)
    assert first["counts"]["arithmetic.compute_rq.adds"] == adds


def test_cache_counts_repeat_exactly():
    first, second = fresh_process(_DOUBLED_PASS), fresh_process(_DOUBLED_PASS)
    assert first["counts"] == second["counts"]
    counts = first["counts"]
    assert counts["formula.evaluate.calls"] == 4
    assert counts["arithmetic.table_hit_ratio"] == 0.75  # one table, reused three times
    assert counts["specfun.bessel.series.calls"] > 0
    assert 0.0 < counts["specfun.bessel_j.cache_hit_ratio"] < 1.0


def test_rq_adds_matches_the_lattice_loop():
    for N in (4, 5, 17, 100, 1001):
        brute = sum(N - (a * a + b * b) for a in range(1, N) for b in range(1, N)
                    if a * a + b * b < N)
        assert tracer.rq_adds(N) == brute


def test_seed_zero_gives_the_exact_grids_and_jitter_stays_small():
    exact = {"grid_scan": (500, 1000, 2000, 4000), "containment": (2000,),
             "large_n": (50000, 100000, 200000)}
    for name, base in exact.items():
        assert workloads.grid(name, 0) == base
        for seed in (1, 2, 99):
            ns = workloads.grid(name, seed)
            assert ns == workloads.grid(name, seed)
            assert all(n * base[0] == b * ns[0] for n, b in zip(ns, base))
            assert abs(ns[0] - base[0]) <= workloads.JITTER * base[0]
