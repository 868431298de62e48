"""specfun.memo, the package's one cache: its eviction rule, its counters,
their agreement with perfbench's external tracer, and a scan that keeps every
later cache on it."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from linnik.errors import DomainError
from linnik.specfun import gamma_ratio, memo

ROOT = Path(__file__).resolve().parent.parent


def _squares(cap):
    calls = []

    @memo(cap)
    def square(x):
        calls.append(x)
        return x * x

    return square, calls


def test_a_full_memo_keeps_its_first_entries():
    square, calls = _squares(3)
    for x in range(6):
        assert square(x) == x * x
    # each new key replaces the one added last: 0 and 1 stay
    assert list(square.cache) == [(0,), (1,), (5,)]
    assert [square(x) for x in (0, 1, 5)] == [0, 1, 25]
    assert calls == list(range(6))
    square(2)
    assert list(square.cache) == [(0,), (1,), (2,)]
    assert calls == list(range(6)) + [2]


def test_hits_and_misses_count_exactly():
    square, calls = _squares(2)
    assert (square.hits, square.misses) == (0, 0)
    for x in (3, 3, 4, 3, 4, 5, 5, 3):
        square(x)
    # misses 3, 4, 5 (replacing 4), then 3 and 4 hit
    assert calls == [3, 4, 5]
    assert (square.hits, square.misses) == (5, 3)
    square(4)  # dropped for 5: a miss
    assert (square.hits, square.misses) == (5, 4)
    assert square.hits + square.misses == 9


def test_a_call_that_raises_stores_nothing(cold_memos):
    cold_memos(gamma_ratio)
    hits, misses = gamma_ratio.hits, gamma_ratio.misses
    for _ in range(2):
        with pytest.raises(DomainError):
            gamma_ratio(-2.0, 1.0)
    assert gamma_ratio.cache == {}
    assert (gamma_ratio.hits, gamma_ratio.misses) == (hits, misses + 2)
    first = gamma_ratio(1.0, 2.0)
    assert gamma_ratio(1.0, 2.0) == first
    assert list(gamma_ratio.cache) == [(1.0, 2.0)]
    assert (gamma_ratio.hits, gamma_ratio.misses) == (hits + 1, misses + 3)


# evaluate at N = 2000, k = 2, then each cutoff doubled, in a fresh process
# with perfbench's tracer installed. install rebinds bessel_j to a wrapper
# that copied the memo's counters as they stood, so the memos are read
# through references taken before it.
_TRACED_DOUBLED_PASS = """
import json
import linnik
from linnik import formula, specfun
from perfbench import tracer
bessel_j, gamma_ratio, tables_for = specfun.bessel_j, specfun.gamma_ratio, formula._tables_for
t = tracer.Tracer()
t.install(linnik)
zs = linnik.zeros.load_zeros(linnik.zeros.bundled_zeros_path(), "bundled")
params = linnik.arithmetic.CesaroParams(N=2000, k=2.0)
spec = linnik.formula.TruncationSpec(Z=2, L=3, M=3, tol=1.0)
for s in (spec, spec.doubled("Z"), spec.doubled("L"), spec.doubled("M")):
    linnik.formula.evaluate(params, zs, s)
memos = {name: {"hits": m.hits, "misses": m.misses} for name, m in
         (("bessel_j", bessel_j), ("gamma_ratio", gamma_ratio), ("tables_for", tables_for))}
print(json.dumps({"counts": tracer.counts(t.spans), "memos": memos}))
"""


def test_memo_counters_agree_with_the_tracer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    proc = subprocess.run([sys.executable, "-c", _TRACED_DOUBLED_PASS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    counts, memos = out["counts"], out["memos"]
    bessel, ratios, tables = memos["bessel_j"], memos["gamma_ratio"], memos["tables_for"]
    assert bessel["misses"] == counts["specfun.bessel_j.misses"] > 0
    assert bessel["hits"] + bessel["misses"] == counts["specfun.bessel_j.calls"]
    assert bessel["hits"] > 0
    assert ratios["hits"] + ratios["misses"] == counts["specfun.gamma_ratio.calls"]
    assert tables["misses"] == counts["arithmetic.compute_rq.calls"] == 1
    assert tables["hits"] == 3


_CACHE_NAME = re.compile(r"_\w*(CACHE|TABLES)$")


def _is_dict(value) -> bool:
    return isinstance(value, ast.Dict) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id == "dict"
    )


def test_no_module_level_cache_dict():
    # a cache goes through memo(cap): one eviction rule, counted hits
    found = []
    for path in sorted((ROOT / "src" / "linnik").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if node.value is None or not _is_dict(node.value):
                continue
            found += [f"{path.name}:{node.lineno} {t.id}" for t in targets
                      if isinstance(t, ast.Name) and _CACHE_NAME.match(t.id)]
    assert not found, "use memo(cap) for: " + ", ".join(found)
