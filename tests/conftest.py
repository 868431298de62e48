import pytest
from mpmath import mp

from linnik import bundled_zeros_path, load_zeros
from linnik.arithmetic import CesaroParams, compute_rq, sieve_von_mangoldt
from linnik.formula import default_truncation, evaluate


@pytest.fixture(autouse=True)
def mp_precision_unchanged():
    """Fail a test that leaves mpmath's global precision changed: every later
    test would run at it, and a package path that forgot its workprec could
    then pass or fail by test order."""
    prec = mp.prec
    yield
    leaked = mp.prec
    mp.prec = prec
    if leaked != prec:
        pytest.fail(f"test left mp.prec at {leaked} (was {prec})")


@pytest.fixture
def cold_memos():
    """cold_memos(memo, ...) empties package memos for one test. After the
    test each gets back the entries it had, so an entry built under a patched
    constant stays out of later tests and the session's memos stay warm."""
    saved = []

    def empty(*memos):
        for memo in memos:
            saved.append((memo, dict(memo.cache)))
            memo.cache.clear()

    yield empty
    for memo, entries in reversed(saved):
        memo.cache.clear()
        memo.cache.update(entries)


@pytest.fixture(scope="session")
def zeros100():
    return load_zeros(bundled_zeros_path(), "bundled")


@pytest.fixture(scope="session")
def lam500():
    return sieve_von_mangoldt(500)


@pytest.fixture(scope="session")
def rq500(lam500):
    return compute_rq(lam500, 500)


ACCEPTANCE_GRID = (500, 1000, 2000, 4000)
ACCEPTANCE_K = 2.0


@pytest.fixture(scope="session")
def grid_runs(zeros100):
    """Base evaluations for the N-grid at k = 2, Z = 50, tol = 1e-6 N^(k+1)."""
    runs = {}
    for N in ACCEPTANCE_GRID:
        params = CesaroParams(N=N, k=ACCEPTANCE_K)
        spec = default_truncation(params, zeros100)
        runs[N] = (spec, evaluate(params, zeros100, spec))
    return runs


@pytest.fixture(scope="session")
def doubled_runs(zeros100, grid_runs):
    """Same grid re-evaluated with each cutoff doubled in turn."""
    runs = {}
    for N, (spec, _) in grid_runs.items():
        params = CesaroParams(N=N, k=ACCEPTANCE_K)
        runs[N] = {
            which: evaluate(params, zeros100, spec.doubled(which))
            for which in ("Z", "L", "M")
        }
    return runs
