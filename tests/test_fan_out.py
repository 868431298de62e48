"""specfun.bessel_j_prefetch, which spreads m3's and m4's missing Bessel values
over the process's CPUs: the same report bits and memo counts as a serial run,
a key that raises raised in its place, and no child process left behind.

The fan-out is forced by a break-even of one value and two CPUs from the
affinity read; serial, by an affinity read of one CPU."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from linnik import formula, specfun
from linnik.arithmetic import CesaroParams
from linnik.errors import DomainError
from linnik.formula import TruncationSpec, default_truncation, evaluate, scaling_study
from linnik.zeros import ZeroSet

ROOT = Path(__file__).resolve().parent.parent

SERIAL = ({0}, specfun._FAN_OUT_MIN)
FAN_OUT = ({0, 1}, 1)


@pytest.fixture
def run_as(monkeypatch, cold_memos):
    """run_as(mode, fn) calls fn on an empty bessel_j memo, serial or with the
    fan-out forced, and returns its result and the memo misses it counted."""
    cold_memos(specfun.bessel_j)

    def run(mode, fn):
        cpus, least = mode
        specfun.bessel_j.cache.clear()
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: cpus)
            m.setattr(specfun, "_FAN_OUT_MIN", least)
            misses = specfun.bessel_j.misses
            return fn(), specfun.bessel_j.misses - misses

    return run


def _bits(report) -> dict:
    """Every field of a report, floats as hex; of wallclock only the parts."""
    out = {}
    for field in dataclasses.fields(report):
        v = getattr(report, field.name)
        if field.name == "wallclock":
            v = sorted(v)
        elif isinstance(v, float):
            v = v.hex()
        elif isinstance(v, dict):
            v = {key: x.hex() for key, x in v.items()}
        out[field.name] = v
    return out


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_c09_sequence_has_the_serial_bits_and_misses(run_as, zeros100):
    params = CesaroParams(N=2000, k=2.0)
    spec = default_truncation(params, zeros100)
    specs = [spec] + [spec.doubled(which) for which in "ZLM"]

    def c09():
        return [_bits(evaluate(params, zeros100, s)) for s in specs]

    serial, fanned = run_as(SERIAL, c09), run_as(FAN_OUT, c09)
    assert fanned == serial
    assert serial[1] > 0
    _no_child_left()


def test_a_scaling_study_has_the_serial_bits_and_misses(run_as, zeros100):
    def study():
        s = scaling_study([500, 1000, 2000, 4000], 2.0, zeros100)
        return [_bits(r) for r in s.rows], s.slope.hex()

    assert run_as(FAN_OUT, study) == run_as(SERIAL, study)
    _no_child_left()


def test_a_key_past_double_range_raises_as_in_a_serial_run(run_as, zeros100):
    # J at gamma = 470 leaves double range (ROADMAP item 5); the fan-out
    # leaves that key out, and m3's sum raises it in its place
    zs = ZeroSet(zeros100.zeros[:3] + (470.0,), "test")
    spec = TruncationSpec(Z=4, L=3, M=3, tol=1.0)
    messages = []
    for mode in (SERIAL, FAN_OUT):
        with pytest.raises(DomainError) as err:
            run_as(mode, lambda: evaluate(CesaroParams(N=2000, k=2.0), zs, spec))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("m3: J_nu(u) magnitude exceeds double range")
    _no_child_left()


def test_a_failed_fork_leaves_the_values_to_this_process(run_as, monkeypatch, zeros100):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    params = CesaroParams(N=2000, k=2.0)
    spec = TruncationSpec(Z=4, L=3, M=3, tol=1.0)
    serial = run_as(SERIAL, lambda: _bits(evaluate(params, zeros100, spec)))
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_as(FAN_OUT, lambda: _bits(evaluate(params, zeros100, spec))) == serial


def _state(pid: int) -> str:
    with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0]


def test_a_failure_in_the_parent_kills_and_reaps_a_blocked_child(run_as, monkeypatch, zeros100):
    # at Z = 100, L = 16 the child computes about 2 * 10^4 values, some
    # 400 KiB of results, and then blocks writing them into a 64 KiB pipe
    # that the failing parent never reads
    forked, seen = [], {}
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def failing_m2(params, zs, spec):
        deadline = time.monotonic() + 60.0
        while (state := _state(forked[0])) != "S" and time.monotonic() < deadline:
            time.sleep(0.01)
        seen["state"], seen["at"] = state, time.monotonic()
        raise DomainError("stop")

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(formula, "m2_term", failing_m2)
    spec = TruncationSpec(Z=100, L=16, M=3, tol=1.0)
    with pytest.raises(DomainError, match="^m2: stop$"):
        run_as(FAN_OUT, lambda: evaluate(CesaroParams(N=2000, k=2.0), zeros100, spec))
    assert seen["state"] == "S"
    assert time.monotonic() - seen["at"] < 10.0
    assert len(forked) == 1
    _no_child_left()


# the containment sequence at two zeros in a fresh process with perfbench's
# tracer installed and the fan-out forced
_TRACED_FAN_OUT = """
import json
import os
import linnik
from linnik import specfun
from perfbench import tracer
specfun._FAN_OUT_MIN = 1
os.sched_getaffinity = lambda pid: {0, 1}
bessel_j = specfun.bessel_j
t = tracer.Tracer()
t.install(linnik)
zs = linnik.zeros.load_zeros(linnik.zeros.bundled_zeros_path(), "bundled")
params = linnik.arithmetic.CesaroParams(N=2000, k=2.0)
spec = linnik.formula.TruncationSpec(Z=2, L=3, M=3, tol=1.0)
for s in (spec, spec.doubled("Z"), spec.doubled("L"), spec.doubled("M")):
    linnik.formula.evaluate(params, zs, s)
print(json.dumps({"counts": tracer.counts(t.spans), "misses": bessel_j.misses}))
"""


def test_traced_counts_repeat_exactly_under_the_fan_out():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    procs = [subprocess.Popen([sys.executable, "-c", _TRACED_FAN_OUT], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) for _ in range(2)]
    outs = []
    for proc in procs:
        stdout, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        outs.append(json.loads(stdout.strip().splitlines()[-1]))
    assert outs[0] == outs[1]
    # every miss was computed by the fan-out, out of the tracer's sight
    assert outs[0]["misses"] > 0
    assert outs[0]["counts"]["specfun.bessel_j.misses"] == 0
