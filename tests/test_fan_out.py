"""specfun.bessel_j_prefetch, which spreads m3's and m4's missing Bessel values
over the process's CPUs: the same report bits and memo counts as a serial run,
a key that raises raised in its place, one fork round per scan, and no child
process left behind.

The fan-out is forced by a break-even of one value and two CPUs from the
affinity read; serial, by an affinity read of one CPU."""

import dataclasses
import json
import os
import signal
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


@pytest.fixture
def forks(monkeypatch):
    """The pids this process forks, in order."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


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


def test_a_scaling_study_forks_once(run_as, forks, zeros100):
    # one prefetch over the keys of every N; each evaluate's own forks nothing
    run_as(FAN_OUT, lambda: scaling_study([500, 1000, 2000, 4000], 2.0, zeros100))
    assert len(forks) == 1
    _no_child_left()


def test_a_scan_whose_first_N_fails_in_m3_raises_as_in_a_serial_run(run_as, forks, zeros100):
    zs = ZeroSet(zeros100.zeros[:3] + (470.0,), "test")
    messages = []
    for mode in (SERIAL, FAN_OUT):
        with pytest.raises(DomainError) as err:
            run_as(mode, lambda: scaling_study([2000, 4000, 8000], 2.0, zs,
                                               Z=4, L=3, M=3, tol=1.0))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("m3: J_nu(u) magnitude exceeds double range")
    assert len(forks) == 1
    _no_child_left()


def test_a_scan_raises_the_error_of_its_first_failing_N(zeros100):
    # at k = 113, M2 leaves double range at N = 500 and the default tol at
    # N = 1000; the scan chooses every truncation before its first evaluate,
    # and still raises the evaluate's failure first, as a serial run does
    with pytest.raises(DomainError, match="^m2: "):
        scaling_study([500, 1000, 2000], 113.0, zeros100)


def test_a_failure_in_the_first_N_kills_and_reaps_the_scans_child(
    run_as, forks, monkeypatch, zeros100
):
    calls, kills, kill = [], [], os.kill

    def failing_m2(params, zs, spec):
        calls.append(params.N)
        raise DomainError("stop")

    def recording_kill(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(os, "kill", recording_kill)
    monkeypatch.setattr(formula, "m2_term", failing_m2)
    with pytest.raises(DomainError, match="^m2: stop$"):
        run_as(FAN_OUT, lambda: scaling_study([500, 1000, 2000, 4000], 2.0, zeros100))
    assert calls == [500]
    assert len(forks) == 1
    assert kills == [(forks[0], signal.SIGKILL)]
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


def test_a_failure_in_the_parent_kills_and_reaps_a_blocked_child(
    run_as, forks, monkeypatch, zeros100
):
    # at Z = 100, L = 16 the child computes about 2 * 10^4 values, some
    # 400 KiB of results, and then blocks writing them into a 64 KiB pipe
    # that the failing parent never reads
    seen = {}

    def failing_m2(params, zs, spec):
        deadline = time.monotonic() + 60.0
        while (state := _state(forks[0])) != "S" and time.monotonic() < deadline:
            time.sleep(0.01)
        seen["state"], seen["at"] = state, time.monotonic()
        raise DomainError("stop")

    monkeypatch.setattr(formula, "m2_term", failing_m2)
    spec = TruncationSpec(Z=100, L=16, M=3, tol=1.0)
    with pytest.raises(DomainError, match="^m2: stop$"):
        run_as(FAN_OUT, lambda: evaluate(CesaroParams(N=2000, k=2.0), zeros100, spec))
    assert seen["state"] == "S"
    assert time.monotonic() - seen["at"] < 10.0
    assert len(forks) == 1
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


# 20000 orders at u = 0, 80000 bytes of queue: more than a pipe holds. With
# no child to read it, and then with one, every value comes back.
_WIDE_QUEUE = """
import os
from linnik import specfun
def no_fork():
    raise OSError(11, "Resource temporarily unavailable")
def prefetch(re):
    with specfun.bessel_j_prefetch([(complex(re, g), (0.0,)) for g in range(20000)]):
        pass
os.sched_getaffinity = lambda pid: {0, 1}
fork, os.fork = os.fork, no_fork
prefetch(2.5)
os.fork = fork
prefetch(3.5)
print(len(specfun.bessel_j.cache), specfun.bessel_j.misses)
"""


def test_a_queue_wider_than_the_pipe_does_not_block():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _WIDE_QUEUE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["40000", "40000"]
