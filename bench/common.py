"""Shared pieces of the benchmark: paths, child processes, statistics, outcomes."""

from __future__ import annotations

import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src on the path.

    Children may write bytecode caches, as an installed package has them,
    whatever the caller's PYTHONDONTWRITEBYTECODE says; otherwise every CLI
    call would also time the compilation of bchkit.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a child process from the checkout root and wait for it to end."""
    return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


# -- machine speed ----------------------------------------------------------

# One calibration slice's time at reference speed: the median over the runs
# made on a 2-vCPU Intel Xeon virtual machine when the benchmark was written
# (README.md, "Machine speed").
REFERENCE_SLICE_S = 0.72e-3
PROBE_EVERY_S = 0.05  # work between two speed probes inside a timed loop


def _calibration_slice() -> int:
    """A fixed slice of pure-Python work in bchkit's mix: small exact
    fractions, dict updates and float math."""
    table = {}
    total = 0
    x = 0.5
    for i in range(1, 80):
        q = Fraction(i, i + 3) * Fraction(2, i + 1) - Fraction(1, i)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + q.denominator
        x = math.exp(-x) + math.sin(x * i)
        total += q.numerator
    return total + len(table) + int(x)


class Speed:
    """How fast the machine runs pure Python now, against the reference.

    The machines this runs on share their cores, and their speed drifts by
    a fifth and more over tens of seconds.  ``probe`` times a few
    calibration slices between chunks of the workload's work, and
    ``factor`` is the median probe's time per slice over the reference
    time: above 1 when the machine runs slow.  The median, because a probe
    right after a child process exits can read slow.  A time divided by
    the factor is that time at reference speed.
    """

    def __init__(self):
        self.per_slice_s = []  # one entry per probe

    def probe(self, slices: int = 5) -> float:
        """Time ``slices`` calibration slices; returns the probe's wall time."""
        start = time.perf_counter()
        for _ in range(slices):
            _calibration_slice()
        elapsed = time.perf_counter() - start
        self.per_slice_s.append(elapsed / slices)
        return elapsed

    @property
    def factor(self) -> float:
        return statistics.median(self.per_slice_s) / REFERENCE_SLICE_S


def run_probed(fn, speed: Speed):
    """Call ``fn()`` while an interval timer probes the speed every
    PROBE_EVERY_S; one probe comes first, so that a short call has one.

    Returns fn's result and its time without the probes'.
    """
    speed.probe()
    probing_s = 0.0

    def on_timer(signum, frame):
        nonlocal probing_s
        probing_s += speed.probe()

    previous = signal.signal(signal.SIGALRM, on_timer)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return result, time.perf_counter() - start - probing_s


@dataclass
class Sample:
    """One timed loop: ops completed, the time spent in them and per-op
    latencies, all at machine speed, with the speed measured alongside."""

    ops: int
    seconds: float
    latencies_s: list
    speed: Speed

    def normalized(self, seconds: float) -> float:
        return seconds / self.speed.factor


@dataclass
class Verdict:
    """Outcome of checking a loop's outputs against the references.

    ``known`` counts failures that fall in a documented defect regime (see
    README.md); any other failure is listed in ``unexpected`` and makes the
    run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    known: int = 0
    unexpected: list = field(default_factory=list)

    def fail(self, what: str, known: bool = False) -> None:
        self.failed += 1
        if known:
            self.known += 1
        else:
            self.unexpected.append(what)


class Workload:
    """What run.py needs from a workload.

    ``setup(seed)`` does the program work before the timed loop (it is timed
    as setup_s); ``run(seconds, tracer)`` is the timed loop and keeps the
    outputs; ``check()`` compares every kept output with its reference;
    ``summary(sample, metrics)`` gives the workload's own metric names for
    the summary line.
    """

    name = ""
    expected_layers = ()

    def layer_metrics(self) -> dict:
        """Per-layer metrics the workload measures itself."""
        return {}

    def close(self) -> None:
        """Remove whatever set-up left on disk."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
