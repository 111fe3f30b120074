"""f_range: f_scalar over a seeded point set that covers every branch of f.

Each regime gets a fixed number of points, so the mix (and with it the
throughput) does not depend on the seed.  Every point is checked against
the defining quotient of f evaluated in mpmath at a precision chosen from
the arguments (see ``f_reference``); a relative error above 1e-12 is a
failure, and an OverflowError is correct only where the true value does not
fit in a double.
"""

from __future__ import annotations

import math
import random
import sys
import time

from common import Sample, Speed, Verdict, Workload
from tracer import f_regime

REL_TOLERANCE = 1e-12
DOUBLE_MAX = sys.float_info.max

# points per regime.  Per-point cost falls into three clusters: about 1.5 us
# (axis, diagonal, generic, positive, large), about 45 us (series) and about
# 110 us (band, band_large, in mpmath).  These counts (65 %, 20 %, 15 % of
# the points) put the latency p50 and p75 well inside a cluster, so that a
# few points more or less on one side cannot make a percentile jump.
REGIME_POINTS = {
    "series": 480, "axis": 300, "diagonal": 300, "band": 180,
    "band_large": 180, "generic": 330, "positive": 330, "large": 300,
}
# regimes where f_scalar is known to fail today, with the cause in README.md
KNOWN_DEFECTS = ("band_large", "positive", "large")


def _sign(rng):
    return rng.choice((-1.0, 1.0))


def _near_diagonal(rng, lo, hi, signed):
    u = rng.uniform(lo, hi) * (_sign(rng) if signed else 1.0)
    return u, u - _sign(rng) * 10.0 ** rng.uniform(-7.0, -3.0)


def _until(rng, draw, accept):
    while True:
        u, v = draw(rng)
        if accept(u, v):
            return u, v


def _series(rng):
    return _until(rng, lambda r: (r.uniform(-0.25, 0.25), r.uniform(-0.25, 0.25)),
                  lambda u, v: abs(u - v) < 0.25)


def _axis(rng, k):
    t = _sign(rng) * rng.uniform(0.25, 50.0)
    return (t, 0.0) if k % 2 else (0.0, t)


def _diagonal(rng):
    t = _sign(rng) * rng.uniform(0.25, 50.0)
    return t, t


def _generic(rng):
    return _until(rng, lambda r: (r.uniform(-30.0, 30.0), r.uniform(-30.0, 30.0)),
                  lambda u, v: max(abs(u), abs(v), abs(u - v)) >= 0.25
                  and abs(u - v) >= 1e-3)


def _positive(rng):
    return _until(rng, lambda r: (r.uniform(30.0, 350.0), r.uniform(30.0, 350.0)),
                  lambda u, v: abs(u - v) >= 1e-3)


def _large(rng):
    return _until(rng, lambda r: (r.uniform(-800.0, 800.0), r.uniform(-800.0, 800.0)),
                  lambda u, v: abs(u) + abs(v) > 700.0)


SAMPLERS = {
    "series": lambda rng, k: _series(rng),
    "axis": _axis,
    "diagonal": lambda rng, k: _diagonal(rng),
    "band": lambda rng, k: _near_diagonal(rng, 0.25, 30.0, signed=True),
    "band_large": lambda rng, k: _near_diagonal(rng, 90.0, 300.0, signed=False),
    "generic": lambda rng, k: _generic(rng),
    "positive": lambda rng, k: _positive(rng),
    "large": lambda rng, k: _large(rng),
}


def f_reference(u: float, v: float, extra_digits: int = 0):
    """f(u, v) from its defining quotient, in mpmath.

    ((u-v) e^(u+v) - (u e^u - v e^v)) / (u v (e^u - e^v)), with the limits
    on the axes and the diagonal.  The working precision grows with
    max(|u|, |v|) and with the digits lost to cancellation near the origin,
    the axes and the diagonal; ``check`` confirms each value at a higher
    precision.
    """
    import mpmath

    gap = abs(u - v)
    digits = 40 + extra_digits + int(max(abs(u), abs(v)) / 2.3)
    small = min(abs(u), 1.0) * min(abs(v), 1.0) * min(gap, 1.0)
    if small > 0.0:
        digits += int(-math.log10(small)) + 1
    if 0.0 < gap < 1.0:
        digits += 2 * (int(-math.log10(gap)) + 1)
    with mpmath.workdps(digits):
        mu, mv = mpmath.mpf(u), mpmath.mpf(v)
        if u == 0.0 and v == 0.0:
            value = mpmath.mpf(1) / 2
        elif u == v:
            value = (mpmath.expm1(mu) - mu) / (mu * mu)
        elif u == 0.0 or v == 0.0:
            t = mu if v == 0.0 else mv
            value = (t * mpmath.exp(t) - mpmath.exp(t) + 1) / (t * mpmath.expm1(t))
        else:
            num = (mu - mv) * mpmath.exp(mu + mv) - (mu * mpmath.exp(mu) - mv * mpmath.exp(mv))
            value = num / (mu * mv * (mpmath.exp(mu) - mpmath.exp(mv)))
        return +value


class FRange(Workload):
    name = "f_range"
    expected_layers = ("closed_form.f_scalar", "closed_form.f_series")

    def setup(self, seed: int) -> None:
        import bchkit

        rng = random.Random(seed)
        points, regimes = [], []
        for regime, count in REGIME_POINTS.items():
            for k in range(count):
                u, v = SAMPLERS[regime](rng, k)
                if f_regime(u, v) != regime:
                    raise AssertionError(f"sampler for {regime} drew {u!r}, {v!r}")
                points.append((u, v))
                regimes.append(regime)
        # warm the lazy series tables and the mpmath import: one call per regime
        for regime in REGIME_POINTS:
            u, v = points[regimes.index(regime)]
            try:
                bchkit.f_scalar(u, v)
            except (ArithmeticError, ValueError):
                pass  # today's known defects; checked after the loop
        self.points, self.regimes = points, regimes
        self.outputs = []    # one list of outputs per timed pass that was checked
        self._references = None

    def run(self, seconds: float, tracer=None) -> Sample:
        import bchkit

        f = bchkit.closed_form.f_scalar
        points = self.points
        busy = [0.0] * len(points)
        out = [None] * len(points)
        speed = Speed()
        clock = time.perf_counter
        passes = 0
        deadline = clock() + seconds
        while True:
            for i, (u, v) in enumerate(points):
                t0 = clock()
                try:
                    r = f(u, v)
                except Exception as exc:  # a failed op is counted, never fatal
                    r = exc
                busy[i] += clock() - t0
                out[i] = r
            passes += 1
            if passes == 1:
                self.outputs.append(list(out))
            speed.probe()  # one pass is about as long as PROBE_EVERY_S
            if clock() >= deadline:
                break
        self.outputs.append(out)
        return Sample(passes * len(points), sum(busy),
                      [b / passes for b in busy], speed)

    def references(self):
        if self._references is None:
            refs = []
            for u, v in self.points:
                ref = f_reference(u, v)
                confirm = f_reference(u, v, extra_digits=30)
                if abs(ref - confirm) > 1e-25 * abs(confirm):
                    raise AssertionError(f"mpmath reference unstable at ({u!r}, {v!r})")
                refs.append(ref)
            self._references = refs
        return self._references

    def check(self) -> Verdict:
        refs = self.references()
        verdict = Verdict(attempted=len(self.points))
        for i, ((u, v), regime, ref) in enumerate(zip(self.points, self.regimes, refs)):
            problem = None
            for out in self.outputs:
                problem = problem or _mismatch(out[i], ref)
            if problem is None:
                continue
            known = regime in KNOWN_DEFECTS or (regime == "generic" and min(u, v) > 0.0)
            verdict.fail(f"f_scalar({u!r}, {v!r}) [{regime}]: {problem}", known=known)
        return verdict

    def summary(self, sample, metrics) -> str:
        return f"f_evals_per_s={metrics['ops_per_s']:.1f} evals/s"


def _mismatch(out, ref):
    """Why an output disagrees with the reference, or None when it is correct."""
    overflows = abs(ref) > DOUBLE_MAX
    if isinstance(out, OverflowError):
        return None if overflows else "OverflowError on a representable value"
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if overflows:
        return f"returned {out!r} where the value overflows a double"
    err = abs(out - ref) / abs(ref)
    return None if err <= REL_TOLERANCE else f"relative error {float(err):.2e}"
