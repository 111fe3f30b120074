"""library_stream: a seeded stream of pairs through classify_pair + bch_closed_form.

This is the library user's path.  Set-up validates a fixed roster of
algebras (fuzz-family algebras of dim 2-6 drawn at ROSTER_SEED, five catalog
entries and the Borel algebras b(3)..b(6) of upper-triangular matrices) and
draws PAIRS_PER_ALGEBRA pairs for each from the seed; the stream visits the
algebras round-robin.  The roster is fixed because the cost of a pair
depends mostly on its algebra, so a roster that changed with the seed would
move the latency percentiles from seed to seed.

Pairs on the fuzz-family and catalog algebras are random elements, as in the
fuzz path.  On b(n) and sl2 a random pair almost never has a closed form (at
seed 201, 246 of 248 random pairs on b(n) and 123 of 125 on sl2 are
NoClosedForm), so random pairs alone would time only the detector's reject
path there, and the check against the faithful representation of b(n) would
never run.  So the pairs there take turns between a random pair and each
constructed kind that has a closed form, one share each: on b(n) three kinds
(one pair in four is random), on sl2 one kind (one pair in two).  README.md
gives the tag shares and the classify/evaluate split this mix measures at.

Every output is checked after the loop: against ``matrix_bch`` on a faithful
representation where one exists, and on a fixed sample of the other pairs
against the degree-8 integral series.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from common import PROBE_EVERY_S, Sample, Speed, Verdict, Workload, percentile

ROSTER_SEED = 0      # the family algebras are fixed; the pairs come from --seed
PAIRS_PER_ALGEBRA = 250  # the loop wraps around only when it runs out
BOREL_SIZES = (3, 4, 5, 6)
CATALOG = ("heisenberg", "affine", "uvc", "two_scale", "sl2")
SERIES_SAMPLE_PER_ALGEBRA = 2   # rep-less pairs checked against the series oracle
SERIES_DEGREE = 8
SERIES_TOLERANCE = 1e-8         # degree-8 truncation error of these inputs is far below
MATRIX_TOLERANCE = 1e-9         # relative to max(1, |z|)


def borel_algebra(n: int):
    """b(n): upper-triangular n x n matrices, basis E_ij (i <= j), with its
    defining representation."""
    import numpy as np

    import bchkit

    basis = [(i, j) for i in range(n) for j in range(i, n)]
    index = {e: k for k, e in enumerate(basis)}
    entries = {}
    for a, (i, j) in enumerate(basis):
        for b in range(a + 1, len(basis)):
            k, l = basis[b]
            # [E_ij, E_kl] = d_jk E_il - d_li E_kj
            if j == k:
                key = (a, b, index[(i, l)])
                entries[key] = entries.get(key, 0) + 1
            if l == i:
                key = (a, b, index[(k, j)])
                entries[key] = entries.get(key, 0) - 1
    alg = bchkit.validate(entries, len(basis),
                          basis_names=[f"E{i}{j}" for i, j in basis])
    images = []
    for i, j in basis:
        m = np.zeros((n, n))
        m[i, j] = 1.0
        images.append(m)
    return alg, bchkit.MatrixRep(images, faithful_on=f"upper-triangular {n}x{n}"), basis


def _coef(rng) -> Fraction:
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), 8)


@dataclass(frozen=True)
class Entry:
    """One algebra of the roster, its faithful representation if it has one,
    and draw(rng, k), which returns the k-th pair on it."""

    name: str
    alg: object
    rep: object
    draw: Callable


def _random_pair(families, dim, sup):
    def draw(rng, k):
        return (families.random_element(rng, dim, sup),
                families.random_element(rng, dim, sup))
    return draw


def _sl2_pair(families):
    from bchkit import LieElement

    random_pair = _random_pair(families, 3, Fraction(1, 2))

    def draw(rng, k):  # random and constructed in turn
        if k % 2 == 0:
            return random_pair(rng, k)
        # (aH + bE, cE): [H, E] = 2E makes E a common eigenvector
        a, b, c = _coef(rng), _coef(rng), _coef(rng)
        return LieElement((b, Fraction(0), a)), LieElement((c, Fraction(0), Fraction(0)))
    return draw


def _borel_pair(families, n, basis):
    from bchkit import LieElement

    dim = len(basis)
    index = {e: k for k, e in enumerate(basis)}

    zero = Fraction(0)

    def element(values: dict):
        return LieElement(tuple(values.get(k, zero) for k in range(dim)))

    random_pair = _random_pair(families, dim, Fraction(1, 2))

    def draw(rng, k):  # random, then the three kinds with a closed form, in turn
        kind = k % 4
        if kind == 0:   # generic upper-triangular pair
            return random_pair(rng, k)
        diag = [index[(i, i)] for i in range(n)]
        if kind == 1:   # diagonal x, one off-diagonal y: common eigenvector
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            return (element({d: _coef(rng) for d in diag}),
                    element({index[(i, j)]: _coef(rng)}))
        if kind == 2:   # two diagonal matrices commute
            return (element({d: _coef(rng) for d in diag}),
                    element({d: _coef(rng) for d in diag}))
        i = rng.randrange(n - 2)  # E_{i,i+1}, E_{i+1,i+2}: nilpotent pair
        return (element({index[(i, i + 1)]: _coef(rng)}),
                element({index[(i + 1, i + 2)]: _coef(rng)}))
    return draw


class LibraryStream(Workload):
    name = "library_stream"
    expected_layers = ("algebra.validate", "families.generate",
                       "detect.classify_pair", "closed_form.bch_closed_form",
                       "closed_form.f_scalar", "closed_form.f_series")

    def setup(self, seed: int) -> None:
        import bchkit
        from bchkit import families

        roster_rng = random.Random(ROSTER_SEED)
        half = Fraction(1, 2)
        roster = []
        for dim in (3, 4, 5, 6):
            alg = families.random_rank_one(roster_rng, dim)
            roster.append(Entry(f"rank_one{dim}", alg, None, _random_pair(families, dim, half)))
        for dim in (2, 3, 4, 5, 6):
            alg, _, _ = families.random_case1(roster_rng, dim)
            roster.append(Entry(f"case1_{dim}", alg, None, _random_pair(families, dim, half)))
        for kind in ("diag", "nilp"):
            for core in (3, 4):
                alg = families.random_derived_abelian(roster_rng, levers=2, core=core,
                                                      kind=kind)
                roster.append(Entry(f"derived_abelian_{kind}{core}", alg, None,
                                    _random_pair(families, alg.dim, half)))
        catalog = {e.name: e for e in bchkit.builtin_catalog()}
        for name in CATALOG:
            entry = catalog[name]
            draw = (_sl2_pair(families) if name == "sl2" else
                    _random_pair(families, entry.algebra.dim,
                                 Fraction(1, 4) if name == "uvc" else half))
            roster.append(Entry(name, entry.algebra, entry.rep, draw))
        for n in BOREL_SIZES:
            alg, rep, basis = borel_algebra(n)
            roster.append(Entry(f"b{n}", alg, rep, _borel_pair(families, n, basis)))

        # one warm-up pair per algebra fills the path's lazy caches; the
        # stream proper is round-robin over the roster
        rng = random.Random(seed)
        per_algebra = [[e.draw(rng, k) for k in range(PAIRS_PER_ALGEBRA + 1)]
                       for e in roster]
        for e, pairs in zip(roster, per_algebra):
            x, y = pairs[0]
            cls = bchkit.classify_pair(e.alg, x, y)
            if cls.tag.value != "NoClosedForm":
                bchkit.bch_closed_form(e.alg, x, y, classification=cls)
        self.roster = roster
        self.stream = [(r, ) + per_algebra[r][k]
                       for k in range(1, PAIRS_PER_ALGEBRA + 1)
                       for r in range(len(roster))]
        self.outputs = {}      # stream index -> first output
        self.diverged = set()  # indices whose output changed on a later visit
        self._references = {}

    def run(self, seconds: float, tracer=None) -> Sample:
        import bchkit

        classify, closed_form = bchkit.classify_pair, bchkit.bch_closed_form
        stream, roster = self.stream, self.roster
        busy = [0.0] * len(stream)
        visits = [0] * len(stream)
        speed = Speed()
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds
        next_probe = start
        i = ops = 0
        while True:
            r, x, y = stream[i]
            alg = roster[r].alg
            t0 = clock()
            try:
                cls = classify(alg, x, y)
                out = (cls.tag if cls.tag.value == "NoClosedForm"
                       else closed_form(alg, x, y, classification=cls))
            except Exception as exc:  # a failed op is counted, never fatal
                out = exc
            t1 = clock()
            busy[i] += t1 - t0
            visits[i] += 1
            self._record(i, out)
            ops += 1
            i = (i + 1) % len(stream)
            if t1 >= next_probe:
                speed.probe()
                next_probe = clock() + PROBE_EVERY_S
            if t1 >= deadline:
                break
        latencies = [b / v for b, v in zip(busy, visits) if v]
        return Sample(ops, sum(busy), latencies, speed)

    def _record(self, i, out) -> None:
        first = self.outputs.setdefault(i, out)
        if first is not out and _signature(first) != _signature(out):
            self.diverged.add(i)

    def check(self) -> Verdict:
        import bchkit

        verdict = Verdict()
        sampled = {}
        for i in sorted(self.outputs):
            r, x, y = self.stream[i]
            entry = self.roster[r]
            out = self.outputs[i]
            where = f"{entry.name} pair {i}"
            verdict.attempted += 1
            if i in self.diverged:
                verdict.fail(f"{where}: output changed between visits")
                continue
            if isinstance(out, Exception):
                verdict.fail(f"{where}: {type(out).__name__}: {out}")
                continue
            if not isinstance(out, bchkit.BchResult):
                continue  # NoClosedForm is a correct outcome
            if entry.rep is None:
                if sampled.get(r, 0) >= SERIES_SAMPLE_PER_ALGEBRA:
                    continue
                sampled[r] = sampled.get(r, 0) + 1
            err, tol = self._error(i, entry, x, y, out)
            if err > tol:
                verdict.fail(f"{where}: |closed form - reference| = {err:.3e} > {tol:.1e}")
        return verdict

    def _error(self, i, entry, x, y, out):
        ref = self._references.get(i)
        if ref is None:
            import bchkit

            if entry.rep is not None:
                ref = bchkit.matrix_bch(entry.rep, x, y)
            else:
                ref = bchkit.bch_integral_series(entry.alg, x, y, SERIES_DEGREE)
            self._references[i] = ref
        err = max(abs(float(a) - float(b)) for a, b in zip(out.z.coords, ref.coords))
        if entry.rep is None:
            return err, SERIES_TOLERANCE
        return err, MATRIX_TOLERANCE * max(1.0, ref.sup_norm())

    def summary(self, sample, metrics) -> str:
        p90 = sample.normalized(percentile(sample.latencies_s, 90)) * 1e3
        return (f"bch_pairs_per_s={metrics['ops_per_s']:.2f} pairs/s "
                f"bch_latency_ms_p50={metrics['latency_ms_p50']:.3f} ms "
                f"bch_latency_ms_p90={p90:.3f} ms")


def _signature(out):
    if isinstance(out, Exception):
        return type(out).__name__
    z = getattr(out, "z", None)
    return z.coords if z is not None else out
