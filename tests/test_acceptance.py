"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Tolerances are pinned here and nowhere else.
"""

import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from bchkit.algebra import LieElement
from bchkit.closed_form import bch_closed_form, f_scalar, f_series
from bchkit.closed_form import _f_closed  # branch-level comparison in criterion 8
from bchkit.detect import CaseTag, classify_pair, factorize_rank_one
from bchkit import families
from bchkit.oracle import (
    bch_integral_series,
    builtin_catalog,
    catalog_entry,
    matrix_bch,
    two_scale_algebra,
)
from reference import (bch_rank_one_exact, centralized_closure, evaluate_exact, f_form_negexp,
                       f_form_product, f_form_quotient, is_zero, minus, plus, times)


@contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}", file=sys.stderr)
        raise
    print(f"PASS criterion {number}: {description} ({time.time() - start:.2f}s)")


def sup_diff(a: LieElement, b: LieElement) -> float:
    return max(abs(float(p) - float(q)) for p, q in zip(a.coords, b.coords))


def sup_diff_exact(a: LieElement, b: LieElement) -> float:
    return max(abs(float(p - q)) for p, q in zip(a.coords, b.coords))


EXPECTED_F_TABLE = {
    (0, 0): Fraction(1, 2),
    (1, 0): Fraction(1, 12), (0, 1): Fraction(1, 12),
    (2, 0): Fraction(0), (1, 1): Fraction(1, 24), (0, 2): Fraction(0),
    # -(u+v)(u^2-5uv+v^2)/720 expanded
    (3, 0): Fraction(-1, 720), (2, 1): Fraction(1, 180),
    (1, 2): Fraction(1, 180), (0, 3): Fraction(-1, 720),
    # -uv(u^2-4uv+v^2)/1440 expanded
    (4, 0): Fraction(0), (3, 1): Fraction(-1, 1440), (2, 2): Fraction(1, 360),
    (1, 3): Fraction(-1, 1440), (0, 4): Fraction(0),
}


def test_criterion_1_exact_series_coefficients():
    with criterion(1, "exact rational series coefficients through degree 4"):
        series = f_series(4)
        assert set(series.coefficients) == set(EXPECTED_F_TABLE)
        for key, value in EXPECTED_F_TABLE.items():
            assert series.coefficients[key] == value, key


def test_criterion_2_low_order_composition_terms():
    with criterion(2, "series oracle reproduces 1/2, 1/12, -1/24 exactly at degree 4"):
        alg = two_scale_algebra()
        x = alg.element(["1/2", "-1/3", "1/4", "1/5"])
        y = alg.element(["1/7", "2/5", "-1/2", "3/8"])
        w = alg.bracket(x, y)
        lxw, lyw = alg.bracket(x, w), alg.bracket(y, w)
        lylxw = alg.bracket(y, lxw)
        # each compared direction is active, so a wrong coefficient is visible
        assert not is_zero(w) and not is_zero(minus(lxw, lyw)) and not is_zero(lylxw)

        def composition(c2, c3, c4):  # x + y + c2 w + c3 (lxw - lyw) - c4 lylxw
            return plus(x, y, times(Fraction(c2), w), times(Fraction(c3), minus(lxw, lyw)),
                        times(-Fraction(c4), lylxw))

        got = bch_integral_series(alg, x, y, 4)
        assert got.coords == composition("1/2", "1/12", "1/24").coords
        # sensitivity: perturbing any of the three coefficients breaks equality
        for wrong in (composition("1/3", "1/12", "1/24"), composition("1/2", "1/11", "1/24"),
                      composition("1/2", "1/12", "1/23")):
            assert got.coords != wrong.coords


def test_criterion_3_shift_operator_case():
    with criterion(3, "shift algebra: scalar form vs matrix oracle and closed formula"):
        entry = catalog_entry("affine")
        alg, rep = entry.algebra, entry.rep
        rng = random.Random(33)
        checked = 0
        while checked < 100:
            a = Fraction(rng.randint(-8, 8), 8)
            b = Fraction(rng.randint(-8, 8), 8)
            if a == 0:
                continue
            x = times(a, alg.basis_element(0))
            y = times(b, alg.basis_element(1))
            cls = classify_pair(alg, x, y)
            if b != 0:  # else the pair commutes
                assert (cls.tag, cls.u, cls.v) == (CaseTag.SIMULTANEOUS_EIGENVECTOR, 0, a)
            res = bch_closed_form(alg, x, y, classification=cls)
            z_mat = matrix_bch(rep, x, y)
            assert sup_diff(res.z, z_mat) < 1e-10
            closed = (float(a), float(a) * float(b) / (1.0 - math.exp(-float(a))))
            assert abs(float(res.z.coords[0]) - closed[0]) < 1e-12
            assert abs(float(res.z.coords[1]) - closed[1]) < 1e-12
            checked += 1


def test_criterion_4_central_case():
    with criterion(4, "Heisenberg: x + y + [x,y]/2 vs matrix oracle"):
        entry = catalog_entry("heisenberg")
        alg, rep = entry.algebra, entry.rep
        rng = random.Random(44)
        for _ in range(100):
            x = families.random_element(rng, 3)
            y = families.random_element(rng, 3)
            closed = plus(x, y, times(Fraction(1, 2), alg.bracket(x, y)))
            z_mat = matrix_bch(rep, x, y)
            assert sup_diff(closed, z_mat) < 1e-12


def test_criterion_5_rank_one_conformance():
    with criterion(5, "200 random rank-one algebras vs degree-8 oracle, order > 8.5"):
        rng = random.Random(55)
        for _ in range(200):
            alg = families.random_rank_one(rng, rng.randint(3, 6))
            x = families.random_element(rng, alg.dim)
            y = families.random_element(rng, alg.dim)
            res = bch_closed_form(alg, x, y)
            ref = bch_integral_series(alg, x, y, 8)
            assert sup_diff(res.z, ref) < 1e-8
        # scaling order against the exact closed form, eps = 2^-3 .. 2^-7
        slopes = []
        for _ in range(8):
            alg = families.random_rank_one(rng, rng.randint(3, 6), nilpotent=False)
            fact = factorize_rank_one(alg)
            x = families.random_element(rng, alg.dim)
            y = families.random_element(rng, alg.dim)
            points = []
            for p in range(3, 8):
                eps = Fraction(1, 2**p)
                xs, ys = times(eps, x), times(eps, y)
                gap = sup_diff_exact(bch_rank_one_exact(fact, xs, ys),
                                     bch_integral_series(alg, xs, ys, 8))
                if gap == 0.0:
                    break
                points.append((-p, math.log2(gap)))
            if len(points) < 5:
                continue
            xs_, ys_ = zip(*points)
            slopes.append(float(np.polyfit(xs_, ys_, 1)[0]))
        assert slopes, "no non-degenerate order measurements"
        assert min(slopes) > 8.5, slopes


def test_criterion_6_operator_form_conformance(operator_form):
    with criterion(6, "operator form vs oracle on two-scale and abelian-derived algebras"):
        # the fixed two-eigenvalue example
        alg = two_scale_algebra()
        x = alg.element(["1/4", "1/2", "0", "0"])
        y = alg.element(["0", "0", "1/4", "1/4"])
        cls = classify_pair(alg, x, y)
        assert cls.tag == CaseTag.OPERATOR_COMMUTING
        res = bch_closed_form(alg, x, y, 1e-9, classification=cls)
        assert sup_diff(res.z, bch_integral_series(alg, x, y, 8)) < 1e-8

        rng = random.Random(66)
        for i in range(50):
            kind = "diag" if i % 2 == 0 else "nilp"
            alg = families.random_derived_abelian(rng, 2, rng.randint(2, 4), kind)
            x = families.random_element(rng, alg.dim, Fraction(1, 4))
            y = families.random_element(rng, alg.dim, Fraction(1, 4))
            cls = classify_pair(alg, x, y)
            assert cls.tag != CaseTag.NO_CLOSED_FORM
            res = bch_closed_form(alg, x, y, 1e-9, classification=cls)
            assert sup_diff(res.z, bch_integral_series(alg, x, y, 8)) < 1e-8

        # scalar-capable pairs: the operator form agrees with the scalar form
        checked = 0
        while checked < 20:
            alg = families.random_rank_one(rng, rng.randint(3, 5), nilpotent=False)
            x = families.random_element(rng, alg.dim)
            y = families.random_element(rng, alg.dim)
            cls = classify_pair(alg, x, y)
            if cls.tag != CaseTag.SIMULTANEOUS_EIGENVECTOR:
                continue
            ok, _ = centralized_closure(alg, x, y)
            assert ok
            r_op = operator_form(alg, x, y, 1e-12)
            r_sc = bch_closed_form(alg, x, y, classification=cls)
            assert sup_diff(r_op.z, r_sc.z) < 1e-10
            checked += 1


def test_criterion_7_detector_soundness():
    with criterion(7, "catalog tags as documented; hierarchy sound on 1000 instances"):
        expected_tags = {
            "abelian3": CaseTag.COMMUTING,
            "heisenberg": CaseTag.CENTRAL_BRACKET,
            "affine": CaseTag.SIMULTANEOUS_EIGENVECTOR,
            "uvc": CaseTag.SIMULTANEOUS_EIGENVECTOR,
            "two_scale": CaseTag.OPERATOR_COMMUTING,
            "sl2": CaseTag.NO_CLOSED_FORM,
        }
        for entry in builtin_catalog():
            for x, y, documented in entry.pairs:
                assert documented == expected_tags[entry.name]
                assert classify_pair(entry.algebra, x, y).tag == documented

        rng = random.Random(77)
        catalog = builtin_catalog()
        for _ in range(1000):
            kind = rng.choice(["rank_one", "case1", "derived_abelian", "catalog"])
            if kind == "rank_one":
                alg = families.random_rank_one(rng, rng.randint(3, 5))
            elif kind == "case1":
                alg = families.random_case1(rng, rng.randint(2, 5))[0]
            elif kind == "derived_abelian":
                alg = families.random_derived_abelian(rng, 2, rng.randint(2, 3))
            else:
                alg = rng.choice(catalog).algebra
            x = families.random_element(rng, alg.dim)
            y = families.random_element(rng, alg.dim)
            cls = classify_pair(alg, x, y)
            if cls.tag == CaseTag.CENTRAL_BRACKET:  # an eigenvector with u = v = 0
                assert is_zero(alg.bracket(x, cls.w)) and is_zero(alg.bracket(y, cls.w))
            if cls.tag in (CaseTag.COMMUTING, CaseTag.CENTRAL_BRACKET,
                           CaseTag.SIMULTANEOUS_EIGENVECTOR):
                ok, _ = centralized_closure(alg, x, y)
                assert ok


def test_criterion_8_f_evaluation_robustness():
    with criterion(8, "three printed forms of f agree; series/closed branches overlap"):
        grid = np.linspace(-4.0, 4.0, 100)
        for u in grid:
            for v in grid:
                assert f_scalar(u, v) == f_scalar(v, u)  # bit-exact symmetry
                if min(abs(u), abs(v), abs(u - v)) < 0.1:
                    continue
                vals = (f_form_product(u, v), f_form_negexp(u, v),
                        f_form_quotient(u, v), f_scalar(u, v))
                spread = max(vals) - min(vals)
                assert spread < 1e-12 * abs(vals[0]), (u, v)
        # overlap annulus: both branches inside their well-conditioned domains
        # (the closed form loses ~eps/|u-v| near the diagonal, so stay off it)
        series = f_series(20)
        rng = random.Random(88)
        checked = 0
        while checked < 400:
            u = rng.uniform(-0.25, 0.25)
            v = rng.uniform(-0.25, 0.25)
            if min(abs(u), abs(v), abs(u - v)) < 0.02:
                continue
            assert abs(series.evaluate(u, v) - _f_closed(max(u, v), min(u, v))) < 1e-13
            # f_scalar against the exact series value of f at the same doubles
            exact = evaluate_exact(f_series(40), Fraction(u), Fraction(v))
            got = f_scalar(u, v)
            if abs(u - v) < 0.25:  # inside the series box
                assert abs(Fraction(got) - exact) <= Fraction(4, 2**53) * abs(exact), (u, v)
            else:
                assert abs(got - float(exact)) < 1e-13, (u, v)
            checked += 1


def test_criterion_9_structural_dichotomy():
    with criterion(9, "omega.n = 0 gives nilpotency; omega.n != 0 stabilizes the chain"):
        rng = random.Random(99)
        for branch_nilpotent in (True, False):
            for _ in range(40):
                alg = families.random_rank_one(rng, rng.randint(3, 6),
                                               nilpotent=branch_nilpotent)
                fact = factorize_rank_one(alg)
                s = [sum(row[b] * fact.n.coords[b] for b in range(alg.dim))
                     for row in fact.omega]
                chain, verdict = alg.lower_central_series()
                if branch_nilpotent:
                    assert all(c == 0 for c in s)
                    assert verdict.nilpotent
                    assert len(chain) == 2 and chain[1].dim == 0
                else:
                    assert any(c != 0 for c in s)
                    assert not verdict.nilpotent
                    assert chain[1] == chain[0] == verdict.stable
