"""The f function (scalar, series, operator) and the closed-form variants."""

import functools
import hashlib
import json
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bchkit.closed_form import (
    BchResult,
    BivariateSeries,
    ClassificationMismatch,
    NoClosedFormAvailable,
    NonConvergence,
    bch_closed_form,
    case1_build,
    closed_form_terms,
    f_scalar,
    f_series,
)
from bchkit.algebra import LieElement, StructureConstants, validate
from bchkit.detect import (
    CaseClassification,
    CaseTag,
    classify_pair,
    factorize_rank_one,
)
from bchkit import algebra, closed_form, detect, families
from bchkit.cli import main
from bchkit.oracle import (
    abelian_algebra,
    affine_algebra,
    bch_integral_series,
    bch_series_terms,
    builtin_catalog,
    catalog_entry,
    heisenberg_algebra,
    matrix_bch,
    sl2_algebra,
    two_scale_algebra,
    uvc_model_algebra,
)
from reference import (adjoint, apply, centralized_closure, direct_sum, euclidean_plane,
                       evaluate_exact, f_form_negexp, f_form_product, f_form_quotient, minus,
                       omega_contract, plus, rank_one_uv, times)


def _floats(alg, *elements) -> tuple:
    """Each element with every coordinate rounded to the nearest double."""
    return tuple(alg.element([float(c) for c in e.coords]) for e in elements)


# ---------------------------------------------------------------------------
# scalar f
# ---------------------------------------------------------------------------

BOX_ERROR = Fraction(4, 2**53)  # relative error of f_scalar inside the series box; f > 0 there


class TestScalarF:
    def test_origin(self):
        assert f_scalar(0, 0) == 0.5

    def test_axis_formula(self):
        for v in (0.5, 1.0, -2.0, 3.7):
            expected = (v * math.exp(v) - math.exp(v) + 1) / (v * (math.exp(v) - 1))
            assert abs(f_scalar(0.0, v) - expected) < 1e-14

    def test_value_at_one_minus_one(self):
        e = math.e
        expected = (e + 1 / e - 2) / (e - 1 / e)
        assert abs(f_scalar(1, -1) - expected) < 1e-15
        # cross-check against the exact series partial sums
        series_val = float(evaluate_exact(f_series(24), 1, -1))
        assert abs(series_val - expected) < 1e-9

    def test_value_at_one_minus_one_against_series_oracle(self):
        # an algebra whose eigen-scalars are exactly (1, -1): the composition
        # oracle then carries f(1, -1) as the coefficient of the bracket
        alg = uvc_model_algebra(1, -1, Fraction(3, 2))
        x, y = alg.basis_element(0), alg.basis_element(1)
        w = alg.bracket(x, y)
        z = bch_integral_series(alg, x, y, 12)
        extracted = float(minus(minus(z, x), y).coords[0] / w.coords[0])
        expected = (math.e + 1 / math.e - 2) / (math.e - 1 / math.e)
        # degree-12 truncation of f at |u| = |v| = 1 leaves a ~1e-6 tail
        assert abs(extracted - expected) < 1e-5

    def test_symmetry_bit_exact(self):
        rng = random.Random(0)
        for _ in range(200):
            u = rng.uniform(-4, 4)
            v = rng.uniform(-4, 4)
            assert f_scalar(u, v) == f_scalar(v, u)

    def test_matches_naive_away_from_singularities(self):
        rng = random.Random(1)
        checked = 0
        while checked < 200:
            u = rng.uniform(-4, 4)
            v = rng.uniform(-4, 4)
            if min(abs(u), abs(v), abs(u - v)) <= 0.1:
                continue
            naive = f_form_product(u, v)
            assert abs(f_scalar(u, v) - naive) < 1e-13 * abs(naive)
            checked += 1

    def test_matches_series_inside_crossover(self):
        # against the exact value of the degree-20 polynomial at the same doubles
        series = f_series(20)
        rng = random.Random(2)
        for _ in range(200):
            u = rng.uniform(-0.24, 0.24)
            v = rng.uniform(-0.24, 0.24)
            exact = evaluate_exact(series, Fraction(u), Fraction(v))
            got = f_scalar(u, v)
            if abs(u - v) < 0.25:
                assert abs(Fraction(got) - exact) <= BOX_ERROR * exact, (u, v)
            else:  # the closed formula, where the polynomial is still good to 1e-20
                assert abs(got - float(exact)) < 1e-13, (u, v)

    def test_box_matches_exact_value(self):
        # rounding of the box evaluation against f itself: the degree-40 series at
        # the exact binary values of u and v, whose truncation is below 1e-40 here
        rng = random.Random(5)
        points = [(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)) for _ in range(200)]
        for e in range(-12, -1):  # near the diagonal
            u = rng.uniform(-0.24, 0.24)
            points += [(u, u + 10.0**e), (u, u - 3 * 10.0**e)]
        for e in (-300, -100, -20, -8, -3):  # near an axis
            points += [(rng.uniform(-0.24, 0.24), s * 10.0**e) for s in (1.0, -1.0)]
        points += [(1e-300, 1e-300), (-1e-300, 2e-300), (5e-324, 0.0), (0.0, 0.0)]
        below = math.nextafter(0.25, 0.0)  # just inside the box, on each of its edges
        points += [(below, 0.0), (0.0, -below), (below, below), (-below, -below),
                   (below / 2, -below / 2), (below, 1e-12), (-1e-12, -below)]
        checked = 0
        for u, v in points:
            if max(abs(u), abs(v), abs(u - v)) < 0.25:
                exact = evaluate_exact(f_series(40), Fraction(u), Fraction(v))
                got = f_scalar(u, v)
                assert abs(Fraction(got) - exact) <= BOX_ERROR * exact, (u, v, got)
                checked += 1
        assert checked > 150

    def test_diagonal(self):
        for t in (0.5, -1.5, 3.0):
            expected = (math.expm1(t) - t) / t**2
            assert abs(f_scalar(t, t) - expected) < 1e-14

    def test_near_diagonal_band(self):
        # compare against the naive form evaluated in higher precision
        import mpmath
        with mpmath.workdps(60):
            u, v = mpmath.mpf(2.0), mpmath.mpf(2.0) + mpmath.mpf(1e-5)
            ref = float(((u - v) * mpmath.e**(u + v) - (u * mpmath.e**u - v * mpmath.e**v))
                        / (u * v * (mpmath.e**u - mpmath.e**v)))
        got = f_scalar(2.0, 2.0 + 1e-5)
        assert abs(got - ref) < 1e-13 * abs(ref)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            f_scalar(800.0, 799.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            f_scalar(float("nan"), 1.0)

    @pytest.mark.parametrize("u, v, expected", [
        (1e308, -1e308, 1e-308),            # u - v overflows
        (-1e308, -1e308, 1e-308),
        (1e308, 5.0, math.expm1(5.0) / 5.0),  # phi(-v)/phi(u - v) overflows
        (800.0, 0.0, 0.99875),
        (800.0, -900.0, 1 / 900),
    ])
    def test_extremes(self, u, v, expected):
        # each expected value is f to far below 1e-16 relative; 1e-323 absorbs subnormals
        for got in (f_scalar(u, v), f_scalar(v, u)):
            assert abs(got - expected) <= 1e-15 * expected + 1e-323

    @pytest.mark.parametrize("u, v", [(709.9, 710.0), (300.0, 299.9999), (40.0, 45.0),
                                      (-745.0, -746.0), (722.0, 722.0)])
    def test_fits_where_exp_overflows_or_the_quotient_cancels(self, u, v):
        ref = _f_reference(u, v)
        assert abs(f_scalar(u, v) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("u, v", [(730.0, 731.0), (724.0, 724.0), (1e308, 1e308),
                                      (1500.0, 1e308)])
    def test_overflow_only_where_f_overflows(self, u, v):
        if v < 1e300:
            assert _f_reference(u, v) > sys.float_info.max
        for a, b in ((u, v), (v, u)):
            with pytest.raises(OverflowError, match="exceeds double-precision"):
                f_scalar(a, b)

    def test_box_is_the_series_bit_for_bit(self):
        series = f_series(20)
        rng = random.Random(4)
        for _ in range(300):
            u, v = rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)
            if abs(u - v) < 0.25:
                assert f_scalar(u, v) == series.evaluate(max(u, v), min(u, v))

    def test_three_forms_agree(self):
        rng = random.Random(3)
        checked = 0
        while checked < 100:
            u = rng.uniform(-3, 3)
            v = rng.uniform(-3, 3)
            if min(abs(u), abs(v), abs(u - v)) <= 0.1:
                continue
            vals = (f_form_product(u, v), f_form_negexp(u, v), f_form_quotient(u, v))
            spread = max(vals) - min(vals)
            assert spread < 1e-12 * abs(vals[0])
            checked += 1


def _f_reference(u: float, v: float, extra_digits: int = 0):
    """f(u, v) from its defining quotient, in mpmath.  The quotient's terms grow like
    e^max(|u|, |v|), and it loses digits near the axes and (twice) near the diagonal;
    the working precision covers both, and a run at 20 more digits confirms the value."""
    import mpmath

    digits = 30 + extra_digits + int(max(abs(u), abs(v)) / 2.3)
    for t in (u, v, u - v, u - v, u - v):
        if 0.0 < abs(t) < 1.0:
            digits += int(-math.log10(abs(t))) + 1
    with mpmath.workdps(digits):
        mu, mv = mpmath.mpf(u), mpmath.mpf(v)
        if u == v:
            value = (mpmath.expm1(mu) - mu) / (mu * mu) if u else mpmath.mpf(1) / 2
        elif u == 0.0 or v == 0.0:
            t = mu if v == 0.0 else mv
            value = (t * mpmath.exp(t) - mpmath.exp(t) + 1) / (t * mpmath.expm1(t))
        else:
            num = (mu - mv) * mpmath.exp(mu + mv) - (mu * mpmath.exp(mu) - mv * mpmath.exp(mv))
            value = num / (mu * mv * (mpmath.exp(mu) - mpmath.exp(mv)))
    if not extra_digits:
        confirm = _f_reference(u, v, extra_digits=20)
        assert abs(value - confirm) <= mpmath.mpf(10) ** -25 * abs(confirm), (u, v)
    return value


F_SIDE = 2000.0  # |u|, |v| cap: the reference works at about |u| / 2.3 digits
_coord = st.floats(-F_SIDE, F_SIDE)
_signs = st.sampled_from((-1.0, 1.0))
f_pairs = st.one_of(
    st.tuples(_coord, _coord),
    # near the diagonal
    st.builds(lambda u, s, e: (u, u + s * 10.0 ** e), _coord, _signs, st.floats(-15, 0)),
    # near an axis
    st.builds(lambda u, s, e: (u, s * 10.0 ** e), _coord, _signs, st.floats(-300, 0)),
    # both above ln(DBL_MAX) = 709.78, where e^min(u, v) overflows and f may not
    st.tuples(st.floats(700.0, 760.0), st.floats(700.0, 760.0)),
)


@settings(max_examples=300, deadline=None)
@given(f_pairs)
@example((1e-300, 1.5))
@example((709.9, 710.0))
@example((-2000.0, 2000.0))
def test_f_scalar_matches_reference_over_the_double_range(pair):
    u, v = pair
    ref = _f_reference(u, v)
    if abs(ref) > sys.float_info.max:
        with pytest.raises(OverflowError):
            f_scalar(u, v)
        return
    got = f_scalar(u, v)
    assert got == f_scalar(v, u)
    assert abs(got - ref) <= 1e-12 * abs(ref), (u, v, got, float(ref))


# ---------------------------------------------------------------------------
# exact series
# ---------------------------------------------------------------------------

# frozen low-order coefficients of f
EXPECTED_COEFFS = {
    (0, 0): Fraction(1, 2),
    (1, 0): Fraction(1, 12), (0, 1): Fraction(1, 12),
    (2, 0): Fraction(0), (1, 1): Fraction(1, 24), (0, 2): Fraction(0),
    (3, 0): Fraction(-1, 720), (2, 1): Fraction(1, 180),
    (1, 2): Fraction(1, 180), (0, 3): Fraction(-1, 720),
    (4, 0): Fraction(0), (3, 1): Fraction(-1, 1440), (2, 2): Fraction(1, 360),
    (1, 3): Fraction(-1, 1440), (0, 4): Fraction(0),
}


def _axis_taylor(n_terms: int) -> list:
    """Independent univariate Taylor series of (t e^t - e^t + 1)/(t(e^t - 1)).

    Both numerator and denominator start at t^2; after cancelling t^2 the
    denominator has constant term 1, so plain power-series long division
    applies.  This derivation shares nothing with the bivariate route.
    """
    fact = [1]
    for k in range(1, n_terms + 4):
        fact.append(fact[-1] * k)
    num = [Fraction(1, fact[j + 1]) - Fraction(1, fact[j + 2]) for j in range(n_terms + 1)]
    den = [Fraction(1, fact[j + 1]) for j in range(n_terms + 1)]
    quot = []
    for j in range(n_terms + 1):
        acc = num[j]
        for i, q in enumerate(quot):
            acc -= q * den[j - i]
        quot.append(acc / den[0])
    return quot


class TestSeries:
    def test_low_order_coefficients(self):
        series = f_series(4)
        for key, value in EXPECTED_COEFFS.items():
            assert series.coefficients[key] == value, key
        assert set(series.coefficients) == {(i, j) for i in range(5) for j in range(5)
                                            if i + j <= 4}

    def test_symmetric(self):
        series = f_series(9)
        for (i, j), c in series.coefficients.items():
            assert series.coefficients[j, i] == c

    def test_axis_matches_univariate_oracle(self):
        series = f_series(8)
        axis = _axis_taylor(8)
        for k in range(9):
            assert series.coefficients[k, 0] == axis[k], k

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            f_series(-1)

    def test_evaluate_exact_takes_exact_rationals_only(self):
        # ints, Fractions and "p/q" strings are exact; floats go to evaluate()
        series = f_series(12)
        assert evaluate_exact(series, "1/3", -2) == evaluate_exact(series, Fraction(1, 3),
                                                                         Fraction(-2))
        with pytest.raises(TypeError, match="exact rational"):
            evaluate_exact(series, 0.5, Fraction(1, 4))

    def test_matches_long_division(self):
        # every table equals plain O(d^4) long division of the two series,
        # coefficient for coefficient and zeros included
        reference = _long_division_table(16)
        for (i, j), c in reference.items():
            assert reference[j, i] == c
        for d in range(17):
            series = f_series(d)
            assert series.max_degree == d
            assert series.coefficients == {k: c for k, c in reference.items()
                                           if k[0] + k[1] <= d}, d

    def test_horner_rows_on_every_table_shape(self):
        # odd and even degrees, 0 and 1 included; a table cut from a larger one
        # builds its own rows
        rng = random.Random(6)
        points = [(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)) for _ in range(40)]
        points += [(0.0, 0.0), (0.2, 0.2), (0.1, -1e-300)]
        big = f_series(40)
        for d in range(10):
            series, cut = f_series(d), _truncated(big, d)
            assert [len(row) for row in series._horner_rows] == [d - 2 * b + 1 for b in
                                                                 range(d // 2, -1, -1)]
            for u, v in points:
                got = series.evaluate(u, v)
                assert got == series.evaluate(v, u) == cut.evaluate(u, v), (d, u, v)
                exact = evaluate_exact(series, Fraction(u), Fraction(v))
                assert abs(Fraction(got) - exact) <= BOX_ERROR * abs(exact), (d, u, v)

    def test_tables_build_no_fraction_until_read(self, monkeypatch, fraction_builds):
        # f_series hands f's integer rows to the series, and the box of f_scalar
        # evaluates from them: the Fraction table is built only when read
        box = f_series(closed_form.SERIES_DEGREE).evaluate(0.125, -0.0625)
        fresh = functools.lru_cache(maxsize=None)(closed_form.f_series.__wrapped__)
        monkeypatch.setattr(closed_form, "f_series", fresh)
        fraction_builds.clear()
        series = fresh(23)
        assert f_scalar(0.125, -0.0625) == box
        assert fraction_builds == []
        assert series.rows == closed_form._f_rows(23) and series.max_degree == 23
        assert len(series.coefficients) == 24 * 25 // 2 and fraction_builds

    @pytest.mark.parametrize("rows", [(((1,), 1), ((1, 2, 3), 1)), (((1, 2), 1),),
                                      (((1,), 1), ((1,), 1))], ids=["long", "first", "short"])
    def test_rows_of_the_wrong_length_rejected(self, rows):
        # a row m of other than m + 1 entries has no place in the table
        with pytest.raises(ValueError, match="m \\+ 1"):
            BivariateSeries(rows)

    def test_float_evaluation_rejects_an_asymmetric_table(self):
        lopsided = BivariateSeries((((1,), 1), ((1, 0), 1)))
        assert evaluate_exact(lopsided, Fraction(1, 2), 0) == Fraction(3, 2)
        with pytest.raises(ValueError, match="symmetric"):
            lopsided.evaluate(0.5, 0.0)

    def test_larger_tables_truncate_to_smaller_ones(self):
        # degree s of the table does not depend on how far the table goes
        big = f_series(40)
        for (i, j), c in big.coefficients.items():
            assert big.coefficients[j, i] == c
        for d in range(34):
            assert f_series(d) == _truncated(f_series(d + 7), d), d

    def test_concurrent_growth_gives_the_single_thread_rows(self, monkeypatch):
        # four threads grow the one table of f from empty to different degrees at
        # once; each growth step is one assignment, so every reader gets the rows
        # one thread alone computes
        monkeypatch.setattr(closed_form, "_F_TABLE", ((), (), 1))
        expected = closed_form._f_rows(48)
        degrees = (48, 20, 33, 41)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(closed_form, "_F_TABLE", ((), (), 1))
                barrier = threading.Barrier(len(degrees))
                got = [None] * len(degrees)

                def run(i, degree):
                    barrier.wait(timeout=30)
                    got[i] = closed_form._f_rows(degree)

                threads = [threading.Thread(target=run, args=item)
                           for item in enumerate(degrees)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for degree, rows in zip(degrees, got):
                    assert rows == expected[:degree + 1], degree
                held = closed_form._F_TABLE[0]
                assert held == expected[:len(held)]
                assert closed_form._f_rows(48) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_growth_order_does_not_change_the_tables(self, monkeypatch):
        # from an empty table, reading 48 then 20 or 20 then 48 gives the same
        # f_series(d) for every d <= 48 as the cached tables
        build = closed_form.f_series.__wrapped__  # f_series without its cache
        tables = []
        for order in ((48, 20), (20, 48)):
            monkeypatch.setattr(closed_form, "_F_TABLE", ((), (), 1))
            for degree in order:
                build(degree)
            tables.append([build(d) for d in range(49)])
        assert tables[0] == tables[1] == [f_series(d) for d in range(49)]

    def test_series_40_stdout_pinned(self, capsys):
        # sha256 of `bchkit f --series 40` stdout, captured while the table
        # was still built by Fraction long division
        assert main(["f", "--series", "40"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "ef3f73cf9a0791c0610b5ab031bad309e5e3999f69e419d5489a1590e5d3f516"


def _truncated(series: BivariateSeries, d: int) -> BivariateSeries:
    """The table of series cut to total degree d."""
    return BivariateSeries(series.rows[:d + 1])


def _long_division_table(d: int) -> dict:
    """c_ij of f through total degree d by plain bivariate long division.

    Numerator n_ij = (-1)^(s+1)/(s+2)! and divisor e_ij = (-1)^(s+1)/(s+1)!
    with s = i + j (see closed_form._f_rows); no prefix sums, no
    symmetry, no integer scaling.
    """
    def num(s):
        return Fraction((-1) ** (s + 1), math.factorial(s + 2))

    def den(s):
        return Fraction((-1) ** (s + 1), math.factorial(s + 1))

    coeffs = {}
    for s in range(d + 1):
        for i in range(s, -1, -1):
            j = s - i
            acc = num(s)
            for k in range(i + 1):
                for l in range(j + 1):
                    if (k, l) != (i, j):
                        acc -= coeffs[k, l] * den(i - k + j - l)
            coeffs[i, j] = acc / den(0)
    return coeffs


# ---------------------------------------------------------------------------
# terminating and scalar closed forms
# ---------------------------------------------------------------------------

class TestSpecial:
    def test_abelian_sum(self):
        alg = abelian_algebra(3)
        x = alg.element([1, 2, 3])
        y = alg.element([4, 5, 6])
        res = bch_closed_form(alg, x, y)
        assert res.z.coords == (5, 7, 9) and res.exact and res.method == "Sum"

    def test_heisenberg_central(self):
        heis = heisenberg_algebra()
        res = bch_closed_form(heis, heis.basis_element(0), heis.basis_element(1))
        assert res.z.coords == (1, 1, Fraction(1, 2))
        assert res.exact and res.method == "Central"

    def test_zero_identity(self):
        heis = heisenberg_algebra()
        y = heis.element([2, "1/3", 1])
        res = bch_closed_form(heis, heis.element([0] * heis.dim), y)
        assert res.z.coords == y.coords and res.method == "Sum"

    def test_mismatch_detected(self):
        # the Commuting certificate of (x, 2x) does not pass for (x, y), which does
        # not commute: its Sum would drop the bracket
        heis = heisenberg_algebra()
        x, y = heis.basis_element(0), heis.basis_element(1)
        claim = classify_pair(heis, x, times(2, x))
        assert claim.tag == CaseTag.COMMUTING
        with pytest.raises(ClassificationMismatch):
            bch_closed_form(heis, x, y, classification=claim)


class TestEigenpair:
    def test_affine_shift_formula(self):
        aff = affine_algebra()
        x, y = aff.basis_element(0), aff.basis_element(1)
        res = bch_closed_form(aff, x, y)
        assert (res.method, res.u, res.v) == ("ScalarF", 0, 1)
        expected = 1.0 / (1.0 - math.exp(-1.0))
        assert abs(float(res.z.coords[1]) - expected) < 1e-14
        assert float(res.z.coords[0]) == 1.0

    def test_uv_zero_degenerates_to_central(self, borel):
        # L_X w = L_Y w = 0 with w = E_02 not central in b(3): f(0, 0) = 1/2, exactly
        b3, index = borel(3)
        x, y = (LieElement(int(k == index[e]) for k in range(b3.dim)) for e in ((0, 1), (1, 2)))
        res = bch_closed_form(b3, x, y)
        assert (res.method, res.u, res.v, res.exact) == ("ScalarF", 0, 0, True)
        assert res.z == plus(x, y, times(Fraction(1, 2), b3.bracket(x, y)))

    @pytest.mark.parametrize("u, v", [(5, 7), (1000, 1000)])
    def test_commuting_pair_evaluates_no_f(self, u, v):
        # w = 0 leaves z = x + y exact, however large x and y are: f is not
        # evaluated, where f(1000, 1000) would overflow
        heis = heisenberg_algebra()
        x, y = times(u, heis.basis_element(0)), times(v, heis.basis_element(0))
        res = bch_closed_form(heis, x, y)
        assert (res.method, res.exact, res.residual_bound) == ("Sum", True, None)
        assert res.z.coords == (u + v, 0, 0)
        assert all(type(c) is Fraction for c in res.z.coords)

    def test_float_eigenpair_is_checked_exactly(self):
        # 0.7 is the binary rational it holds, so v = 0.7 is the eigenvalue,
        # not the float one ulp away, however small the gap
        aff = affine_algebra()
        x, y = aff.element([0.7, 0.0]), aff.element([0.0, 0.3])
        cls = classify_pair(aff, x, y)
        assert (cls.u, cls.v) == (0, Fraction(0.7)) and cls.v != math.nextafter(0.7, 1.0)
        res = bch_closed_form(aff, x, y, classification=cls)
        assert not res.exact and all(type(c) is float for c in res.z.coords)

    def test_uvc_model_against_oracle(self):
        rng = random.Random(7)
        for _ in range(5):
            params = [Fraction(rng.randint(-2, 2), 8) for _ in range(2)]
            c = Fraction(rng.randint(-8, 8), 4)
            if params[0] == 0 and params[1] == 0:
                continue
            alg = uvc_model_algebra(params[0], params[1], c)
            x = families.random_element(rng, 3)
            y = families.random_element(rng, 3)
            cls = classify_pair(alg, x, y)
            assert cls.tag in (CaseTag.SIMULTANEOUS_EIGENVECTOR, CaseTag.CENTRAL_BRACKET,
                               CaseTag.COMMUTING)
            z = bch_closed_form(alg, x, y, classification=cls).z
            ref = bch_integral_series(alg, x, y, 8)
            assert max(abs(float(a) - float(b))
                       for a, b in zip(z.coords, ref.coords)) < 1e-8


class TestRankOne:
    """The paper's rank-one composition z = x + y + f(u, v) (omega_ab x^a y^b) n,
    with u = -y.omega.n and v = x.omega.n, through classify_pair and bch_closed_form."""

    def test_heisenberg_exact(self):
        heis = heisenberg_algebra()
        x = heis.element(["1/2", "1/3", "1/5"])
        y = heis.element(["-1/4", "2/3", "0"])
        res = bch_closed_form(heis, x, y)
        w = heis.bracket(x, y)
        assert res.exact
        assert res.z.coords == plus(x, y, times(Fraction(1, 2), w)).coords

    def test_routing_matches_eigenpair(self):
        # classify_pair's eigenpair is the factorization's (u, v), and z is the
        # rank-one formula with f(u, v) evaluated once
        rng = random.Random(8)
        alg = families.random_rank_one(rng, 4, nilpotent=False)
        fact = factorize_rank_one(alg)
        x = families.random_element(rng, 4)
        y = families.random_element(rng, 4)
        cls = classify_pair(alg, x, y)
        u, v = rank_one_uv(fact, x, y)
        assert (cls.tag, cls.u, cls.v) == (CaseTag.SIMULTANEOUS_EIGENVECTOR, u, v)
        res = bch_closed_form(alg, x, y, classification=cls)
        formula = plus(x, y, times(f_scalar(u, v), times(omega_contract(fact, x, y), fact.n)))
        assert max(abs(float(a) - float(b))
                   for a, b in zip(res.z.coords, formula.coords)) < 1e-15

    def test_kernel_gives_sum(self):
        aff = affine_algebra()
        y = aff.basis_element(1)  # omega kills the derived direction pair
        res = bch_closed_form(aff, y, times(Fraction(3), y))
        assert res.z.coords == (0, 4)

    def test_uvc_model_routes_through_factorization(self):
        # the dim-3 model with [X,Y] = uX + vY + cI is itself rank one, and
        # the factorization's (u, v) is the certified scalar pair
        u, v = Fraction(1, 2), Fraction(-1, 3)
        alg = uvc_model_algebra(u, v, 2)
        fact = factorize_rank_one(alg)
        x, y = alg.basis_element(0), alg.basis_element(1)
        assert rank_one_uv(fact, x, y) == (u, v)
        res = bch_closed_form(alg, x, y)
        assert (res.method, res.u, res.v) == ("ScalarF", u, v)
        formula = plus(x, y, times(f_scalar(u, v), times(omega_contract(fact, x, y), fact.n)))
        assert max(abs(float(a) - float(b))
                   for a, b in zip(res.z.coords, formula.coords)) < 1e-15

    def test_exact_reference_matches_oracle_exactly(self):
        # truncating f to total degree D-2 reproduces the series oracle at D
        rng = random.Random(9)
        for _ in range(3):
            alg = families.random_rank_one(rng, 4, nilpotent=False)
            fact = factorize_rank_one(alg)
            x = families.random_element(rng, 4)
            y = families.random_element(rng, 4)
            for degree in (4, 6, 8):
                u, v = rank_one_uv(fact, x, y)
                c_xy = omega_contract(fact, x, y)
                partial = evaluate_exact(f_series(degree - 2), u, v)
                lhs = plus(x, y, times(c_xy * partial, fact.n))
                rhs = bch_integral_series(alg, x, y, degree)
                assert lhs.coords == rhs.coords


class TestOplus:
    """The paper's generalized addition x (+) y, the coordinates of ln(e^X e^Y) on a
    rank-one algebra: bch_closed_form(...).z."""

    def test_identity(self):
        rng = random.Random(10)
        alg = families.random_rank_one(rng, 4)
        x = families.random_element(rng, 4)
        zero = alg.element([0] * alg.dim)
        assert bch_closed_form(alg, x, zero).z.coords == x.coords
        assert bch_closed_form(alg, zero, x).z.coords == x.coords

    def test_heisenberg_form(self):
        heis = heisenberg_algebra()
        fact = factorize_rank_one(heis)
        x = heis.element([1, 2, 3])
        y = heis.element([4, 5, 6])
        c_xy = omega_contract(fact, x, y)
        expected = plus(x, y, times(c_xy * Fraction(1, 2), fact.n))
        assert bch_closed_form(heis, x, y).z.coords == expected.coords

    def test_associativity_numeric(self):
        rng = random.Random(11)
        for _ in range(5):
            alg = families.random_rank_one(rng, 4, nilpotent=False)
            xs = [families.random_element(rng, 4) for _ in range(3)]

            def oplus(a, b):
                return bch_closed_form(alg, a, b).z

            lhs = oplus(oplus(xs[0], xs[1]), xs[2])
            rhs = oplus(xs[0], oplus(xs[1], xs[2]))
            assert max(abs(float(a) - float(b))
                       for a, b in zip(lhs.coords, rhs.coords)) < 1e-10


# ---------------------------------------------------------------------------
# operator form
# ---------------------------------------------------------------------------

class TestOperator:
    def test_heisenberg_terminates_exact(self, operator_form):
        heis = heisenberg_algebra()
        x, y = heis.basis_element(0), heis.basis_element(1)
        ok, _ = centralized_closure(heis, x, y)
        assert ok
        res = operator_form(heis, x, y)
        assert res.exact and res.degree == 0
        assert res.z == bch_closed_form(heis, x, y).z == LieElement((1, 1, Fraction(1, 2)))

    def test_matches_scalar_on_eigen_instances(self, operator_form):
        rng = random.Random(12)
        for _ in range(5):
            alg = families.random_rank_one(rng, 4, nilpotent=False)
            x = families.random_element(rng, 4)
            y = families.random_element(rng, 4)
            cls = classify_pair(alg, x, y)
            if cls.tag != CaseTag.SIMULTANEOUS_EIGENVECTOR:
                continue
            ok, _ = centralized_closure(alg, x, y)
            assert ok
            r_op = operator_form(alg, x, y, 1e-12)
            r_sc = bch_closed_form(alg, x, y, classification=cls)
            assert max(abs(float(a) - float(b))
                       for a, b in zip(r_op.z.coords, r_sc.z.coords)) < 1e-10

    def test_two_scale_against_oracle(self):
        alg = two_scale_algebra()
        x = alg.element(["1/4", "1/2", "0", "0"])
        y = alg.element(["0", "0", "1/4", "1/4"])
        cls = classify_pair(alg, x, y)
        assert cls.tag == CaseTag.OPERATOR_COMMUTING
        res = bch_closed_form(alg, x, y, 1e-12, classification=cls)
        ref = bch_integral_series(alg, x, y, 10)
        assert max(abs(float(a) - float(b))
                   for a, b in zip(res.z.coords, ref.coords)) < 1e-10
        assert not res.exact and res.residual_bound < 1e-12

    @pytest.mark.parametrize("xs, ys", [
        (["1/2", "2/3", 0], [0, "3/5", "-1/3"]),
        (["-1/3", "5/7", 0], [0, "7/3", "1/9"]),
    ])
    def test_sum_of_the_exact_parts(self, xs, ys):
        # z is x + y + C_2 + ... + C_(degree+2) of closed_form_terms, summed
        # exactly and rounded, up to the rounding of each part and of the sum; on
        # e(2), where L_X rotates S, the series neither terminates nor splits
        alg, _ = euclidean_plane()
        x, y = alg.element(xs), alg.element(ys)
        cls = classify_pair(alg, x, y)
        assert cls.tag == CaseTag.OPERATOR_COMMUTING
        res = bch_closed_form(alg, x, y, classification=cls)
        assert not res.exact and res.degree > 2
        parts = closed_form_terms(cls, res.degree + 2)
        exact = plus(*parts)
        ulp = Fraction(math.ulp(res.z.sup_norm()))
        assert max(abs(e - Fraction(z)) for e, z in zip(exact.coords, res.z.coords)) <= 4 * ulp
        # float inputs run through the same walk in floats
        res_float = bch_closed_form(alg, *_floats(alg, x, y))
        assert res_float.degree == res.degree and not res_float.exact
        assert max(abs(Fraction(a) - Fraction(b))
                   for a, b in zip(res_float.z.coords, res.z.coords)) <= 4 * ulp

    def test_float_input_past_the_double_range_of_the_walk(self):
        # e(2) with structure constants 1/10^4: the part denominators
        # den^(2m) q_m pass 1e308 before degree 39, where float x, y raised
        # OverflowError; read as binary rationals they take the exact input's walk
        alg, _ = euclidean_plane(Fraction(1, 10**4))
        x, y = alg.element([3 * 10**4, 0, 0]), alg.element([0, 1, 2])
        cls = classify_pair(alg, x, y)
        res = bch_closed_form(alg, x, y, 1e-10, classification=cls)
        assert res.degree == 39
        res_float = bch_closed_form(alg, *_floats(alg, x, y), 1e-10)
        assert not res_float.exact
        assert (res_float.z, res_float.degree, res_float.residual_bound) == \
            (res.z, res.degree, res.residual_bound)

    def test_nilpotent_family_exact(self):
        rng = random.Random(13)
        alg = families.random_derived_abelian(rng, 2, 3, kind="nilp")
        x = families.random_element(rng, alg.dim)
        y = families.random_element(rng, alg.dim)
        ok, _ = centralized_closure(alg, x, y)
        assert ok
        res = bch_closed_form(alg, x, y)
        assert res.exact
        # nilpotent algebra: high-degree truncation is the exact answer
        ref = bch_integral_series(alg, x, y, alg.dim + 4)
        assert res.z.coords == ref.coords

    def test_terminating_form_builds_no_rref(self, monkeypatch):
        # a terminating series needs only the edges of L_X and L_Y from w, told
        # apart on the pivots of [g,g]'s integer echelon: no Fraction RREF of S
        # or of [g,g] is built
        rng = random.Random(13)
        alg = families.random_derived_abelian(rng, 2, 3, kind="nilp")
        x, y = (families.random_element(rng, alg.dim) for _ in range(2))
        expected = bch_closed_form(alg, x, y)
        assert (expected.method, expected.exact) == ("OperatorF", True)

        def no_rref(self):
            raise AssertionError("Echelon.subspace called")

        monkeypatch.setattr(algebra.Echelon, "subspace", no_rref)
        assert bch_closed_form(alg, x, y) == expected

    def test_non_terminating_form_builds_no_rref(self, monkeypatch):
        # the tail bound's restricted norms come from the integer echelon rows of
        # S that the shell sum grows: no Fraction RREF of S is built, and z and
        # degree stay pinned
        alg, _ = euclidean_plane()
        pinned = [
            (alg, alg.element(["1/2", 0, 0]), alg.element([0, 1, 0]), 9,
             (0.5, 0.9790793411616149, 0.25)),
            (alg, alg.element([3, 0, 0]), alg.element([0, "1/2", "1/4"]), 37,
             (3.0, -0.3218138667728243, 0.7765930666135876)),
        ]

        def no_rref(self):
            raise AssertionError("Echelon.subspace called")

        monkeypatch.setattr(algebra.Echelon, "subspace", no_rref)
        for alg, x, y, degree, z in pinned:
            res = bch_closed_form(alg, x, y)
            assert (res.method, res.exact) == ("OperatorF", False)
            assert (res.z.coords, res.degree) == (z, degree)

    def test_nonconvergence_reported(self):
        alg, _ = euclidean_plane()
        x = alg.element([4, 0, 0])  # restricted adjoint norm 4 > pi
        y = alg.element([0, 1, 0])
        cls = classify_pair(alg, x, y)
        assert cls.tag == CaseTag.OPERATOR_COMMUTING
        with pytest.raises(NonConvergence) as info:
            bch_closed_form(alg, x, y, target_tolerance=1e-10, classification=cls)
        assert (info.value.spectral_bound, info.value.achieved_bound) == (4.0, None)

    def test_table_grows_past_the_scalar_degree(self, monkeypatch):
        # the tail bound first drops below the tolerance at 41: the sum reads
        # row m at shell m, so the table of f grows from empty to degree 41 and
        # no further, and f_series is never called
        alg, rep = euclidean_plane()
        x = alg.element(["31/10", 0, 0])
        y = alg.element([0, 1, 0])
        monkeypatch.setattr(closed_form, "_F_TABLE", ((), (), 1))
        degrees = []
        rows = closed_form._f_rows
        monkeypatch.setattr(closed_form, "_f_rows", lambda d: degrees.append(d) or rows(d))
        monkeypatch.setattr(closed_form, "f_series", None)
        res = bch_closed_form(alg, x, y)
        assert degrees == list(range(42)) and res.degree == 41
        assert len(closed_form._F_TABLE[0]) == 42
        ref = matrix_bch(rep, x, y)
        error = max(abs(a - b) for a, b in zip(res.z.coords, ref.coords))
        assert error < min(res.residual_bound, 1e-13 * max(abs(c) for c in ref.coords))

    def test_nonconvergence_after_the_degree_cap(self, tmp_path, capsys):
        # norm 3.1 < pi passes the radius check, but at degree 48 the best
        # tail bound is still 5.5e-10, above the default tolerance 1e-10
        alg, _ = euclidean_plane()
        x = alg.element(["31/10", 0, 0])
        y = alg.element([0, 10**3, 0])
        with pytest.raises(NonConvergence) as info:
            bch_closed_form(alg, x, y)
        assert info.value.spectral_bound == pytest.approx(3.1)
        assert info.value.achieved_bound == pytest.approx(5.51e-10, rel=0.01)
        (tmp_path / "e2.json").write_text(json.dumps(alg.to_json_dict()))
        for name, elem in (("x", x), ("y", y)):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"coords": [str(c) for c in elem.coords]}))
        code = main(["bch", "--algebra", str(tmp_path / "e2.json"), "--tolerance", "1e-10",
                     "--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json")])
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert err.startswith("computation failed") and "best tail bound 5.51e-10" in err

    def test_degree_cap_message_inside_the_radius(self, tmp_path, capsys):
        # restricted norm 1 is inside the radius pi, but |w| near 1e300 keeps the
        # absolute tail bound far above the tolerance at degree 48
        alg, _ = euclidean_plane()
        (tmp_path / "e2.json").write_text(json.dumps(alg.to_json_dict()))
        for name, coords in (("x", [1.0, 0, 0]), ("y", [0, 1e300, 0])):
            (tmp_path / f"{name}.json").write_text(json.dumps({"coords": coords}))
        code = main(["bch", "--algebra", str(tmp_path / "e2.json"),
                     "--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json")])
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert err == ("computation failed: operator series missed the tolerance by degree 48: "
                       "restricted adjoint norm 1 is inside the radius pi, "
                       "best tail bound 2.89e+261\n")

    @pytest.mark.parametrize("xs, ys, lines", [
        ([4, 8, 0, 0], [0, 0, 1, 1], ((0, 8), (0, 4))),
        ([3, "31/10", 0, 0], [0, 0, 10**3, 2 * 10**3], ((0, Fraction(31, 10)), (0, 3))),
        (["1/2", "2/3", 0, 0], [0, 0, 10**12, 2 * 10**12],
         ((0, Fraction(2, 3)), (0, Fraction(1, 2)))),
    ])
    def test_split_evaluates_past_the_radius_and_the_degree_cap(self, xs, ys, lines):
        # two_scale pairs whose shell sum raised NonConvergence (restricted norm
        # 8 > pi; the degree cap at norm 3.1) or stopped at degree 23: L_X scales
        # B1 and B2 by x_0 and x_1 and L_Y is 0 on S, so w splits into two lines
        # with f evaluated once on each
        entry = catalog_entry("two_scale")
        x, y = entry.algebra.element(xs), entry.algebra.element(ys)
        res = bch_closed_form(entry.algebra, x, y)
        assert (res.method, res.exact, res.degree, res.lines) == ("OperatorF", False, None, lines)
        ref = matrix_bch(entry.rep, x, y)
        scale = max(abs(c) for c in ref.coords)
        assert max(abs(a - b) for a, b in zip(res.z.coords, ref.coords)) < 1e-14 * scale


def _borel_pairs(borel, rng, n: int = 4):
    """Constructed b(n) pairs with a closed form: diagonal x with one
    off-diagonal y, two diagonals, and a nilpotent pair E_i,i+1, E_i+1,i+2."""
    alg, index = borel(n)

    def element(values):
        return alg.element([values.get(k, 0) for k in range(alg.dim)])

    def coef():
        return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), 8)

    diag = [index[i, i] for i in range(n)]
    pairs = []
    for _ in range(2):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        pairs.append((element({d: coef() for d in diag}), element({index[i, j]: coef()})))
        pairs.append((element({d: coef() for d in diag}), element({d: coef() for d in diag})))
        i = rng.randrange(n - 2)
        pairs.append((element({index[i, i + 1]: coef()}),
                      element({index[i + 1, i + 2]: coef()})))
    return [(alg, x, y) for x, y in pairs]


class TestGradedTerms:
    DEGREE = 10

    def _instances(self, borel):
        rng = random.Random(2024)
        half = Fraction(1, 2)
        out = []
        for _ in range(4):
            algs = [families.random_rank_one(rng, rng.randint(3, 5)),
                    families.random_case1(rng, rng.randint(2, 5))[0],
                    families.random_derived_abelian(rng, 2, rng.randint(2, 3), kind="diag"),
                    families.random_derived_abelian(rng, 2, rng.randint(2, 3), kind="nilp")]
            for alg in algs:
                out.append((alg, families.random_element(rng, alg.dim, half),
                            families.random_element(rng, alg.dim, half)))
        for entry in builtin_catalog():
            out.extend((entry.algebra, x, y) for x, y, _ in entry.pairs)
        return out + _borel_pairs(borel, rng)

    def test_closed_form_parts_equal_series_parts(self, borel):
        tags = set()
        terminating = 0
        for alg, x, y in self._instances(borel):
            cls = classify_pair(alg, x, y)
            if cls.tag == CaseTag.NO_CLOSED_FORM:
                continue
            tags.add(cls.tag)
            closed = closed_form_terms(cls, self.DEGREE)
            assert closed == bch_series_terms(alg, x, y, self.DEGREE), (cls.tag, x, y)
            res = bch_closed_form(alg, x, y, classification=cls)
            if res.exact and (res.degree or 0) + 2 <= self.DEGREE:
                # terminating: C_n = 0 beyond n = degree + 2, and the sum is z
                assert res.z == plus(*closed)
                terminating += res.method == "OperatorF"
        assert tags == set(CaseTag) - {CaseTag.NO_CLOSED_FORM}
        assert terminating > 0

    def test_terms_are_graded(self):
        # C_n(e x, e y) = e^n C_n(x, y)
        alg = two_scale_algebra()
        x, y = alg.element(["1/4", "1/2", "0", "0"]), alg.element(["0", "0", "1/4", "1/4"])
        e = Fraction(1, 3)
        xe, ye = times(e, x), times(e, y)
        closed = closed_form_terms(classify_pair(alg, x, y), 6)
        scaled = closed_form_terms(classify_pair(alg, xe, ye), 6)
        for n, (c, ce) in enumerate(zip(closed, scaled), 1):
            assert ce == times(e**n, c)

    def test_terms_read_the_certificate(self, monkeypatch):
        # the integer forms of x, y and w come from the certificate: nothing
        # clears the pair or brackets it again
        certificates = [classify_pair(entry.algebra, x, y)
                        for entry in builtin_catalog() for x, y, _ in entry.pairs]
        expected = [bch_series_terms(c.algebra, c.x, c.y, 6) for c in certificates]

        def refused(*args):
            raise AssertionError("the pair was cleared again")

        for module, name in ((algebra, "clear_denominators"), (detect, "clear_denominators"),
                             (detect, "_pair_forms")):
            monkeypatch.setattr(module, name, refused)
        for cls, terms in zip(certificates, expected):
            if cls.tag != CaseTag.NO_CLOSED_FORM:
                assert closed_form_terms(cls, 6) == terms, cls.algebra

    def test_operator_terms_take_the_certificates_images(self, borel, monkeypatch):
        # an OperatorCommuting certificate holds L_X w and L_Y w, so its walk makes
        # two kernel calls fewer than the same walk from w, and gives the same C_n
        kernel, calls = StructureConstants.scaled_bracket, []
        monkeypatch.setattr(StructureConstants, "scaled_bracket",
                            lambda alg, a, b: calls.append(1) or kernel(alg, a, b))
        seen = 0
        for alg, x, y in self._instances(borel):
            cls = classify_pair(alg, x, y)
            if cls.tag != CaseTag.OPERATOR_COMMUTING:
                continue
            from_w = CaseClassification(cls.tag, alg, x, y, _integer_form=cls._integer_form)
            got = []
            for certificate in (cls, from_w):
                calls.clear()
                got.append((closed_form_terms(certificate, self.DEGREE), len(calls)))
            (terms, count), (walked, walked_count) = got
            assert terms == walked and count == walked_count - 2, (x, y)
            seen += 1
        assert seen


# ---------------------------------------------------------------------------
# m-delta construction
# ---------------------------------------------------------------------------

class TestCase1:
    def test_bracket_identity(self):
        rng = random.Random(14)
        for _ in range(5):
            dim = rng.randint(2, 5)
            m = [families.random_fraction(rng) for _ in range(dim)]
            alg, _ = case1_build(m)
            x = families.random_element(rng, dim)
            y = families.random_element(rng, dim)
            xm = sum(a * b for a, b in zip(x.coords, m))
            ym = sum(a * b for a, b in zip(y.coords, m))
            expected = times(Fraction(1, 2), minus(times(xm, y), times(ym, x)))
            assert alg.bracket(x, y).coords == expected.coords

    def test_zero_m_abelian(self):
        alg, _ = case1_build([0, 0, 0])
        assert alg.derived_subalgebra().dim == 0

    def test_classifier_matches_map(self):
        rng = random.Random(15)
        for _ in range(5):
            alg, m, uvc_map = families.random_case1(rng, 4)
            x = families.random_element(rng, 4)
            y = families.random_element(rng, 4)
            u, v, c = uvc_map(Fraction(0), Fraction(0), x, y)
            cls = classify_pair(alg, x, y)
            if cls.tag == CaseTag.SIMULTANEOUS_EIGENVECTOR:
                assert (cls.u, cls.v) == (u, v)
            assert c == 0  # alpha = beta = 0

    def test_shift_scalars(self):
        alg, uvc_map = case1_build(["1/2", "-1/3"])
        x = alg.element([2, 1])
        y = alg.element([1, 3])
        xm = Fraction(2, 3)   # 2*(1/2) + 1*(-1/3)
        ym = Fraction(-1, 2)  # 1*(1/2) + 3*(-1/3)
        u, v, c = uvc_map(Fraction(1, 4), Fraction(5), x, y)
        assert u == -ym / 2 and v == xm / 2
        assert c == (xm * 5 - ym * Fraction(1, 4)) / 2


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_routes(self):
        heis = heisenberg_algebra()
        res = bch_closed_form(heis, heis.basis_element(0), heis.basis_element(1))
        assert res.method == "Central"
        aff = affine_algebra()
        res = bch_closed_form(aff, aff.basis_element(0), aff.basis_element(1))
        assert res.method == "ScalarF"
        two = two_scale_algebra()
        res = bch_closed_form(two, two.element([1, 2, 0, 0]), two.element([0, 0, 1, 1]))
        assert res.method == "OperatorF"

    def test_no_closed_form_raises(self):
        sl2 = sl2_algebra()
        with pytest.raises(NoClosedFormAvailable):
            bch_closed_form(sl2, sl2.basis_element(0), sl2.basis_element(1))

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected_for_every_form(self, tolerance):
        # a Central pair never reads the tolerance, an OperatorF pair takes its log
        heis = heisenberg_algebra()
        two = two_scale_algebra()
        x, y = two.element([1, 2, 0, 0]), two.element([0, 0, 1, 1])
        for alg, a, b in ((heis, heis.basis_element(0), heis.basis_element(1)), (two, x, y)):
            with pytest.raises(ValueError, match="target_tolerance"):
                bch_closed_form(alg, a, b, target_tolerance=tolerance)

    def test_int_coordinates_are_exact(self, borel):
        # exact means "no float coordinate": int coordinates give an exact,
        # all-Fraction z, for every exact form
        heis, ab = heisenberg_algebra(), abelian_algebra(3)
        b3, index = borel(3)
        e01, e12 = (LieElement(int(k == index[e]) for k in range(b3.dim))
                    for e in ((0, 1), (1, 2)))
        x, y = LieElement((1, 0, 0)), LieElement((0, 1, 0))
        a, b = LieElement((1, 2, 3)), LieElement((4, 5, 6))
        cases = [(ab, a, b, bch_closed_form(ab, a, b), "Sum"),
                 (heis, x, y, bch_closed_form(heis, x, y), "Central"),
                 (b3, e01, e12, bch_closed_form(b3, e01, e12), "ScalarF")]
        for alg, p, q, res, method in cases:
            assert (res.method, res.exact) == (method, True)
            assert all(type(c) is Fraction for c in res.z.coords), method
            assert res.z == bch_integral_series(alg, p, q, 8), method
        assert cases[1][3].z.coords == (1, 1, Fraction(1, 2))
        # one float coordinate makes z all float, its exact coordinates included
        res = bch_closed_form(heis, LieElement((1, 0.0, 0)), y)
        assert not res.exact and all(type(c) is float for c in res.z.coords)

    def test_identity_laws(self):
        rng = random.Random(16)
        for alg in (heisenberg_algebra(), affine_algebra(), two_scale_algebra()):
            x = families.random_element(rng, alg.dim)
            zero = alg.element([0] * alg.dim)
            z = bch_closed_form(alg, x, zero).z
            assert max(abs(float(a) - float(b))
                       for a, b in zip(z.coords, x.coords)) < 1e-15
            z = bch_closed_form(alg, zero, x).z
            assert max(abs(float(a) - float(b))
                       for a, b in zip(z.coords, x.coords)) < 1e-15


class TestPerPairWork:
    """classify_pair builds the certificate once and bch_closed_form reads it."""

    def test_catalog_pairs(self, monkeypatch):
        # [x, y] is one call of the bracket kernel on integer coordinates of x and
        # of y; those lists are told apart by the coordinate tuple they were made from
        entries = builtin_catalog()
        cleared, brackets = [], []
        clear = algebra.clear_denominators
        kernel = StructureConstants.scaled_bracket

        def counted_clear(coords):
            vec, scale = clear(coords)
            cleared.append((coords, vec))
            return vec, scale

        def counted_kernel(alg, a, b):
            brackets.append((a, b))
            return kernel(alg, a, b)

        assert not hasattr(closed_form, "clear_denominators")  # it clears nothing itself
        for module in (algebra, detect):
            monkeypatch.setattr(module, "clear_denominators", counted_clear)
        monkeypatch.setattr(StructureConstants, "scaled_bracket", counted_kernel)
        tags, seen = set(), set()
        for entry in entries:
            alg = entry.algebra
            (x, y, expected), = entry.pairs
            alg.derived_weights()  # the per-algebra facts, whose brackets are not the pair's
            alg._central_series()
            cleared.clear()
            brackets.clear()
            cls = classify_pair(alg, x, y)
            assert cls.tag == expected
            classified = len(cleared)
            of_x = [vec for coords, vec in cleared if coords is x.coords]
            of_y = [vec for coords, vec in cleared if coords is y.coords]
            if cls.tag != CaseTag.NO_CLOSED_FORM:
                bch_closed_form(alg, x, y, classification=cls)
                # every closed form reads the integer x, y and w that classify_pair made
                tags.add(cls.tag)
                (xs, _), (ys, _), _ = cls._integer_form
                assert xs is of_x[0] and ys is of_y[0], entry.name
                pair = (x.coords, y.coords, cls.w.coords)
                assert not [coords for coords, _ in cleared[classified:]
                            if any(coords is c for c in pair)], entry.name

            def made_from(vec, made):
                return any(vec is m for m in made)

            same_pair = [(a, b) for a, b in brackets
                         if (made_from(a, of_x) and made_from(b, of_y))
                         or (made_from(a, of_y) and made_from(b, of_x))]
            assert of_x and of_y, entry.name
            assert len(same_pair) == 1, entry.name
            # w meets the basis elements only once L_X w = L_Y w = 0: the central
            # test runs in full for CentralBracket and not at all past it
            units = [a for a, _ in brackets if made_from(a, alg.units)]
            if cls.tag == CaseTag.CENTRAL_BRACKET:
                assert sorted(map(alg.units.index, units)) == list(range(alg.dim)), entry.name
            elif cls.tag != CaseTag.COMMUTING:
                assert not units, entry.name
            seen.add(cls.tag)
        assert tags == set(CaseTag) - {CaseTag.NO_CLOSED_FORM}
        assert seen == set(CaseTag)

    def test_split_pairs_make_at_most_two_kernel_calls_per_dimension_of_s(self, monkeypatch):
        # the per-pair split, on algebras whose derived_weights() is None: a diag
        # algebra or two_scale summed with sl2 ([g,g] not abelian) or with a nilp
        # algebra (ad g neither diagonal nor nilpotent on [g,g]), each pair in the
        # first summand.  The edge of L_X from w to its first dependency, then L_Y's
        # edge from each L_X-eigenvector, one bracket where it is a joint line; where
        # L_X is 0 on S, L_Y's edge from w alone, taken once.  No restricted norm is
        # taken and no anti-diagonal is walked
        kernel, calls = StructureConstants.scaled_bracket, []
        monkeypatch.setattr(StructureConstants, "scaled_bracket",
                            lambda alg, a, b: calls.append(1) or kernel(alg, a, b))
        monkeypatch.setattr(closed_form, "_anti_diagonals", None)
        monkeypatch.setattr(closed_form, "_restricted_norm", None)
        rng = random.Random(18)
        others = [sl2_algebra(), families.random_derived_abelian(random.Random(1), 2, 3,
                                                                  kind="nilp")]
        summands = [(entry.algebra, entry.pairs) for entry in [catalog_entry("two_scale")]]
        for core in (3, 4, 4):
            alg = families.random_derived_abelian(rng, 2, core, kind="diag")
            summands.append((alg, [[families.random_element(rng, alg.dim) for _ in "xy"]
                                   for _ in range(4)]))
        pairs = []
        for k, (summand, summand_pairs) in enumerate(summands):
            alg, embed = direct_sum(summand, others[k % 2])
            assert alg.derived_weights() is None and not alg._central_series()[1]  # warm
            pairs += [(alg, embed(x), embed(y), summand, x, y) for x, y, *_ in summand_pairs]
        orbit, starts, subsplits = algebra._orbit, [], 0
        monkeypatch.setattr(algebra, "_orbit", lambda *a: starts.append(a[2]) or orbit(*a))
        counts = {False: [], True: []}  # the pair's kernel calls, by whether L_X is 0 on S
        for alg, x, y, summand, x1, y1 in pairs:
            cls = classify_pair(alg, x, y)
            if cls.tag != CaseTag.OPERATOR_COMMUTING:
                continue
            dim_s = cls.s_closure.dim  # its kernel calls come before the count
            ws = cls._integer_form[2][0]
            calls.clear()
            starts.clear()
            res = bch_closed_form(alg, x, y, classification=cls)
            assert len(calls) <= 2 * dim_s, (x, y)
            assert res.degree is None and len(res.lines) == dim_s
            subsplits += any(vec is not ws for vec in starts)
            counts[all(v == 0 for _, v in res.lines)].append(len(calls))
            # the summand alone reads the same lines, in the same order, off its
            # diagonal derived_weights(), and the same z to the bit
            alone = bch_closed_form(summand, x1, y1)
            assert res.lines == alone.lines and res.z.coords[:summand.dim] == alone.z.coords
        assert subsplits  # an eigenspace of L_X held several lines
        # no edge is taken twice: the counts where each edge was taken once
        assert (sum(counts[False]), counts[True]) == (62, [2])

    def test_warm_pairs_read_the_derived_weights(self, borel, monkeypatch):
        # on a warm algebra whose derived_weights() is diagonal, a split pair reads
        # its lines off the fact with no kernel call and no elimination; where g is
        # nilpotent, whether [g,g] is abelian (nilp) or not (n(5)), both edges are
        # bracketed to 0 with no elimination either, and z is the BCH series up to
        # the degree past the nilpotency class
        rng = random.Random(21)
        algebras = {"diag": families.random_derived_abelian(rng, 2, 4, kind="diag"),
                    "two_scale": two_scale_algebra(),
                    "nilp": families.random_derived_abelian(rng, 2, 4, kind="nilp"),
                    "n5": borel(5, strict=True)[0]}
        kernel, calls = StructureConstants.scaled_bracket, []
        least, relations = algebra._least_relation, []
        for name, alg in algebras.items():
            nilpotent = alg._central_series()[1]  # warm
            assert nilpotent == (name in ("nilp", "n5")), name
            assert (alg.derived_weights() is None) == nilpotent, name  # warm
            nil_class = alg.lower_central_series()[1].nil_class
            monkeypatch.setattr(StructureConstants, "scaled_bracket",
                                lambda alg, a, b: calls.append(1) or kernel(alg, a, b))
            for module in (algebra, closed_form):
                monkeypatch.setattr(module, "_least_relation",
                                    lambda *a: relations.append(1) or least(*a))
            seen = 0
            for _ in range(20):
                x, y = (families.random_element(rng, alg.dim) for _ in "xy")
                cls = classify_pair(alg, x, y)
                if cls.tag != CaseTag.OPERATOR_COMMUTING:
                    continue
                calls.clear()
                relations.clear()
                res = bch_closed_form(alg, x, y, classification=cls)
                assert not relations, (name, x, y)
                if nilpotent:
                    assert (res.exact, res.lines) == (True, None), (name, x, y)
                    assert res.z == plus(*bch_series_terms(alg, x, y, nil_class + 1)), (name, x, y)
                else:
                    assert (calls, res.degree) == ([], None) and res.lines, (name, x, y)
                seen += 1
            monkeypatch.undo()
            assert seen, name

    @staticmethod
    def _spread_pair():
        # a coordinate near 1e-300 clears x over a scale near 2^1000, so the kernel's
        # map for x has roots past 2^1000 and far apart (a root finder that gave up
        # there fell back to the shell sum: degree 6, residual_bound 6.0e-12)
        summand = families.random_derived_abelian(random.Random(3), 2, 4, "diag")
        rng = random.Random(5)
        x, y = (families.random_element(rng, 6) for _ in "xy")
        x = LieElement(x.coords[:2] + (Fraction(1e-300),) + x.coords[3:])
        return summand, x, y

    @staticmethod
    def _clustered_pair():
        # T0, T1, U0, ..., U5 with [T0, U_k] = U_k and [T1, U_k] = k U_k: x clears over
        # 250 to (1000, 1, 0, ...), whose kernel map has the six roots 1000, ..., 1005
        # on S (a float Newton phase could not tell them apart, and rounding a step
        # below 1/2 to 0 gave up: NonConvergence at the restricted norm 4.02)
        summand = validate({**{(0, 2 + k, 2 + k): 1 for k in range(6)},
                            **{(1, 2 + k, 2 + k): k for k in range(1, 6)}}, 8)
        x = summand.element([4, "4/1000"] + [0] * 6)
        y = summand.element([0, 0] + [Fraction(1, k) for k in range(2, 8)])
        return summand, x, y

    @pytest.mark.parametrize("case, lines", [("spread", 4), ("clustered", 6)],
                             ids=["spread", "clustered"])
    def test_split_takes_roots_past_two_to_the_thousand(self, case, lines):
        # the per-pair split, on the summand plus sl2, finds integer roots exactly
        # however large, far apart or close together they are: the lines and z,
        # to the bit, are those the summand alone reads off its derived_weights().
        # The spread pair is float input, the clustered one exact
        summand, x1, y1 = getattr(self, f"_{case}_pair")()
        alg, embed = direct_sum(summand, sl2_algebra())
        x, y = embed(x1), embed(y1)
        if case == "spread":
            (x, y), (x1, y1) = _floats(alg, x, y), _floats(summand, x1, y1)
        cls = classify_pair(alg, x, y)
        assert cls.tag == CaseTag.OPERATOR_COMMUTING and alg.derived_weights() is None
        res = bch_closed_form(alg, x, y, classification=cls)
        assert (res.method, res.degree, len(res.lines)) == ("OperatorF", None, lines)
        alone = bch_closed_form(summand, x1, y1)
        assert res.lines == alone.lines and res.z.coords[:summand.dim] == alone.z.coords
        if case == "spread":
            assert res.residual_bound < 1e-16
            exact = (LieElement(map(Fraction, e.coords)) for e in (x, y))
            ref = bch_integral_series(alg, *exact, 14)
            assert max(abs(float(a) - float(b))
                       for a, b in zip(res.z.coords, ref.coords)) < 1e-16

    def test_warm_operator_classification_makes_three_kernel_calls(self, monkeypatch):
        # on an algebra whose [g,g] is abelian, and whose fact is cached, an
        # OperatorCommuting pair costs w, L_X w and L_Y w and grows no closure
        rng = random.Random(13)
        algebras = {"nilp": families.random_derived_abelian(rng, 2, 3, kind="nilp"),
                    "diag": families.random_derived_abelian(rng, 2, 4, kind="diag"),
                    "two_scale": two_scale_algebra(), "e2": euclidean_plane()[0]}
        kernel, calls = StructureConstants.scaled_bracket, []
        insert, inserts = algebra.Echelon.insert, []
        for name, alg in algebras.items():
            assert alg.derived_echelon()[1], name  # warm: the fact is built here
            monkeypatch.setattr(StructureConstants, "scaled_bracket",
                                lambda alg, a, b: calls.append(1) or kernel(alg, a, b))
            monkeypatch.setattr(algebra.Echelon, "insert",
                                lambda ech, vec: inserts.append(1) or insert(ech, vec))
            seen = 0
            for _ in range(20):
                x, y = (families.random_element(rng, alg.dim) for _ in "xy")
                calls.clear()
                inserts.clear()
                cls = classify_pair(alg, x, y)
                if cls.tag == CaseTag.OPERATOR_COMMUTING:
                    assert (len(calls), len(inserts)) == (3, 0), (name, x, y)
                    seen += 1
            monkeypatch.undo()
            assert seen, name

    def test_terminating_pairs_make_the_walks_kernel_calls(self, borel, monkeypatch):
        # the edges of L_X and L_Y from w are the walk's own first and last
        # entries, so a terminating series makes no kernel call beyond its walk;
        # the edges start from the L_X w and L_Y w of the certificate, two calls
        # fewer than walking from w, and the walk stops at the last anti-diagonal
        # its sum reads: a pair with L_X w = 0 makes the one call L_Y^2 w = 0
        kernel, calls = StructureConstants.scaled_bracket, []
        monkeypatch.setattr(StructureConstants, "scaled_bracket",
                            lambda alg, a, b: calls.append(1) or kernel(alg, a, b))
        rng = random.Random(13)
        pairs = []
        for core in (3, 4):
            alg = families.random_derived_abelian(rng, 2, core, kind="nilp")
            pairs += [(alg, *(families.random_element(rng, alg.dim) for _ in "xy"))
                      for _ in range(3)]
        b4, index4 = borel(4)

        def borel_element(values):
            return b4.element([values.get(e, 0) for e in sorted(index4, key=index4.get)])

        pairs.append((b4, borel_element({(0, 1): "1/2"}),
                      borel_element({(1, 2): "1/3", (2, 3): "-3/4"})))
        counts = []
        for alg, x, y in pairs:
            cls = classify_pair(alg, x, y)
            alg.derived_weights()  # the per-algebra facts, whose kernel calls are not the pair's
            alg._central_series()
            calls.clear()
            res = bch_closed_form(alg, x, y, classification=cls)
            assert (res.method, res.exact) == ("OperatorF", True)
            counts.append((res.degree, len(calls)))
        assert counts == [(1, 1), (2, 3), (2, 3), (4, 7), (4, 7), (4, 7), (1, 1)]

    def test_scalar_and_operator_pairs_build_no_fraction(self, fraction_builds):
        # classify_pair and bch_closed_form build no Fraction on a ScalarF pair with
        # u, v != 0 or a non-terminating OperatorF pair, split into eigenlines
        # (two_scale) or summed by shells (e(2)); each field read afterwards is
        # what an eager computation gives
        aff = affine_algebra()
        rank_one = families.random_rank_one(random.Random(5), 4)
        two_scale = catalog_entry("two_scale")
        (tx, ty, _), = two_scale.pairs
        e2, _ = euclidean_plane()
        pairs = [(aff, aff.element(["1/2", "1"]), aff.element(["-1/3", "2"])),
                 (rank_one, families.random_element(random.Random(6), 4),
                  families.random_element(random.Random(7), 4)),
                 (two_scale.algebra, tx, ty),
                 (e2, e2.element(["1/2", 0, 0]), e2.element([0, 1, 0]))]
        for alg, x, y in pairs:  # the per-algebra and f tables are built once, here
            bch_closed_form(alg, x, y)
        fraction_builds.clear()
        runs = []
        for alg, x, y in pairs:
            cls = classify_pair(alg, x, y)
            runs.append((cls, bch_closed_form(alg, x, y, classification=cls)))
        assert fraction_builds == []
        methods = []
        for (alg, x, y), (cls, res) in zip(pairs, runs):
            methods.append((res.method, res.exact, res.degree is None))
            w = apply(adjoint(alg, x), y)
            assert (cls.w, cls.witness) == (w, None)
            if res.method == "ScalarF":
                uv = rank_one_uv(factorize_rank_one(alg), x, y)
                assert 0 not in uv
                assert (cls.u, cls.v) == (res.u, res.v) == uv
                assert cls.s_closure is None
            else:
                assert (cls.u, cls.v, res.u, res.v) == (None,) * 4
                assert (True, cls.s_closure) == centralized_closure(alg, x, y)
            assert res.lines == (((0, 2), (0, 1)) if alg is two_scale.algebra else None)
        assert methods == ([("ScalarF", False, True)] * 2
                           + [("OperatorF", False, True), ("OperatorF", False, False)])

    def test_exact_combine_adds_no_fractions(self, borel, monkeypatch):
        # exact Sum, Central, ScalarF at u = v = 0 and terminating OperatorF build
        # each coordinate of z as one Fraction of an integer sum
        b3, index3 = borel(3)
        b4, index4 = borel(4)

        def borel_element(alg, index, values):
            return alg.element([values.get(e, 0) for e in sorted(index, key=index.get)])

        heis, aff = heisenberg_algebra(), affine_algebra()
        pairs = [(aff, aff.basis_element(1), aff.element([0, 3])),
                 (heis, heis.element(["1/2", "1/3", "1/5"]), heis.element(["-1/4", "2/3", "0"])),
                 # w = E_02 with L_X w = L_Y w = 0, not central
                 (b3, borel_element(b3, index3, {(0, 1): "1/2"}),
                  borel_element(b3, index3, {(1, 2): "2/5"})),
                 # w = E_02 and L_Y w = -E_03 span S, killed by L_X and L_Y^2
                 (b4, borel_element(b4, index4, {(0, 1): "1/2"}),
                  borel_element(b4, index4, {(1, 2): "1/3", (2, 3): "-3/4"}))]
        classified = [classify_pair(alg, x, y) for alg, x, y in pairs]

        def forbidden(*args):
            raise AssertionError("Fraction addition in the combine")

        monkeypatch.setattr(Fraction, "__add__", forbidden)
        monkeypatch.setattr(Fraction, "__radd__", forbidden)
        results = [bch_closed_form(alg, x, y, classification=cls)
                   for (alg, x, y), cls in zip(pairs, classified)]
        monkeypatch.undo()
        assert [(r.method, r.exact, r.u, r.v) for r in results] == [
            ("Sum", True, None, None), ("Central", True, None, None),
            ("ScalarF", True, 0, 0), ("OperatorF", True, None, None)]
        for (alg, x, y), r in zip(pairs, results):
            assert r.z == bch_integral_series(alg, x, y, 8)

    def test_classification_of_another_pair_rejected(self):
        for entry in builtin_catalog():
            alg = entry.algebra
            (x, y, _), = entry.pairs
            cls = classify_pair(alg, x, y)
            with pytest.raises(ClassificationMismatch):
                bch_closed_form(alg, y, x, classification=cls)
            with pytest.raises(ClassificationMismatch):
                bch_closed_form(alg, x, times(2, y), classification=cls)
            twin = StructureConstants.from_json_dict(alg.to_json_dict())
            with pytest.raises(ClassificationMismatch):
                bch_closed_form(twin, x, y, classification=cls)

    def test_hand_built_certificate_rejected(self):
        # a certificate is built only from the integers classify_pair decided with:
        # the call with field values, with or without a witness, is a TypeError
        for name in ("heisenberg", "affine", "two_scale", "sl2"):
            entry = catalog_entry(name)
            alg = entry.algebra
            (x, y, _), = entry.pairs
            cls = classify_pair(alg, x, y)
            for extra in ((), (cls.witness,)):
                with pytest.raises(TypeError):
                    CaseClassification(cls.tag, cls.u, cls.v, alg, x, y, cls.w, *extra)

    def test_certificate_origin_checked_before_its_tag(self):
        # sl2's NoClosedForm certificate of (E, F) holds the coordinates of the
        # heisenberg pair (P, Q), which has a closed form: its algebra is checked
        # before its tag, and only with its own algebra does it say that no
        # closed form applies
        heis, sl2 = heisenberg_algebra(), sl2_algebra()
        x, y = heis.basis_element(0), heis.basis_element(1)
        cls = classify_pair(sl2, sl2.basis_element(0), sl2.basis_element(1))
        assert (cls.tag, cls.x, cls.y) == (CaseTag.NO_CLOSED_FORM, x, y)
        with pytest.raises(ClassificationMismatch):
            bch_closed_form(heis, x, y, classification=cls)
        with pytest.raises(NoClosedFormAvailable):
            bch_closed_form(sl2, x, y, classification=cls)


def _eighths(rng, dim):
    """Coordinates k/8, |k| <= 2, not all zero, as "p/q" strings."""
    while True:
        coords = [Fraction(rng.randint(-2, 2), 8) for _ in range(dim)]
        if any(coords):
            return [str(c) for c in coords]


class TestFloatInput:
    """A float coordinate is the binary rational it holds: the certificate is the
    exact input's, and the result is the exact input's z, rounded."""

    def test_catalog_pairs_and_eighths(self):
        rng = random.Random(16)
        seen = set()
        for entry in builtin_catalog():
            alg = entry.algebra
            (x, y, _), = entry.pairs
            inputs = [[str(c) for c in e.coords] for e in (x, y)]
            pairs = [inputs] + [[_eighths(rng, alg.dim) for _ in "xy"] for _ in range(20)]
            for xs, ys in pairs:
                x, y = alg.element(xs), alg.element(ys)
                xf = alg.element([float(Fraction(c)) for c in xs])
                yf = alg.element([float(Fraction(c)) for c in ys])
                ref, cls = classify_pair(alg, x, y), classify_pair(alg, xf, yf)
                assert (cls.tag, cls.u, cls.v, cls.w, cls.s_closure) == \
                    (ref.tag, ref.u, ref.v, ref.w, ref.s_closure), (entry.name, xs, ys)
                seen.add(ref.tag)
                if ref.tag == CaseTag.NO_CLOSED_FORM:
                    continue
                exact = bch_closed_form(alg, x, y, classification=ref)
                res = bch_closed_form(alg, xf, yf, classification=cls)
                assert res.exact is False and all(type(c) is float for c in res.z.coords)
                assert (res.method, res.degree) == (exact.method, exact.degree)
                ulp = Fraction(math.ulp(exact.z.sup_norm()))
                assert max(abs(Fraction(a) - Fraction(b))
                           for a, b in zip(res.z.coords, exact.z.coords)) <= 4 * ulp
        assert seen == set(CaseTag)

    # a float z beyond the double range: the sum x + y overflows (Sum), w / 2 (Central)
    # or w (ScalarF) is beyond it, f w adds past it, or the operator sum does
    @pytest.mark.parametrize("name, x, y, coordinate, method", [
        ("abelian3", [1e308, 0.0, 0.0], [1e308, 0.0, 0.0], 0, "Sum"),
        ("heisenberg", [1e200, 0.0, 0.0], [0.0, 1e200, 0.0], 2, "Central"),
        ("affine", ["1", "0"], ["0", "15e307"], 1, "ScalarF"),
        ("affine", [2.0, 0.0], [0.0, 1e308], 1, "ScalarF"),
        ("two_scale", [1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.7e308, 1e308], 2, "OperatorF"),
    ])
    def test_z_beyond_the_double_range_raises(self, name, x, y, coordinate, method):
        alg = catalog_entry(name).algebra
        x, y = alg.element(x), alg.element(y)
        with pytest.raises(OverflowError,
                           match=f"^coordinate {coordinate} of z lies beyond the double range$"):
            bch_closed_form(alg, x, y, target_tolerance=1e300)
        # within the range, the same form applies
        res = bch_closed_form(alg, times(1e-120, x), times(1e-120, y), target_tolerance=1e300)
        assert res.method == method and all(map(math.isfinite, res.z.coords))


def _pinned_corpus(borel):
    """A fixed corpus of (algebra, x, y): family algebras with random pairs drawn at
    one seed, small and large, the catalog pairs and constructed b(4) pairs, each
    pair given once as Fractions and once as floats, then e(2) pairs, whose
    operator form neither terminates nor splits, in both forms."""
    rng = random.Random(11)
    pairs = []
    for _ in range(5):
        for alg in (families.random_rank_one(rng, rng.randint(3, 5)),
                    families.random_case1(rng, rng.randint(2, 5))[0],
                    families.random_derived_abelian(rng, 2, rng.randint(2, 3), kind="diag"),
                    families.random_derived_abelian(rng, 2, rng.randint(2, 3), kind="nilp")):
            for sup in (Fraction(1, 2), Fraction(3)):
                pairs.append((alg, families.random_element(rng, alg.dim, sup),
                              families.random_element(rng, alg.dim, sup)))
    for entry in builtin_catalog():
        pairs.extend((entry.algebra, x, y) for x, y, _ in entry.pairs)
    pairs += _borel_pairs(borel, rng)
    e2, _ = euclidean_plane()
    plane = [(e2, e2.element(["1/2", 0, 0]), e2.element([0, 1, 0])),
             (e2, e2.element(["-7/3", "1/5", 0]), e2.element([0, "1/3", "-2/9"]))]
    return ([*pairs, *((alg, *_floats(alg, x, y)) for alg, x, y in pairs)]
            + [*plane, *((alg, *_floats(alg, x, y)) for alg, x, y in plane)])


def _evaluator_outputs(corpus):
    """(tag, z repr, method, exact, residual_bound, degree) per pair, or the tag and
    the error's type where there is no result."""
    rows = []
    for alg, x, y in corpus:
        cls = classify_pair(alg, x, y)
        row = [cls.tag.value]
        if cls.tag != CaseTag.NO_CLOSED_FORM:
            try:
                res = bch_closed_form(alg, x, y, classification=cls)
            except NonConvergence as exc:
                row.append(type(exc).__name__)
            else:
                row += [repr(res.z), res.method, res.exact, repr(res.residual_bound),
                        res.degree]
        rows.append(row)
    return rows


# sha256 of repr(_evaluator_outputs(_pinned_corpus(borel))), captured before the
# combine x + y + f w of every closed form moved onto the integer coordinates
# classify_pair clears; it pins z, exact and residual_bound to the bit.
# Recaptured when non-terminating operator forms began to split into joint
# eigenlines, with the four e(2) rows appended: the 22 rows that changed were
# all shell sums and now all split (degree None); every other row, and the e(2)
# rows, read the same before and after
EVALUATOR_OUTPUTS_SHA256 = "a4136658e42559a519996595d3db8881f1313b89901b82bc23aba2f9a747e866"


class TestPinnedOutputs:
    def test_evaluator_outputs_pinned(self, borel):
        rows = _evaluator_outputs(_pinned_corpus(borel))
        methods = {(row[2], row[3]) for row in rows if len(row) > 2}
        assert methods >= {("Sum", True), ("Sum", False), ("Central", True),
                           ("Central", False), ("ScalarF", True), ("ScalarF", False),
                           ("OperatorF", True), ("OperatorF", False)}
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == EVALUATOR_OUTPUTS_SHA256

    def test_certificate_outputs_pinned(self, borel):
        rows = _certificate_outputs(_certificate_corpus(borel))
        assert {row[0] for row in rows} == {tag.value for tag in CaseTag}
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == CERTIFICATE_OUTPUTS_SHA256


def _certificate_corpus(borel):
    """_pinned_corpus, whose NoClosedForm pairs are sl2's, and generic b(4) pairs,
    each NoClosedForm with a closure of dim 6, in both forms."""
    rng = random.Random(5)
    alg, _ = borel(4)
    generic = [(alg, *(families.random_element(rng, alg.dim) for _ in range(2)))
               for _ in range(4)]
    return [*_pinned_corpus(borel), *generic,
            *((alg, *_floats(alg, x, y)) for alg, x, y in generic)]


def _certificate_outputs(corpus):
    """(tag, witness, basis of s_closure) per pair: the witness depends on the order
    in which the closure worklist inserts the images of w, which no result shows."""
    rows = []
    for alg, x, y in corpus:
        cls = classify_pair(alg, x, y)
        s = cls.s_closure
        rows.append((cls.tag.value, cls.witness, None if s is None else s.basis))
    return rows


# sha256 of repr(_certificate_outputs(_certificate_corpus(borel))), captured before
# the closure worklist moved from StructureConstants.close into detect._closure
CERTIFICATE_OUTPUTS_SHA256 = "9bb4b132934d8bd2b6a5283d0f6fe87dd41de5f6a5c60451e1623c4794fb101f"


def _reference_result(alg, res: BchResult, x, y, w):
    """(z, exact, residual_bound) of res, rebuilt by coordinate arithmetic: x + y
    plus the term of res.method, with exact meaning "x and y hold no float"."""
    exact = x.is_exact and y.is_exact
    if res.method == "Sum":
        return plus(x, y), exact, res.residual_bound
    if res.method == "Central" or (res.method == "ScalarF" and res.u == 0 and res.v == 0):
        return plus(x, y, times(Fraction(1, 2), w)), exact, res.residual_bound
    if res.method == "ScalarF":
        fval = f_scalar(res.u, res.v)
        return (plus(x, y, times(fval, w)), False,
                8.0 * 2.0**-53 * abs(fval) * w.sup_norm())
    # terminating OperatorF
    parts = closed_form_terms(classify_pair(alg, x, y), res.degree + 2)[1:]
    return plus(x, y, plus(*parts)), exact, 0.0


def _bit_identity_pairs(borel, rng, kind):
    if kind == "b4":
        return _borel_pairs(borel, rng)
    if kind == "catalog":
        return [(e.algebra, x, y) for e in builtin_catalog() for x, y, _ in e.pairs]
    alg = {"rank_one": lambda: families.random_rank_one(rng, rng.randint(3, 5)),
           "case1": lambda: families.random_case1(rng, rng.randint(2, 5))[0],
           "diag": lambda: families.random_derived_abelian(rng, 2, rng.randint(2, 3),
                                                           kind="diag"),
           "nilp": lambda: families.random_derived_abelian(rng, 2, rng.randint(2, 3),
                                                           kind="nilp")}[kind]()
    sup = rng.choice((Fraction(1, 2), Fraction(3)))
    return [(alg, families.random_element(rng, alg.dim, sup),
             families.random_element(rng, alg.dim, sup)) for _ in range(3)]


def _in_form(rng, alg, x, y, form):
    """The pair as Fractions, as floats, as floats with shared -0.0 coordinates, or
    mixed: one element exact and the other float."""
    if form == "fraction":
        return x, y
    if form == "mixed":
        return (x, *_floats(alg, y)) if rng.random() < 0.5 else (*_floats(alg, x), y)
    if form == "negzero":
        zeroed = [rng.random() < 0.3 for _ in x.coords]
        x, y = (LieElement(Fraction(0) if k else c for c, k in zip(e.coords, zeroed))
                for e in (x, y))
        return tuple(LieElement(float(c) if c else -0.0 for c in e.coords) for e in (x, y))
    return _floats(alg, x, y)


def _assert_bit_identical(alg, res, x, y, w):
    z, exact, bound = _reference_result(alg, res, x, y, w)
    assert (repr(res.z), res.exact, repr(res.residual_bound)) == \
        (repr(z), exact, repr(bound)), (res.method, x, y)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["catalog", "rank_one", "case1", "diag", "nilp", "b4"]),
       st.sampled_from(["fraction", "float", "negzero", "mixed"]))
def test_combine_is_bit_identical_to_element_arithmetic(borel, seed, kind, form):
    # every closed form against x + y + c w in coordinate arithmetic: z repr,
    # exact and residual_bound to the bit
    rng = random.Random(seed)
    for alg, x, y in _bit_identity_pairs(borel, rng, kind):
        x, y = _in_form(rng, alg, x, y, form)
        cls = classify_pair(alg, x, y)
        if cls.tag == CaseTag.NO_CLOSED_FORM:
            continue
        try:
            res = bch_closed_form(alg, x, y, classification=cls)
        except NonConvergence:
            continue
        if res.method == "OperatorF" and res.residual_bound:
            continue  # the float sum of a non-terminating series combines no term
        _assert_bit_identical(alg, res, x, y, cls.w)


def test_float_eigenpair_combine_is_bit_identical():
    aff = affine_algebra()
    x, y = aff.element([0.7, 0.0]), aff.element([0.0, 0.3])
    res = bch_closed_form(aff, x, y)
    assert (res.method, res.u, res.v) == ("ScalarF", 0, 0.7)
    _assert_bit_identical(aff, res, x, y, aff.bracket(x, y))
