"""Ground-truth engines: series truncation, matrix functions, catalog."""

import ast
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bchkit.algebra import LieElement, StructureConstants
from bchkit.closed_form import bch_closed_form
from bchkit.detect import classify_pair
from bchkit import families, oracle
from bchkit.oracle import (
    _bernoulli,
    ExpansionResidualTooLarge,
    LogDomainError,
    MatrixRep,
    abelian_algebra,
    affine_algebra,
    bch_integral_series,
    bch_series_terms,
    builtin_catalog,
    catalog_entry,
    heisenberg_algebra,
    matrix_bch,
    matrix_exp,
    matrix_log,
    sl2_algebra,
    two_scale_algebra,
)
from reference import is_zero, minus, plus, rep_json_dict, times


def sup_diff(a, b):
    return max(abs(float(p) - float(q)) for p, q in zip(a.coords, b.coords))


# fixed exact pairs on catalog algebras, and one seeded algebra per family
_PINNED_PAIRS = {
    "heisenberg": (["1/2", "-1/3", "1/4"], ["1/5", "2/3", "-1"]),
    "affine": (["1/3", "-1/2"], ["1/4", "2/5"]),
    "uvc": (["1/2", "-1/3", "1/4"], ["1/5", "1/3", "-1/2"]),
    "two_scale": (["1/2", "-1/3", "1/4", "1/5"], ["1/3", "2/5", "-1/2", "3/4"]),
    "sl2": (["1/2", "-1/3", "1/4"], ["1/3", "2/5", "-1/2"]),
}
_PINNED_FAMILIES = {
    "rank_one": (101, lambda rng: families.random_rank_one(rng, 4, nilpotent=False)),
    "rank_one_nilpotent": (102, lambda rng: families.random_rank_one(rng, 4, nilpotent=True)),
    "case1": (103, lambda rng: families.random_case1(rng, 4)[0]),
}


def _pinned_input(label):
    if label in _PINNED_PAIRS:
        alg = catalog_entry(label).algebra
        xc, yc = _PINNED_PAIRS[label]
        return alg, alg.element(xc), alg.element(yc)
    seed, make = _PINNED_FAMILIES[label]
    rng = random.Random(seed)
    alg = make(rng)
    return alg, families.random_element(rng, 4), families.random_element(rng, 4)


_PINNED_SERIES = {
    ("heisenberg", 5): ("7/10", "1/3", "-11/20"),
    ("heisenberg", 8): ("7/10", "1/3", "-11/20"),
    ("heisenberg", 12): ("7/10", "1/3", "-11/20"),
    ("affine", 5): ("7/12", "897169/29859840"),
    ("affine", 8): ("7/12", "2170985407/72236924928"),
    ("affine", 12): ("7/12", "8913475334091647219/296585165310787584000"),
    ("uvc", 5): ("887163599/1166400000", "-70683599/1749600000", "-2216401/291600000"),
    ("uvc", 8): (
        "4790683451407/6298560000000", "-381691451407/9447840000000",
        "-11968548593/1574640000000"
    ),
    ("uvc", 12): (
        "6146638495463926561087/8081304422400000000000",
        "-489725399783926561087/12121956633600000000000",
        "-15356126616073438913/2020326105600000000000"
    ),
    ("two_scale", 5): ("5/6", "1/15", "-195437/466560", "65080769/81000000"),
    ("two_scale", 8): (
        "5/6", "1/15", "-591058819/1410877440", "61500743573/76545000000"
    ),
    ("two_scale", 12): (
        "5/6", "1/15", "-866688086722301/2068813932134400",
        "448340421045394501/558013050000000000"
    ),
    ("sl2", 5): ("7300403/5832000", "2334263/29160000", "-30833/648000"),
    ("sl2", 8): (
        "36820622509/29393280000", "11766940309/146966400000", "-2309156629/48988800000"
    ),
    ("sl2", 12): (
        "1049835187725200629/838061199360000000",
        "111832705292207807/1396768665600000000",
        "-253945070771721881/5387536281600000000"
    ),
    ("rank_one", 5): (
        "5780652523274380356282091845720829/7856607735779876772249600000000000",
        "-23297119012407166035691845720829/436478207543326487347200000000000",
        "500268883274087796644116154279171/1309434622629979462041600000000000",
        "-11765771419967344435075348154279171/13094346226299794620416000000000000"
    ),
    ("rank_one", 8): (
        "4023765463663385790848304393159108454253527133368521757/5468785183239959700894916960434782208000000000000000000",
        "-16216533088071406859172123210868582253527133368521757/303821399068886650049717608913043456000000000000000000",
        "348224468937893103367131999099586877586472866631478243/911464197206659950149152826739130368000000000000000000",
        "-8189854778905857541150343485145238476946472866631478243/9114641972066599501491528267391303680000000000000000000"
    ),
    ("rank_one", 12): (
        "55197558024856865723664648401128169720603359608440225140540726086012090575313353238317/75020174561202511289473014087360058357262425079436275613696000000000000000000000000000",
        "-222456560695237080320667178380190448217931706313642217276726086012090575313353238317/4167787475622361738304056338186669908736801393302015311872000000000000000000000000000",
        "4776903749348919690530722305378010266119212441175775197297353913987909424686646761683/12503362426867085214912169014560009726210404179906045935616000000000000000000000000000",
        "-112347498495162076156158416393975960610616056402300790396713673913987909424686646761683/125033624268670852149121690145600097262104041799060459356160000000000000000000000000000"
    ),
    ("rank_one_nilpotent", 5): (
        "4181893/1234800", "13585661/1852200", "10127/35280", "11923/8820"
    ),
    ("rank_one_nilpotent", 8): (
        "4181893/1234800", "13585661/1852200", "10127/35280", "11923/8820"
    ),
    ("rank_one_nilpotent", 12): (
        "4181893/1234800", "13585661/1852200", "10127/35280", "11923/8820"
    ),
    ("case1", 5): (
        "-5538250265161096515257941/54307078319112192000000000",
        "-44515781600770551836875769/190074774116892672000000000",
        "473382913437033015369871/380149548233785344000000000",
        "-88041026701580680838731169/380149548233785344000000000"
    ),
    ("case1", 8): (
        "-61191038187855637602583768575282677434873/600028229890581360925810360320000000000000",
        "-491846117722481387084959000441154270491757/2100098804617034763240336261120000000000000",
        "5230314728792397300232377849492561087163/4200197609234069526480672522240000000000000",
        "-972747992427122278117604886542403790427957/4200197609234069526480672522240000000000000"
    ),
    ("case1", 12): (
        "-25587920075376590399972870508313135745067224533612531655190448936633/250910506572464639942637547416733255818792665088000000000000000000000",
        "-205672587398016752822132485805163521746870797793776387549095202455597/878186773003626239799231415958566395365774327808000000000000000000000",
        "2187131959398037682380409407105622859184727135224366145065927273723/1756373546007252479598462831917132790731548655616000000000000000000000",
        "-406768680853141399102224099990795397826816904165418925987604464535797/1756373546007252479598462831917132790731548655616000000000000000000000"
    ),
}


# ---------------------------------------------------------------------------
# integral series
# ---------------------------------------------------------------------------

class TestIntegralSeries:
    def test_low_order_expansion(self):
        # through degree 4 the output must be
        #   x + y + w/2 + (L_x w - L_y w)/12 - L_y L_x w / 24
        # on any algebra; use generic pairs where every direction is active
        cases = [
            (sl2_algebra(), ["1/2", "-1/3", "1/4"], ["1/7", "2/5", "-1/2"]),
            (two_scale_algebra(), ["1/2", "-1/3", "1/4", "1/5"],
             ["1/7", "2/5", "-1/2", "3/8"]),
            (families.random_rank_one(random.Random(23), 4, nilpotent=False),
             ["1/2", "-1/3", "1/4", "1/5"], ["1/7", "2/5", "-1/2", "3/8"]),
        ]
        for alg, xc, yc in cases:
            x, y = alg.element(xc), alg.element(yc)
            w = alg.bracket(x, y)
            lxw, lyw = alg.bracket(x, w), alg.bracket(y, w)
            lylxw = alg.bracket(y, lxw)
            assert not is_zero(lylxw)  # the -1/24 term must be exercised
            expected = plus(x, y, times(Fraction(1, 2), w),
                            times(Fraction(1, 12), minus(lxw, lyw)),
                            times(Fraction(-1, 24), lylxw))
            assert bch_integral_series(alg, x, y, 4).coords == expected.coords

            # degree 5: the standard homogeneous term Z_5
            def nest(*letters):  # [l_1, [l_2, [..., [l_4, l_5]]]]
                z = letters[-1]
                for u in reversed(letters[:-1]):
                    z = alg.bracket(u, z)
                return z

            z5 = plus(times(Fraction(-1, 720), plus(nest(y, y, y, y, x), nest(x, x, x, x, y))),
                      times(Fraction(1, 360), plus(nest(x, y, y, y, x), nest(y, x, x, x, y))),
                      times(Fraction(1, 120), plus(nest(y, x, y, x, y), nest(x, y, x, y, x))))
            assert not is_zero(z5)
            got = minus(bch_integral_series(alg, x, y, 5), bch_integral_series(alg, x, y, 4))
            assert got.coords == z5.coords

    def test_series_terms(self):
        # the graded parts sum to the truncation and Z_n(eps x, eps y) = eps^n Z_n(x, y)
        eps = Fraction(1, 8)
        for label in ("sl2", "two_scale", "rank_one", "rank_one_nilpotent", "case1"):
            alg, x, y = _pinned_input(label)
            terms = bch_series_terms(alg, x, y, 8)
            assert len(terms) == 8
            assert terms[0] == plus(x, y)
            assert terms[1] == times(Fraction(1, 2), alg.bracket(x, y))
            total = plus(*terms)
            assert total.coords == bch_integral_series(alg, x, y, 8).coords, label
            scaled = bch_series_terms(alg, times(eps, x), times(eps, y), 8)
            for n, (term, term_eps) in enumerate(zip(terms, scaled), 1):
                assert term_eps.coords == times(eps**n, term).coords, (label, n)

    def test_degree_three(self):
        alg = sl2_algebra()
        x, y = alg.element([1, 0, "1/3"]), alg.element([0, 1, "-1/2"])
        w = alg.bracket(x, y)
        expected = plus(x, y, times(Fraction(1, 2), w),
                        times(Fraction(1, 12), minus(alg.bracket(x, w), alg.bracket(y, w))))
        assert bch_integral_series(alg, x, y, 3).coords == expected.coords

    def test_heisenberg_terminates(self):
        heis = heisenberg_algebra()
        x = heis.element(["1/2", "1/3", "-2"])
        y = heis.element(["5", "-1/7", "1/4"])
        expected = plus(x, y, times(Fraction(1, 2), heis.bracket(x, y)))
        for degree in (2, 3, 5, 9):
            assert bch_integral_series(heis, x, y, degree).coords == expected.coords

    def test_commuting_pair(self):
        alg = abelian_algebra(3)
        x, y = alg.element([1, 2, 3]), alg.element([4, 5, 6])
        assert bch_integral_series(alg, x, y, 5).coords == (5, 7, 9)

    def test_pinned_exact_values(self):
        # exact outputs of the earlier integral-formula engine, kept as literals
        for (label, degree), expected in _PINNED_SERIES.items():
            alg, x, y = _pinned_input(label)
            got = bch_integral_series(alg, x, y, degree)
            assert got.coords == tuple(Fraction(c) for c in expected), (label, degree)

    def test_degree_validated(self):
        heis = heisenberg_algebra()
        with pytest.raises(ValueError):
            bch_integral_series(heis, heis.basis_element(0), heis.basis_element(1), 1)

    def test_exact_coords_required(self):
        # the series stays exact: a float input is the binary rational it holds
        heis = heisenberg_algebra()
        got = bch_integral_series(heis, heis.element([0.1, 0.0, 0.0]), heis.basis_element(1), 4)
        assert got.is_exact
        assert got == bch_integral_series(heis, heis.element([str(Fraction(0.1)), 0, 0]),
                                          heis.basis_element(1), 4)

    def test_scaling_order_law(self):
        # against a higher truncation, the gap must scale like eps^(D+1)
        rng = random.Random(21)
        alg = families.random_rank_one(rng, 4, nilpotent=False)
        x = families.random_element(rng, 4)
        y = families.random_element(rng, 4)
        degree = 4
        points = []
        for p in range(3, 8):
            eps = Fraction(1, 2**p)
            xs, ys = times(eps, x), times(eps, y)
            lo = bch_integral_series(alg, xs, ys, degree)
            hi = bch_integral_series(alg, xs, ys, degree + 4)
            gap = max(abs(float(a - b)) for a, b in zip(lo.coords, hi.coords))
            assert gap > 0
            points.append((-p, math.log2(gap)))
        xs, ys = zip(*points)
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope > degree + 0.5


# the graded recursion on LieElements of Fractions, as bchkit computed it
# before the integer recursion; an independent reference for the parts
def _reference_series_terms(alg: StructureConstants, x: LieElement, y: LieElement,
                            degree: int) -> tuple[LieElement, ...]:
    if degree < 1:
        raise ValueError("truncation degree must be >= 1")
    if not (x.is_exact and y.is_exact):
        raise TypeError("the series oracle requires exact rational coordinates")
    zero = alg.element([0] * alg.dim)  # zero results are this object: identity tests
    if is_zero(alg.bracket(x, y)):
        return (plus(x, y),) + (zero,) * (degree - 1)

    bern = _bernoulli(degree)
    x_plus_y, half_diff = plus(x, y), times(Fraction(1, 2), minus(x, y))
    z, s = [None, x_plus_y], {}  # z[n] = Z_n, s[m, n] = S(m, n)

    def bracket(a, b):
        if a is zero or b is zero:
            return zero
        c = alg.bracket(a, b)
        return zero if is_zero(c) else c

    def total(parts):
        parts = [p for p in parts if p is not zero]
        return plus(*parts) if parts else zero

    def nested(m, n):  # S(m, n), each computed once
        if (m, n) not in s:
            s[m, n] = (bracket(z[n], x_plus_y) if m == 1 else
                       total(bracket(z[k], nested(m - 1, n - k)) for k in range(1, n - m + 2)))
        return s[m, n]

    for n in range(1, degree):
        nxt = total([bracket(half_diff, z[n])]
                    + [times(bern[2 * p] / math.factorial(2 * p), t)
                       for p in range(1, n // 2 + 1) if (t := nested(2 * p, n)) is not zero])
        z.append(nxt if nxt is zero else times(Fraction(1, n + 1), nxt))
    return tuple(z[1:])


_SERIES_ALGEBRAS = {
    "rank_one": lambda rng: families.random_rank_one(rng, rng.randint(3, 6)),
    "case1": lambda rng: families.random_case1(rng, rng.randint(2, 6))[0],
    "catalog": lambda rng: catalog_entry(
        rng.choice(["abelian3", "heisenberg", "affine", "uvc", "two_scale"])).algebra,
    "sl2": lambda rng: sl2_algebra(),
    "uvc": lambda rng: catalog_entry("uvc").algebra,  # den = 6
}


@st.composite
def _series_inputs(draw):
    """An algebra from a fuzz family, sl2 or uvc, and x, y whose coordinates
    have mixed denominators (zero coordinates and zero elements included)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    alg = _SERIES_ALGEBRAS[draw(st.sampled_from(sorted(_SERIES_ALGEBRAS)))](rng)
    coord = st.fractions(min_value=-1, max_value=1, max_denominator=12)
    x, y = (alg.element(draw(st.lists(coord, min_size=alg.dim, max_size=alg.dim)))
            for _ in range(2))
    return alg, x, y, draw(st.integers(min_value=1, max_value=10))


@settings(max_examples=60, deadline=None)
@given(_series_inputs())
def test_series_terms_match_the_fraction_recursion(case):
    alg, x, y, degree = case
    got = bch_series_terms(alg, x, y, degree)
    assert got == _reference_series_terms(alg, x, y, degree)
    assert all(type(c) is Fraction for term in got for c in term.coords)


# ---------------------------------------------------------------------------
# matrix functions
# ---------------------------------------------------------------------------

class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(matrix_exp(np.zeros((4, 4))), np.eye(4), atol=1e-15)

    def test_diagonal(self):
        d = np.diag([0.3, -1.2, 2.5])
        assert np.allclose(matrix_exp(d), np.diag(np.exp([0.3, -1.2, 2.5])), rtol=1e-14)

    def test_nilpotent_polynomial(self):
        n = np.array([[0.0, 0.4, 0.1], [0.0, 0.0, -0.7], [0.0, 0.0, 0.0]])
        expected = np.eye(3) + n + n @ n / 2.0
        assert np.allclose(matrix_exp(n), expected, atol=1e-15)

    def test_large_norm_scaling(self):
        rng = np.random.RandomState(0)
        a = rng.randn(5, 5) * 2.0
        got = matrix_exp(a)
        # additivity on commuting split: e^A = (e^{A/8})^8
        half = matrix_exp(a / 8.0)
        ref = np.linalg.matrix_power(half, 8)
        assert np.allclose(got, ref, rtol=1e-12)

    def test_scipy_crosscheck(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.RandomState(1)
        for scale in (0.5, 3.0, 8.0):
            a = rng.randn(4, 4) * scale
            assert np.allclose(matrix_exp(a), scipy_linalg.expm(a), rtol=1e-10)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            matrix_exp(np.zeros((2, 3)))


class TestMatrixLog:
    def test_identity(self):
        assert np.allclose(matrix_log(np.eye(3)), np.zeros((3, 3)), atol=1e-18)

    def test_roundtrip(self):
        rng = np.random.RandomState(2)
        for _ in range(5):
            a = rng.randn(4, 4)
            a *= 1.0 / max(1.0, np.linalg.norm(a, 2))
            assert np.allclose(matrix_log(matrix_exp(a)), a, atol=1e-11)

    def test_unipotent_structure(self):
        n = np.array([[0.0, 0.2, 0.1], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]])
        log = matrix_log(np.eye(3) + n)
        assert np.all(log[np.tril_indices(3)] == 0.0)
        # larger unipotent goes through square roots but stays triangular
        log2 = matrix_log(np.eye(3) + 4.0 * n)
        assert np.max(np.abs(log2[np.tril_indices(3)])) < 1e-13

    def test_domain_error(self):
        with pytest.raises(LogDomainError):
            matrix_log(np.diag([-1.0, -1.0]))

    def test_scipy_crosscheck(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.RandomState(3)
        for _ in range(3):
            a = rng.randn(4, 4) * 0.6
            m = scipy_linalg.expm(a)
            assert np.allclose(matrix_log(m), scipy_linalg.logm(m), atol=1e-11)


class TestMatrixBch:
    def test_heisenberg(self):
        entry = catalog_entry("heisenberg")
        alg, rep = entry.algebra, entry.rep
        z = matrix_bch(rep, alg.basis_element(0), alg.basis_element(1))
        assert sup_diff(z, alg.element([1, 1, "1/2"])) < 1e-13

    def test_affine_shift(self):
        entry = catalog_entry("affine")
        a, b = 0.8, -0.6
        z = matrix_bch(entry.rep, LieElement((a, 0.0)), LieElement((0.0, b)))
        expected = (a, a * b / (1.0 - math.exp(-a)))
        assert abs(z.coords[0] - expected[0]) < 1e-12
        assert abs(z.coords[1] - expected[1]) < 1e-12

    def test_identity_law(self):
        entry = catalog_entry("affine")
        alg = entry.algebra
        x = alg.element(["1/3", "-2/5"])
        z = matrix_bch(entry.rep, x, alg.element([0] * alg.dim))
        assert sup_diff(z, x) < 1e-13

    def test_expansion_reproduces_the_log(self):
        entry = catalog_entry("heisenberg")
        alg, rep = entry.algebra, entry.rep
        x, y = alg.basis_element(0), alg.basis_element(1)
        z = matrix_bch(rep, x, y)
        log = matrix_log(matrix_exp(rep.image(x)) @ matrix_exp(rep.image(y)))
        assert np.linalg.norm(rep.image(z) - log) < 1e-12

    def test_overflow_is_a_log_domain_error(self):
        entry = catalog_entry("affine")
        alg = entry.algebra
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            with pytest.raises(LogDomainError, match="overflows the double range"):
                matrix_bch(entry.rep, alg.element(["1000", "0"]), alg.element(["0", "1"]))

    def test_error_scales_with_the_sup_norm(self):
        # z_A2 = x_A2 exactly, since no bracket reaches the A coordinates;
        # the exact routes give it, the matrix route only relative to |z|
        entry = catalog_entry("two_scale")
        alg = entry.algebra
        x = alg.element(["1/4", "1/3", 0, 0])
        y = alg.element([0, 0, 10**12, 2 * 10**12])
        assert bch_integral_series(alg, x, y, 8).coords[:2] == (Fraction(1, 4), Fraction(1, 3))
        z = bch_closed_form(alg, x, y).z
        assert z.coords[:2] == (0.25, 1 / 3)
        scale = z.sup_norm()
        assert scale > 1e12
        z_mat = matrix_bch(entry.rep, x, y)
        assert sup_diff(z_mat, z) < 1e-14 * scale

    def test_deficient_rep_rejected(self):
        # dropping the central image leaves ln(e^P e^Q) outside the span
        rep = MatrixRep([
            np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=float),
            np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=float),
            np.zeros((3, 3)),
        ])
        heis = heisenberg_algebra()
        with pytest.raises(ExpansionResidualTooLarge):
            matrix_bch(rep, heis.basis_element(0), heis.basis_element(1))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

class TestCatalog:
    def test_all_entries_valid(self):
        names = [e.name for e in builtin_catalog()]
        assert names == ["abelian3", "heisenberg", "affine", "uvc", "two_scale", "sl2"]

    def test_reps_are_homomorphisms(self):
        for entry in builtin_catalog():
            if entry.rep is not None:
                entry.rep.validate_against(entry.algebra)

    def test_documented_pairs_classify_as_expected(self):
        for entry in builtin_catalog():
            for x, y, expected in entry.pairs:
                cls = classify_pair(entry.algebra, x, y)
                assert cls.tag == expected, entry.name

    def test_reps_built_on_first_read_keep_their_images(self):
        def unit(n, i, j):
            m = np.zeros((n, n))
            m[i, j] = 1.0
            return m

        # the images and faithful_on text of the catalog reps when they were
        # built as numpy arrays with the catalog
        expected = {
            "abelian3": ([unit(3, i, i) for i in range(3)], "diagonal matrices"),
            "heisenberg": ([unit(3, 0, 1), unit(3, 1, 2), unit(3, 0, 2)],
                           "strictly upper triangular 3x3"),
            "affine": ([unit(2, 0, 0), unit(2, 0, 1)],
                       "upper triangular 2x2 with zero second row"),
            "uvc": None,
            "two_scale": ([unit(4, 0, 0), unit(4, 2, 2), unit(4, 0, 1), unit(4, 2, 3)],
                          "block diagonal pair of affine 2x2 blocks"),
            "sl2": ([unit(2, 0, 1), unit(2, 1, 0), np.diag([1.0, -1.0])],
                    "defining 2x2 representation"),
        }
        for entry in builtin_catalog():
            if expected[entry.name] is None:
                assert entry.rep is None, entry.name
                continue
            images, faithful_on = expected[entry.name]
            rep = entry.rep
            assert rep is entry.rep and rep.faithful_on == faithful_on, entry.name
            assert len(rep.basis_images) == len(images), entry.name
            for got, want in zip(rep.basis_images, images):
                assert got.dtype == np.float64 and np.array_equal(got, want), entry.name

    def test_rep_json_roundtrip(self):
        rep = catalog_entry("heisenberg").rep
        again = MatrixRep.from_json_dict(rep_json_dict(rep))
        for a, b in zip(rep.basis_images, again.basis_images):
            assert np.array_equal(a, b)

    def test_oracles_agree_on_catalog(self):
        rng = random.Random(22)
        for entry in builtin_catalog():
            if entry.rep is None:
                continue
            alg = entry.algebra
            for _ in range(3):
                x = families.random_element(rng, alg.dim, Fraction(1, 4))
                y = families.random_element(rng, alg.dim, Fraction(1, 4))
                z_mat = matrix_bch(entry.rep, x, y)
                z_ser = bch_integral_series(alg, x, y, 10)
                assert sup_diff(z_mat, z_ser) < 1e-8, entry.name


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def _package_imports(module: str) -> set[str]:
    """The bchkit modules that a bchkit module's source imports, at any depth in the file."""
    tree = ast.parse(Path(oracle.__file__).with_name(f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("bchkit."))
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0 and path[0] != "bchkit":
                continue
            inner = path[1:] if node.level == 0 else [p for p in path if p]
            found.update(inner[:1] or [a.name for a in node.names])
    return found


def test_oracle_imports_nothing_from_the_closed_forms():
    # agreement between the oracle and the closed forms is evidence only
    # while the oracle cannot reach closed_form, directly or through a module
    assert "closed_form" in _package_imports("cli")  # the parser sees both import forms
    reached, todo = set(), ["oracle"]
    while todo:
        for name in _package_imports(todo.pop()) - reached:
            reached.add(name)
            todo.append(name)
    assert "algebra" in reached and "closed_form" not in reached
