"""Property tests over randomly generated algebras and elements."""

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from bchkit.algebra import (Echelon, LieElement, _integer_roots, _joint_split,
                            _least_relation, _orbit, clear_denominators, unscaled)
from bchkit.closed_form import (BivariateSeries, NonConvergence, _restricted_norm,
                                bch_closed_form, f_scalar, f_series)
from bchkit.detect import CaseTag, _closure, classify_pair, factorize_rank_one
from bchkit import families
from bchkit.oracle import bch_integral_series, catalog_entry, matrix_bch, two_scale_algebra
from reference import (adjoint, apply, centralized_closure, evaluate_exact, f_form_product,
                       in_span, is_zero, minus, plus, rank_one_uv, span, times)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=8)


def _random_algebra(rng):
    kind = rng.choice(["rank_one", "case1", "derived_abelian"])
    if kind == "rank_one":
        return families.random_rank_one(rng, rng.randint(3, 5))
    if kind == "case1":
        return families.random_case1(rng, rng.randint(2, 5))[0]
    return families.random_derived_abelian(
        rng, 2, rng.randint(2, 3), kind=rng.choice(["diag", "nilp"]))


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_bracket_antisymmetry_on_basis(seed):
    rng = random.Random(seed)
    alg = _random_algebra(rng)
    for a in range(alg.dim):
        for b in range(alg.dim):
            ea, eb = alg.basis_element(a), alg.basis_element(b)
            assert alg.bracket(ea, eb).coords == times(-1, alg.bracket(eb, ea)).coords


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_jacobi_identity_on_random_elements(seed):
    rng = random.Random(seed)
    alg = _random_algebra(rng)
    x = families.random_element(rng, alg.dim)
    y = families.random_element(rng, alg.dim)
    z = families.random_element(rng, alg.dim)
    total = plus(alg.bracket(x, alg.bracket(y, z)), alg.bracket(y, alg.bracket(z, x)),
                 alg.bracket(z, alg.bracket(x, y)))
    assert is_zero(total)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_adjoint_is_a_homomorphism(seed):
    rng = random.Random(seed)
    alg = _random_algebra(rng)
    x = families.random_element(rng, alg.dim)
    y = families.random_element(rng, alg.dim)
    # ad [x, y] = [ad x, ad y], adjoints from the Fraction table, [x, y] from the kernel
    ad_x, ad_y = adjoint(alg, x), adjoint(alg, y)
    ad_w = adjoint(alg, alg.bracket(x, y))
    for b in range(alg.dim):
        e = alg.basis_element(b)
        lhs = minus(apply(ad_x, apply(ad_y, e)), apply(ad_y, apply(ad_x, e)))
        assert lhs.coords == apply(ad_w, e).coords


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_derived_subalgebra_contains_brackets(seed):
    rng = random.Random(seed)
    alg = _random_algebra(rng)
    derived = alg.derived_subalgebra()
    x = families.random_element(rng, alg.dim)
    y = families.random_element(rng, alg.dim)
    assert in_span(derived, alg.bracket(x, y))


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_lower_central_series_monotone(seed):
    rng = random.Random(seed)
    alg = _random_algebra(rng)
    chain, verdict = alg.lower_central_series()
    assert len(chain) <= alg.dim + 1
    for bigger, smaller in zip(chain, chain[1:]):
        assert all(in_span(bigger, v) for v in smaller.basis)
    if verdict.nilpotent:
        assert chain[-1].dim == 0
        assert verdict.nil_class == len(chain)
    else:
        assert chain[-1] == chain[-2] == verdict.stable


@st.composite
def vector_lists(draw):
    """Fraction vectors of one length: fresh ones (sparse, either sign), then
    zero vectors, duplicates, negations and combinations of earlier ones."""
    dim = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-3, max_value=3, max_denominator=6))
    vecs = draw(st.lists(st.tuples(*[entry] * dim), max_size=5))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["zero", "duplicate", "negation", "combination"]))
        if kind == "zero" or not vecs:
            vecs.append((Fraction(0),) * dim)
            continue
        a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
        if kind == "duplicate":
            vecs.append(a)
        elif kind == "negation":
            vecs.append(tuple(-c for c in a))
        else:
            p, q = draw(entry), draw(entry)
            vecs.append(tuple(p * c + q * d for c, d in zip(a, b)))
        vecs.insert(draw(st.integers(0, len(vecs) - 1)), vecs.pop())
    return vecs


def _fraction_rref(vecs):
    """The nonzero rows of the reduced row echelon form, by Gauss-Jordan over Fraction."""
    rows, basis = [list(v) for v in vecs], []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [c / pivot[col] for c in pivot]
        rows = [[a - row[col] * b for a, b in zip(row, pivot)] for row in rows]
        basis = [[a - row[col] * b for a, b in zip(row, pivot)] for row in basis] + [pivot]
    return tuple(tuple(row) for row in basis)


@settings(max_examples=300, deadline=None)
@given(vector_lists())
def test_incremental_echelon_matches_rref(vecs):
    ech = Echelon()
    for k, vec in enumerate(vecs):
        grew = len(_fraction_rref(vecs[:k + 1])) > len(_fraction_rref(vecs[:k]))
        assert ech.insert(clear_denominators(vec)[0]) == grew
        for row, p in zip(ech.rows, ech.pivots):  # primitive, positive pivot
            assert math.gcd(*row) == 1 and row[p] > 0
    assert ech.subspace().basis == span(vecs).basis == _fraction_rref(vecs)


def _restricted_matrix(alg, g, sub):
    """Fraction matrix of L_g on the L_g-invariant subspace sub in its RREF basis b,
    from the adjoint matrix: column j holds the coefficients of L_g b_j, which are
    its coordinates at the pivots of the RREF basis."""
    ad = adjoint(alg, g)
    images = [apply(ad, b) for b in sub.basis]
    assert all(in_span(sub, img) for img in images)
    pivots = [next(j for j, c in enumerate(row) if c != 0) for row in sub.basis]
    cols = [[img.coords[p] for p in pivots] for img in images]
    k = sub.dim
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def _restricted_power_index(alg, g, sub):
    """Smallest k <= dim sub with (L_g on sub)^k = 0, or None, by matrix powers."""
    mat = _restricted_matrix(alg, g, sub)
    k = sub.dim
    power = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for n in range(k + 1):
        if all(v == 0 for row in power for v in row):
            return n
        power = [[sum(power[i][l] * mat[l][j] for l in range(k)) for j in range(k)]
                 for i in range(k)]
    return None


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_orbit_nilpotency_index_matches_restricted_matrix(operator_form, seed):
    # [g,g] is abelian in these algebras, so w centralizes its closure S, and
    # L_g is nilpotent on S exactly when its orbit of w dies within dim S steps:
    # the operator form is exact iff both are, with degree ix + iy - 2
    rng = random.Random(seed)
    kind = rng.choice(["nilp", "diag", "two_scale"])
    alg = (two_scale_algebra() if kind == "two_scale" else
           families.random_derived_abelian(rng, 2, rng.randint(2, 4), kind=kind))
    x = families.random_element(rng, alg.dim)
    y = families.random_element(rng, alg.dim)
    if rng.random() < 0.5:  # lever x, core y: both algebras have two levers
        zero = (Fraction(0),)
        x = LieElement(x.coords[:2] + zero * (alg.dim - 2))
        y = LieElement(zero * 2 + y.coords[2:])
    ok, sub = centralized_closure(alg, x, y)
    w = alg.bracket(x, y)
    assert ok
    if is_zero(w):
        return
    ix, iy = (_restricted_power_index(alg, g, sub) for g in (x, y))
    try:
        res = operator_form(alg, x, y)
    except NonConvergence:
        assert ix is None or iy is None
        return
    assert res.exact == (ix is not None and iy is not None)
    if res.exact:
        assert res.degree == ix + iy - 2


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_diagonal_operator_forms_split_into_joint_eigenlines(seed):
    # L_X and L_Y act diagonally on the core of derived_abelian "diag" and on
    # two_scale, so every pair whose series does not terminate splits, floats
    # too: a silent fall back to the shell sum fails here.  The evaluator reads
    # the lines off the algebra's derived_weights(); the per-pair split, run here,
    # gives the same lines in the same order.  w is the sum of the lines, exactly,
    # each line is a joint eigenvector with the printed (u, v), and z agrees with
    # the matrix or degree-12 series reference
    rng = random.Random(seed)
    if rng.random() < 0.25:
        entry = catalog_entry("two_scale")
        alg, rep = entry.algebra, entry.rep
    else:
        alg, rep = families.random_derived_abelian(rng, 2, rng.randint(2, 4), kind="diag"), None
    x, y = (families.random_element(rng, alg.dim) for _ in "xy")
    if rng.random() < 0.3:
        x, y = (alg.element([float(c) for c in e.coords]) for e in (x, y))
    cls = classify_pair(alg, x, y)
    if cls.tag != CaseTag.OPERATOR_COMMUTING:
        return
    res = bch_closed_form(alg, x, y, classification=cls)
    assert (res.method, res.exact, res.degree) == ("OperatorF", False, None)
    (xs, sx), (ys, sy), (ws, sw) = cls._integer_form
    # S grown here, in place of the [g,g] whose pivots the evaluator reads
    ech = Echelon()
    for b in cls.s_closure.basis:
        ech.insert(clear_denominators(b)[0])
    edge = _orbit(alg.scaled_bracket, xs, ws, cls._images[0])
    relation = _least_relation(edge, ech.pivots)
    parts = _joint_split(alg.scaled_bracket, (xs, ys), ws, ech.pivots, [relation])
    split = sorted(parts.items(), reverse=True)
    lines = [LieElement(unscaled(vec, h * sw)) for _, (vec, h) in split]
    assert plus(*lines) == cls.w
    # the evaluator's lines come in the order of the per-pair split, which sets z's bits;
    # the kernel's maps are den sx L_X and den sy L_Y
    assert res.lines == tuple((Fraction(-ry, alg.den * sy), Fraction(rx, alg.den * sx))
                              for (rx, ry), _ in split)
    exact = [LieElement(Fraction(c) for c in e.coords) for e in (x, y)]
    ax, ay = (adjoint(alg, e) for e in exact)
    assert len(res.lines) == len(lines) == cls.s_closure.dim
    for (u, v), line in zip(res.lines, lines):
        assert apply(ax, line) == times(v, line) and apply(ay, line) == times(-u, line)
    ref = matrix_bch(rep, x, y) if rep else bch_integral_series(alg, *exact, 12)
    scale = max(1.0, ref.sup_norm())
    assert max(abs(float(a) - float(b)) for a, b in zip(res.z.coords, ref.coords)) < 1e-12 * scale


def _times_roots(p, roots):
    """The coefficients, lowest first, of p(t) prod (t - r) over the roots."""
    for r in roots:
        p = [a - r * b for a, b in zip([0] + p, p + [0])]
    return p


def _offsets(centre):
    """Distinct integer roots centre + k, for a few distinct small k."""
    return st.lists(st.integers(-6, 6), min_size=1, max_size=7, unique=True).map(
        lambda ks: [centre + k for k in ks])


_ROOTS = st.one_of(
    st.lists(st.integers(-60, 60), min_size=1, max_size=8, unique=True),  # small
    st.integers(-10**12, 10**12).flatmap(_offsets),  # clustered around any centre
    st.lists(st.integers(-40, 40), min_size=1, max_size=6, unique=True).map(  # past 2^1000
        lambda ks: [k << 1000 for k in ks]),
    st.lists(st.tuples(st.sampled_from((-1, 1)), st.integers(0, 300), st.integers(-9, 9)),
             min_size=1, max_size=6).map(  # spread from 1 to 1e300
        lambda ts: sorted({s * 10**e + c for s, e, c in ts})),
)


@settings(max_examples=150, deadline=None)
@given(_ROOTS, st.integers(-40, 40), st.integers(-400, 400), st.integers(0, 7))
@example([1000, 1001, 1002, 1003, 1004, 1005], 0, 1, 0)
def test_integer_roots_are_exactly_those_of_integer_linear_factors(roots, b, q, i):
    # a product of distinct integer linear factors gives its roots, largest first;
    # an irreducible quadratic factor (complex or irrational roots) or a repeated
    # root gives None
    assert _integer_roots(_times_roots([1], roots)) == sorted(roots, reverse=True)
    disc = b * b - 4 * q
    if disc < 0 or math.isqrt(disc) ** 2 != disc:  # t^2 + b t + q is irreducible over Q
        assert _integer_roots(_times_roots([q, b, 1], roots)) is None
    assert _integer_roots(_times_roots([1], roots + [roots[i % len(roots)]])) is None


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_echelon_norm_matches_the_rref_matrix(borel, seed):
    # the tail bound's restricted norms, read off the integer echelon of S that
    # the shell sum grows, are bit for bit the row-sum norms of the Fraction
    # matrices of L_X and L_Y on s_closure, each entry rounded once and summed
    # in row order
    rng = random.Random(seed)
    kind = rng.choice(["nilp", "diag", "two_scale", "b4"])
    zero = Fraction(0)
    if kind == "b4":  # diagonal x, y = a E_01 + b E_23: S = span{E_01, E_23}
        alg, _ = borel(4)
        diag, e01, e23 = (0, 4, 7, 9), 1, 8
        x = LieElement(families.random_fraction(rng) if k in diag else zero
                       for k in range(alg.dim))
        y = LieElement(families.random_fraction(rng) if k in (e01, e23) else zero
                       for k in range(alg.dim))
    else:  # lever x, core y
        alg = (two_scale_algebra() if kind == "two_scale" else
               families.random_derived_abelian(rng, 2, rng.randint(2, 4), kind=kind))
        x = LieElement(families.random_element(rng, 2).coords + (zero,) * (alg.dim - 2))
        y = LieElement((zero,) * 2 + families.random_element(rng, alg.dim - 2).coords)
    cls = classify_pair(alg, x, y)
    if cls.tag != CaseTag.OPERATOR_COMMUTING:
        return
    scaled = cls._integer_form
    (xs, _), (ys, _), (ws, _) = scaled
    ech = Echelon()
    for _ in _closure(alg, ech, xs, ys, ws, *cls._images):
        pass
    for (gs, sg), g in zip(scaled, (x, y)):
        reference = max(sum(abs(float(t)) for t in row)
                        for row in _restricted_matrix(alg, g, cls.s_closure))
        assert _restricted_norm(alg, gs, sg, ech) == reference


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_rank_one_roundtrip_and_dichotomy(seed):
    rng = random.Random(seed)
    nilpotent = bool(seed % 2)
    alg = families.random_rank_one(rng, rng.randint(3, 6), nilpotent=nilpotent)
    fact = factorize_rank_one(alg)
    assert fact is not None
    # tensor rebuild is exact
    for a in range(alg.dim):
        for b in range(alg.dim):
            for c in range(alg.dim):
                assert alg.structure_constant(a, b, c) == \
                    fact.omega[a][b] * fact.n.coords[c]
    s = [sum(row[b] * fact.n.coords[b] for b in range(alg.dim))
         for row in fact.omega]
    chain, verdict = alg.lower_central_series()
    if all(c == 0 for c in s):
        # omega.n = 0: nilpotent with trivial second term
        assert verdict.nilpotent
        assert len(chain) == 2 and chain[1].dim == 0
    else:
        # omega.n != 0: the chain stabilizes immediately
        assert not verdict.nilpotent
        assert chain[1] == chain[0]


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_hierarchy_soundness(seed):
    rng = random.Random(seed)
    alg = _random_algebra(rng)
    x = families.random_element(rng, alg.dim)
    y = families.random_element(rng, alg.dim)
    cls = classify_pair(alg, x, y)
    if cls.tag == CaseTag.CENTRAL_BRACKET:  # an eigenvector with u = v = 0
        assert is_zero(alg.bracket(x, cls.w)) and is_zero(alg.bracket(y, cls.w))
    if cls.tag in (CaseTag.COMMUTING, CaseTag.CENTRAL_BRACKET,
                   CaseTag.SIMULTANEOUS_EIGENVECTOR):
        ok, _ = centralized_closure(alg, x, y)
        assert ok


@settings(max_examples=100, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_f_symmetry(u, v):
    assert f_scalar(u, v) == f_scalar(v, u)


@settings(max_examples=100, deadline=None)
@given(st.floats(-4, 4), st.floats(-4, 4))
def test_f_matches_naive_form(u, v):
    if min(abs(u), abs(v), abs(u - v)) <= 0.1:
        return
    naive = f_form_product(u, v)
    assert abs(f_scalar(u, v) - naive) <= 1e-12 * max(1.0, abs(naive))


@settings(max_examples=50, deadline=None)
@given(small_fractions, small_fractions)
def test_uv_gauge_invariance(u_param, v_param):
    # scalars extracted from the factorization do not depend on the gauge, and
    # they are classify_pair's eigenpair
    from bchkit.oracle import uvc_model_algebra
    if u_param == 0 and v_param == 0:
        return
    alg = uvc_model_algebra(u_param, v_param, Fraction(3, 2))
    fact = factorize_rank_one(alg)
    x, y = alg.basis_element(0), alg.basis_element(1)
    cls = classify_pair(alg, x, y)
    assert (cls.u, cls.v) == rank_one_uv(fact, x, y) == (u_param, v_param)


rationals = st.one_of(st.integers(min_value=-7, max_value=7),
                      st.fractions(min_value=-5, max_value=5, max_denominator=60))


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, st.booleans(), st.integers(min_value=0, max_value=24))
@example(Fraction(0), Fraction(3, 7), False, 24)
@example(Fraction(-5, 9), Fraction(0), False, 24)
@example(Fraction(0), Fraction(0), False, 3)
@example(Fraction(-2, 3), Fraction(-2, 3), False, 24)
@example(-3, 2, False, 24)
def test_evaluate_exact_matches_termwise_sum(u, v, diagonal, degree):
    # the integer polynomial equals sum c_ij u^i v^j over Fractions, for the
    # table of f and for a lopsided series with fewer powers of v than of u
    if diagonal:
        v = u
    table = f_series(degree)
    lopsided = BivariateSeries(tuple(  # c_ij with i = m - j kept where 2 j <= i
        ([a if 2 * j <= m - j else 0 for j, a in enumerate(row)], q)
        for m, (row, q) in enumerate(table.rows)))
    for series in (table, lopsided):
        naive = Fraction(0)
        for (i, j), c in sorted(series.coefficients.items()):
            naive += c * Fraction(u) ** i * Fraction(v) ** j
        assert evaluate_exact(series, u, v) == naive
