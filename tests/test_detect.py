"""Case-detection hierarchy and its certificates."""

import copy
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from bchkit.algebra import DimensionMismatch, Echelon, LieElement, StructureConstants
from bchkit.closed_form import NoClosedFormAvailable, bch_closed_form
from bchkit.detect import (
    CaseTag,
    classify_pair,
    factorize_rank_one,
    is_derived_abelian,
)
from bchkit import detect, families, oracle
from bchkit.cli import classification_json
from bchkit.oracle import (
    abelian_algebra,
    affine_algebra,
    builtin_catalog,
    heisenberg_algebra,
    sl2_algebra,
    two_scale_algebra,
    uvc_model_algebra,
)
from reference import (adjoint, apply, centralized_closure, closure, direct_sum,
                       euclidean_plane, in_span, is_zero, plus, rank_one_uv, span, times)


class TestFactorizeRankOne:
    def test_uvc_model_recovery(self):
        u, v, c = Fraction(1, 2), Fraction(-1, 3), Fraction(2)
        alg = uvc_model_algebra(u, v, c)
        fact = factorize_rank_one(alg)
        # normalized gauge: first nonzero coordinate of n is 1
        assert fact.n.coords == (1, v / u, c / u)
        assert fact.omega[0][1] == u
        assert fact.omega[1][0] == -u
        # roundtrip: rebuild the tensor exactly
        for a in range(3):
            for b in range(3):
                for cc in range(3):
                    assert alg.structure_constant(a, b, cc) == \
                        fact.omega[a][b] * fact.n.coords[cc]

    def test_heisenberg(self):
        fact = factorize_rank_one(heisenberg_algebra())
        assert fact.n.coords == (0, 0, 1)
        assert fact.omega[0][1] == 1 and fact.omega[1][0] == -1
        # omega.n = 0 branch
        s = [sum(row[b] * fact.n.coords[b] for b in range(3)) for row in fact.omega]
        assert all(c == 0 for c in s)

    def test_abelian_not_rank_one(self):
        assert factorize_rank_one(abelian_algebra(3)) is None

    def test_two_scale_not_rank_one(self):
        assert factorize_rank_one(two_scale_algebra()) is None


class TestUv:
    """classify_pair's (u, v) on a rank-one algebra is (-y.omega.n, x.omega.n)."""

    def test_uvc_identification(self):
        u, v, c = Fraction(1, 2), Fraction(-1, 3), Fraction(2)
        alg = uvc_model_algebra(u, v, c)
        fact = factorize_rank_one(alg)
        x, y = alg.basis_element(0), alg.basis_element(1)
        cls = classify_pair(alg, x, y)
        assert (cls.u, cls.v) == rank_one_uv(fact, x, y) == (u, v)

    def test_heisenberg_zero(self):
        # omega.n = 0: every bracket is central, and no pair has a nonzero (u, v)
        heis = heisenberg_algebra()
        fact = factorize_rank_one(heis)
        rng = random.Random(0)
        for _ in range(5):
            x = families.random_element(rng, 3)
            y = families.random_element(rng, 3)
            assert rank_one_uv(fact, x, y) == (0, 0)
            assert classify_pair(heis, x, y).tag in (CaseTag.COMMUTING, CaseTag.CENTRAL_BRACKET)

    def test_zero_x_gives_zero_v(self):
        # v = x.omega.n vanishes for x = 0, where the pair commutes, and for x
        # along n, where classify_pair reads it off the eigenpair
        aff = affine_algebra()
        fact = factorize_rank_one(aff)
        y = aff.basis_element(0)
        zero = aff.element([0] * aff.dim)
        assert rank_one_uv(fact, zero, y)[1] == 0
        assert classify_pair(aff, zero, y).tag == CaseTag.COMMUTING
        cls = classify_pair(aff, fact.n, y)
        assert cls.tag == CaseTag.SIMULTANEOUS_EIGENVECTOR
        assert (cls.u, cls.v) == rank_one_uv(fact, fact.n, y) and cls.v == 0


class TestDerivedAbelian:
    def test_rank_one_always_abelian(self):
        rng = random.Random(1)
        for _ in range(5):
            alg = families.random_rank_one(rng, 4)
            assert is_derived_abelian(alg)

    def test_sl2_not_abelian(self):
        assert is_derived_abelian(sl2_algebra()) is False

    def test_abelian(self):
        assert is_derived_abelian(abelian_algebra(2)) is True

    def test_matches_full_contraction(self):
        # the definition: every pair of basis brackets [T_a,T_b], [T_c,T_d] commutes
        def brackets_commute(alg):
            brackets = [alg.bracket(alg.basis_element(a), alg.basis_element(b))
                        for a in range(alg.dim) for b in range(a + 1, alg.dim)]
            return all(is_zero(alg.bracket(w1, w2))
                       for w1 in brackets for w2 in brackets)

        rng = random.Random(2)
        algs = [sl2_algebra(), abelian_algebra(3), heisenberg_algebra(),
                two_scale_algebra()]
        algs += [families.random_rank_one(rng, 4) for _ in range(3)]
        algs += [families.random_derived_abelian(rng, 2, 3) for _ in range(3)]
        for alg in algs:
            assert is_derived_abelian(alg) == brackets_commute(alg)


class TestDerivedFact:
    """derived_echelon, the one elimination of [g,g], and derived_weights, the
    weights of ad g on an abelian [g,g], each computed once per algebra."""

    @staticmethod
    def _algebras(borel):
        rng = random.Random(17)
        algs = [entry.algebra for entry in oracle._catalog_entries()]
        algs += [borel(n)[0] for n in range(3, 7)]
        algs += [families.random_rank_one(rng, rng.randint(3, 6)) for _ in range(3)]
        algs += [families.random_case1(rng, rng.randint(2, 6))[0] for _ in range(3)]
        algs += [families.random_derived_abelian(rng, 2, core, kind=kind)
                 for kind in ("diag", "nilp") for core in (2, 3, 4)]
        return algs

    def test_fact_matches_the_derived_algebra(self, borel):
        # the span of the basis brackets, and whether its RREF basis brackets to 0
        # pairwise, as computed before the fact was cached
        abelian = set()
        for alg in self._algebras(borel):
            units = [alg.basis_element(a) for a in range(alg.dim)]
            derived = span(alg.bracket(a, b) for i, a in enumerate(units) for b in units[i + 1:])
            basis = [LieElement(b) for b in derived.basis]
            commutes = all(is_zero(alg.bracket(a, b))
                           for i, a in enumerate(basis) for b in basis[i + 1:])
            ech, flag = alg.derived_echelon()
            assert alg.derived_echelon()[0] is ech
            assert ech.subspace() == derived == alg.derived_subalgebra()
            assert flag == commutes == is_derived_abelian(alg)
            abelian.add(flag)
        assert abelian == {False, True}

    def test_weights_match_the_adjoint_matrices(self, borel):
        # each vector of a diagonal fact is an eigenvector of every adjoint(T_a)
        # with its space's weight r_a / den; the spaces' sum is direct and fills
        # [g,g], and their projectors sum to the identity on it.  Nilpotency is
        # not a weight: a nilpotent ad g on [g,g] has no fact (nilp, a Jordan
        # block) or the one weight 0 (heisenberg, a central [g,g]), and the
        # lower central series tells that g is nilpotent
        rng = random.Random(19)
        diag = families.random_derived_abelian(rng, 2, 3, kind="diag")
        nilp = families.random_derived_abelian(rng, 2, 4, kind="nilp")
        heis = heisenberg_algebra()
        named = {"nilp": (nilp, None), "heisenberg": (heis, "diagonal"),
                 "two_scale": (two_scale_algebra(), "diagonal"), "diag": (diag, "diagonal"),
                 "sl2": (sl2_algebra(), None), "e2": (euclidean_plane()[0], None),
                 "diag+sl2": (direct_sum(diag, sl2_algebra())[0], None),
                 "diag+nilp": (direct_sum(diag, nilp)[0], None)}
        named.update({f"b{n}": (borel(n)[0], None) for n in (3, 4)})
        for name, (alg, kind) in named.items():
            fact = alg.derived_weights()
            assert (None if fact is None else "diagonal") == kind, name
            assert alg._central_series()[1] == (name in ("nilp", "heisenberg")), name
        assert [r for r, _ in heis.derived_weights().spaces] == [(0,) * heis.dim]
        diagonal = 0
        for alg in self._algebras(borel) + [diag]:
            fact = alg.derived_weights()
            if fact is None:
                continue
            diagonal += 1
            derived = alg.derived_subalgebra()
            ads = [adjoint(alg, alg.basis_element(a)) for a in range(alg.dim)]
            spaces = []
            for r, cols in fact.spaces:
                vectors = [LieElement(Fraction(c, fact.den) for c in col) for _, col in cols]
                for vec in vectors:
                    for ad, ra in zip(ads, r):
                        assert apply(ad, vec) == times(Fraction(ra, alg.den), vec)
                spaces.append(span(vectors))
            assert len({r for r, _ in fact.spaces}) == len(fact.spaces)  # one per weight
            assert span(b for space in spaces for b in space.basis) == derived
            assert sum(space.dim for space in spaces) == derived.dim
            for b in derived.basis:
                parts = [LieElement(Fraction(b[p] * c, fact.den) for c in col)
                         for _, cols in fact.spaces for p, col in cols]
                assert plus(*parts) == LieElement(b)
        assert diagonal > 5

    def test_threads_on_a_fresh_algebra_agree(self, borel):
        # two threads make the first classifications on an algebra whose facts
        # are not yet built: both get the certificates and results that the warm
        # algebra gives, and the weights that a fresh copy of the algebra gives
        def outcomes(alg, pairs):
            out = []
            for x, y in pairs:
                cls = classify_pair(alg, x, y)
                try:
                    res = bch_closed_form(alg, x, y, classification=cls)
                    out.append((cls, res, res.lines))
                except NoClosedFormAvailable:
                    out.append((cls, None, None))
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(10):
                rng = random.Random(trial)
                for alg in (borel(4)[0], two_scale_algebra(),
                            families.random_derived_abelian(rng, 2, 3, kind="diag"),
                            families.random_derived_abelian(rng, 2, 3, kind="nilp")):
                    pairs = [[families.random_element(rng, alg.dim) for _ in "xy"]
                             for _ in range(6)]
                    barrier = threading.Barrier(2)
                    got = [None, None]

                    def run(i):
                        barrier.wait(timeout=30)
                        got[i] = outcomes(alg, pairs) + [alg.derived_weights()]

                    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
                    fresh = StructureConstants.from_json_dict(alg.to_json_dict())
                    assert got[0] == got[1] == outcomes(alg, pairs) + [fresh.derived_weights()], \
                        f"trial {trial}"
        finally:
            sys.setswitchinterval(interval)


class TestPairConditions:
    def test_center_implies_centralizer(self):
        # [[X,Y], [g,g]] = 0: the bracket lies in the centre of [g,g], which holds
        # its closure, so classify_pair finds a closed form
        rng = random.Random(5)
        samples = [(heisenberg_algebra(), 3), (two_scale_algebra(), 4)]
        for alg, dim in samples:
            for _ in range(5):
                x = families.random_element(rng, dim)
                y = families.random_element(rng, dim)
                w = alg.bracket(x, y)
                if all(is_zero(alg.bracket(w, LieElement(b)))
                       for b in alg.derived_subalgebra().basis):
                    assert centralized_closure(alg, x, y)[0]
                    assert classify_pair(alg, x, y).tag != CaseTag.NO_CLOSED_FORM

    def test_heisenberg_centralizer(self):
        heis = heisenberg_algebra()
        x, y = heis.basis_element(0), heis.basis_element(1)
        assert classify_pair(heis, x, y).tag == CaseTag.CENTRAL_BRACKET
        s = closure(heis, x, y)
        assert s.dim == 1 and s.basis[0] == (0, 0, 1)

    def test_sl2_centralizer_fails(self):
        sl2 = sl2_algebra()
        cls = classify_pair(sl2, sl2.basis_element(0), sl2.basis_element(1))
        assert cls.tag == CaseTag.NO_CLOSED_FORM and cls.s_closure.dim == 3


class TestClassify:
    def test_abelian_commuting(self):
        alg = abelian_algebra(3)
        cls = classify_pair(alg, alg.basis_element(0), alg.basis_element(1))
        assert cls.tag == CaseTag.COMMUTING

    def test_heisenberg_central(self):
        heis = heisenberg_algebra()
        cls = classify_pair(heis, heis.basis_element(0), heis.basis_element(1))
        assert cls.tag == CaseTag.CENTRAL_BRACKET
        assert cls.algebra is heis
        data = classification_json(cls)
        assert data["nilpotent"] == {"class": 2}
        assert data["rank_one"] is not None

    def test_element_of_another_dimension_rejected(self):
        # a coordinate vector shorter or longer than dim is no element of the algebra
        heis = heisenberg_algebra()
        for x, y in [(LieElement((1, 0)), heis.basis_element(1)),
                     (heis.basis_element(0), LieElement((0, 1))),
                     (LieElement((1, 0, 0, 0)), heis.basis_element(1))]:
            with pytest.raises(DimensionMismatch):
                classify_pair(heis, x, y)
            with pytest.raises(DimensionMismatch):
                bch_closed_form(heis, x, y)

    def test_affine_eigen(self):
        aff = affine_algebra()
        a, b = Fraction(3, 5), Fraction(-2, 7)
        cls = classify_pair(aff, times(a, aff.basis_element(0)), times(b, aff.basis_element(1)))
        assert cls.tag == CaseTag.SIMULTANEOUS_EIGENVECTOR
        assert (cls.u, cls.v) == (0, a)

    def test_two_scale_equal_rates_is_eigen(self):
        alg = two_scale_algebra()
        x = alg.element([1, 1, 0, 0])
        y = alg.element([0, 0, 1, 1])
        cls = classify_pair(alg, x, y)
        assert cls.tag == CaseTag.SIMULTANEOUS_EIGENVECTOR
        assert (cls.u, cls.v) == (0, 1)

    def test_two_scale_distinct_rates_is_operator(self):
        alg = two_scale_algebra()
        x = alg.element([1, 2, 0, 0])
        y = alg.element([0, 0, 1, 1])
        cls = classify_pair(alg, x, y)
        assert cls.tag == CaseTag.OPERATOR_COMMUTING
        assert cls.s_closure.dim == 2
        # the bracket is not an eigenvector of L_X here
        assert span([cls.w, alg.bracket(x, cls.w)]).dim == 2

    def test_sl2_no_closed_form(self):
        sl2 = sl2_algebra()
        cls = classify_pair(sl2, sl2.basis_element(0), sl2.basis_element(1))
        assert cls.tag == CaseTag.NO_CLOSED_FORM

    def test_certificates_share_their_algebra(self):
        alg = two_scale_algebra()
        first = classify_pair(alg, alg.element([1, 2, 0, 0]), alg.element([0, 0, 1, 1]))
        second = classify_pair(alg, alg.basis_element(0), alg.basis_element(1))
        assert first.algebra is second.algebra is alg
        assert alg.derived_subalgebra() is alg.derived_subalgebra()
        # an equal but distinct algebra object makes an unequal certificate
        other = classify_pair(two_scale_algebra(), alg.basis_element(0), alg.basis_element(1))
        assert other.algebra is not alg and other != second

    def test_requires_exact(self):
        # the conditions are decided exactly for float input too: a float is the
        # binary rational it holds, so it gives what the equal "p/q" input gives
        heis, aff = heisenberg_algebra(), affine_algebra()
        for alg, xf, yf in ((heis, [0.1, 0.0, 0.0], [0.0, 1.0, 0.0]),
                            (aff, [0.7, 0.0], [0.0, 0.3])):
            cls = classify_pair(alg, alg.element(xf), alg.element(yf))
            ref = classify_pair(alg, alg.element([str(Fraction(c)) for c in xf]),
                                alg.element([str(Fraction(c)) for c in yf]))
            assert (cls.tag, cls.u, cls.v, cls.w) == (ref.tag, ref.u, ref.v, ref.w)
            assert cls.w.is_exact
        assert cls.tag == CaseTag.SIMULTANEOUS_EIGENVECTOR and cls.v == Fraction(0.7)


class TestEigenHelper:
    def test_float_mode(self):
        aff = affine_algebra()
        x = aff.element([0.7, 0.0])
        y = aff.element([0.0, 0.3])
        cls = classify_pair(aff, x, y)
        assert cls.tag == CaseTag.SIMULTANEOUS_EIGENVECTOR
        assert abs(cls.u) < 1e-15 and abs(cls.v - 0.7) < 1e-15

    def test_float_mode_rejects_non_eigen(self):
        alg = two_scale_algebra()
        x = alg.element([1.0, 2.0, 0.0, 0.0])
        y = alg.element([0.0, 0.0, 1.0, 1.0])
        cls = classify_pair(alg, x, y)
        assert cls.tag == CaseTag.OPERATOR_COMMUTING and cls.u is None

    def test_near_eigenpair_is_not_one(self):
        # rates 1 and 1 + 2^-50: within any float tolerance of the equal-rate
        # eigenpair, but [X, Y] is not an eigenvector of L_X
        alg = two_scale_algebra()
        x = alg.element([1.0, 1.0 + 2.0**-50, 0.0, 0.0])
        y = alg.element([0.0, 0.0, 1.0, 1.0])
        cls = classify_pair(alg, x, y)
        assert cls.tag == CaseTag.OPERATOR_COMMUTING
        assert span([cls.w, alg.bracket(x, cls.w)]).dim == 2

    def test_zero_bracket(self):
        # a zero bracket is the eigenvector of every (u, v); Commuting gives z = x + y exactly
        alg = abelian_algebra(2)
        x, y = alg.basis_element(0), alg.basis_element(1)
        cls = classify_pair(alg, x, y)
        assert cls.tag == CaseTag.COMMUTING
        res = bch_closed_form(alg, x, y, classification=cls)
        assert res.exact and res.z == plus(x, y)


class TestHierarchy:
    def test_soundness_on_fixed_instances(self):
        rng = random.Random(6)
        for _ in range(30):
            kind = rng.choice(["rank_one", "case1", "derived_abelian"])
            if kind == "rank_one":
                alg = families.random_rank_one(rng, rng.randint(3, 5))
            elif kind == "case1":
                alg, _, _ = families.random_case1(rng, rng.randint(2, 5))
            else:
                alg = families.random_derived_abelian(rng, 2, rng.randint(2, 3))
            x = families.random_element(rng, alg.dim)
            y = families.random_element(rng, alg.dim)
            cls = classify_pair(alg, x, y)
            if cls.tag == CaseTag.SIMULTANEOUS_EIGENVECTOR:
                ok, _ = centralized_closure(alg, x, y)
                assert ok
            if cls.tag == CaseTag.CENTRAL_BRACKET:  # an eigenvector with u = v = 0
                assert is_zero(alg.bracket(x, cls.w)) and is_zero(alg.bracket(y, cls.w))


def test_centralizer_condition_requires_exact():
    # exact for float input: 0.1 is the binary rational it holds
    alg = two_scale_algebra()
    xf, yf = [0.1, 0.2, 0.0, 0.0], [0.0, 0.0, 1.0, 0.3]
    got = classify_pair(alg, alg.element(xf), alg.element(yf))
    ref = classify_pair(alg, alg.element([str(Fraction(c)) for c in xf]),
                        alg.element([str(Fraction(c)) for c in yf]))
    assert (got.tag, got.s_closure) == (ref.tag, ref.s_closure)
    assert got.tag == CaseTag.OPERATOR_COMMUTING and got.s_closure.dim == 2


def naive_classify(alg, x, y):
    """(tag, u, v, S) by the README table, written out with no shared helpers: every
    bracket is an adjoint matrix from the Fraction table (reference.adjoint), not the
    integer bracket kernel.

    Commuting if w = [x, y] = 0; CentralBracket if ad(w) = 0; SimultaneousEigenvector
    if [x, w] = v w and [y, w] = -u w; otherwise the closure S of w under ad(x),
    ad(y), grown by sweeping the whole basis again until nothing is added
    (reference.closure), and OperatorCommuting iff w commutes with S.
    """
    ad_x, ad_y = adjoint(alg, x), adjoint(alg, y)
    w = apply(ad_x, y)
    if is_zero(w):
        return CaseTag.COMMUTING, None, None, None
    if not any(any(row) for row in adjoint(alg, w)):
        return CaseTag.CENTRAL_BRACKET, None, None, None
    lx_w, ly_w = apply(ad_x, w), apply(ad_y, w)
    k = next(j for j, c in enumerate(w.coords) if c != 0)
    v, u = lx_w.coords[k] / w.coords[k], -ly_w.coords[k] / w.coords[k]
    if lx_w == times(v, w) and ly_w == times(-u, w):
        return CaseTag.SIMULTANEOUS_EIGENVECTOR, u, v, None
    sub = closure(alg, x, y)
    ad_w = adjoint(alg, w)
    ok = all(is_zero(apply(ad_w, b)) for b in sub.basis)
    return (CaseTag.OPERATOR_COMMUTING if ok else CaseTag.NO_CLOSED_FORM), None, None, sub


def _reference_pairs(borel):
    """At least 300 seeded pairs over every generator family, the catalog and sl2."""
    rng = random.Random(31)
    algebras = [families.random_rank_one(rng, rng.randint(3, 6)) for _ in range(8)]
    algebras += [families.random_case1(rng, rng.randint(2, 6))[0] for _ in range(8)]
    derived_abelian = [families.random_derived_abelian(rng, 2, rng.randint(2, 5), kind=kind)
                       for kind in ("diag", "nilp") for _ in range(6)]
    algebras += derived_abelian + [borel(3)[0], borel(4)[0]]
    pairs = []
    for alg in derived_abelian:
        # lever x, core y: L_y vanishes on the abelian core, so S is the chain
        # w, L_x w, L_x^2 w, ... and the closure is as deep as its dimension
        for _ in range(3):
            x, y = families.random_element(rng, 2), families.random_element(rng, alg.dim - 2)
            pairs.append((alg, LieElement(x.coords + (Fraction(0),) * (alg.dim - 2)),
                          LieElement((Fraction(0),) * 2 + y.coords)))
    for alg in algebras:
        for _ in range(8):
            pairs.append((alg, families.random_element(rng, alg.dim),
                          families.random_element(rng, alg.dim)))
        x = families.random_element(rng, alg.dim)
        pairs.append((alg, x, times(Fraction(-3, 2), x)))
    for entry in builtin_catalog():
        alg = entry.algebra
        pairs += [(alg, x, y) for x, y, _ in entry.pairs]
        for _ in range(10):
            pairs.append((alg, families.random_element(rng, alg.dim),
                          families.random_element(rng, alg.dim)))
    sl2 = sl2_algebra()
    e, h = sl2.basis_element(0), sl2.basis_element(2)
    for _ in range(30):
        a, b, c = (families.random_fraction(rng) for _ in range(3))
        pairs.append((sl2, plus(times(a, h), times(b, e)), times(c, e)))
    return pairs + _borel_pairs(borel, 5, random.Random(32))


def _borel_pairs(borel, n, rng, per_kind=3):
    """Pairs on b(n) of the kinds the library benchmark streams: generic; diagonal x
    with one off-diagonal y (common eigenvector); two diagonals (commuting); and
    E_{i,i+1}, E_{i+1,i+2} (nilpotent)."""
    alg, index = borel(n)
    diag = [index[i, i] for i in range(n)]

    def coef():
        return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), 8)

    def element(values):
        return LieElement(tuple(values.get(k, Fraction(0)) for k in range(alg.dim)))

    pairs = []
    for _ in range(per_kind):
        pairs.append((alg, families.random_element(rng, alg.dim),
                      families.random_element(rng, alg.dim)))
        i = rng.randrange(n - 1)
        pairs.append((alg, element({d: coef() for d in diag}),
                      element({index[i, rng.randrange(i + 1, n)]: coef()})))
        pairs.append((alg, element({d: coef() for d in diag}),
                      element({d: coef() for d in diag})))
        i = rng.randrange(n - 2)
        pairs.append((alg, element({index[i, i + 1]: coef()}),
                      element({index[i + 1, i + 2]: coef()})))
    return pairs


class TestReferenceClassifier:
    def test_matches_naive_classifier(self, borel):
        pairs = _reference_pairs(borel)
        assert len(pairs) >= 300
        seen = set()
        for alg, x, y in pairs:
            cls = classify_pair(alg, x, y)
            assert (cls.tag, cls.u, cls.v, cls.s_closure) == naive_classify(alg, x, y)
            assert (cls.x, cls.y, cls.w) == (x, y, alg.bracket(x, y))
            seen.add(cls.tag)
        assert seen == set(CaseTag)


class TestWitness:
    def test_witness_certifies_no_closed_form(self, borel):
        for alg, x, y in _reference_pairs(borel):
            cls = classify_pair(alg, x, y)
            if cls.tag != CaseTag.NO_CLOSED_FORM:
                assert cls.witness is None
                continue
            assert in_span(cls.s_closure, cls.witness)
            assert not is_zero(alg.bracket(cls.w, cls.witness))

    def test_sl2_witness_is_the_first_image(self):
        # w = [E, F] = H and L_E H = -2E, so the witness is -E on primitive coordinates
        sl2 = sl2_algebra()
        cls = classify_pair(sl2, sl2.basis_element(0), sl2.basis_element(1))
        assert cls.witness == LieElement((-1, 0, 0))

    def test_s_closure_is_the_full_closure(self):
        # the echelon grown in full (OperatorCommuting) and the closure rebuilt
        # past the witness (NoClosedForm) both give the closure built in full
        pairs = [(two_scale_algebra(), [1, 2, 0, 0], [0, 0, 1, 1]),
                 (sl2_algebra(), [1, 0, 0], [0, 1, 0])]
        tags = set()
        for alg, xc, yc in pairs:
            x, y = alg.element(xc), alg.element(yc)
            cls = classify_pair(alg, x, y)
            assert cls.s_closure == closure(alg, x, y)
            tags.add(cls.tag)
        assert tags == {CaseTag.OPERATOR_COMMUTING, CaseTag.NO_CLOSED_FORM}

    def test_closure_stops_at_the_witness(self, monkeypatch, borel):
        alg, _ = borel(6)
        alg.derived_echelon()  # the per-algebra fact, whose inserts are not the pair's
        rng = random.Random(7)
        while True:
            x, y = (families.random_element(rng, alg.dim) for _ in range(2))
            inserts = []
            insert = Echelon.insert
            monkeypatch.setattr(Echelon, "insert",
                                lambda ech, vec: inserts.append(vec) or insert(ech, vec))
            cls = classify_pair(alg, x, y)
            monkeypatch.undo()
            if cls.tag == CaseTag.NO_CLOSED_FORM:
                break
        assert len(inserts) <= 3  # w, L_X w, L_Y w
        s = cls.s_closure
        assert s == closure(alg, x, y) and s.dim > 3


    def test_closure_yields_in_worklist_order(self, borel):
        # _closure yields L_X w and L_Y w, then, last owed first, the new brackets
        # of each owed vector with x and then with y, as the replay here grows S
        # on reference spans; a pair on b(4) owes vectors past the first two
        alg, _ = borel(4)
        bracket = alg.scaled_bracket
        rng = random.Random(11)
        longest = 0
        for _ in range(8):
            x, y = (families.random_element(rng, alg.dim) for _ in "xy")
            (xs, _), (ys, _), (ws, _) = detect._pair_forms(alg, x, y)
            if not any(ws):
                continue
            images = [bracket(xs, ws), bracket(ys, ws)]
            got = list(detect._closure(alg, Echelon(), xs, ys, ws, *images))
            basis, owed, want = [ws], [], []
            while images:
                img = images.pop(0)
                if not in_span(span(basis), img):
                    basis.append(img)
                    owed.append(img)
                    want.append(img)
                if not images and owed:
                    vec = owed.pop()
                    images = [bracket(xs, vec), bracket(ys, vec)]
            assert got == want, (x, y)
            longest = max(longest, len(want))
        assert longest > 4

class TestSClosure:
    """s_closure, the closure S of w = [x, y] under L_x, L_y as _closure grows it.
    classify_pair gives the Heisenberg and affine pairs stronger tags, whose
    certificates hold no S, so their S is read from an OperatorCommuting
    certificate made on the pair: S is defined for every pair."""

    @staticmethod
    def _operator_s(alg, x, y):
        return detect.CaseClassification(CaseTag.OPERATOR_COMMUTING, alg, x, y,
                                         _integer_form=detect._pair_forms(alg, x, y)).s_closure

    def test_float_and_exact_input_give_one_s(self):
        # a float coordinate is the binary rational it holds, so it gives the S
        # that the equal "p/q" input gives
        tenth = str(Fraction(0.1))
        pairs = [(two_scale_algebra(), ([0.1, 2, 0, 0], [0, 0, 1, 0.5]),
                  ([tenth, 2, 0, 0], [0, 0, 1, "1/2"])),
                 (sl2_algebra(), ([0.1, 0, 0], [0, 1.0, 0]), ([tenth, 0, 0], [0, 1, 0]))]
        tags = set()
        for alg, floats, exact in pairs:
            got, want = (classify_pair(alg, *map(alg.element, xy)) for xy in (floats, exact))
            assert got.tag == want.tag and got.s_closure == want.s_closure
            assert got.s_closure == closure(alg, *map(alg.element, exact))
            tags.add(got.tag)
        assert tags == {CaseTag.OPERATOR_COMMUTING, CaseTag.NO_CLOSED_FORM}

    def test_heisenberg(self):
        heis = heisenberg_algebra()
        s = self._operator_s(heis, heis.basis_element(0), heis.basis_element(1))
        assert s.dim == 1 and s.basis[0] == (0, 0, 1)

    def test_affine_eigenvector(self):
        affine = affine_algebra()
        s = self._operator_s(affine, affine.basis_element(0), affine.basis_element(1))
        assert s.dim == 1 and s.basis[0] == (0, 1)

    def test_zero_w(self):
        heis = heisenberg_algebra()
        x = heis.element([1, 2, 0])
        assert self._operator_s(heis, x, x).dim == 0


class TestLazyCertificate:
    """classify_pair's certificate and bch_closed_form's result build their fields on
    first read; a copy or pickle taken before any field is read behaves as one taken
    after, and as a value made afresh from the same pair."""

    @staticmethod
    def _same(got, want):
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)

    def test_copies_match_the_original(self, borel):
        seen = set()
        for alg, x, y in _reference_pairs(borel):
            cls = classify_pair(alg, x, y)
            unread, copied = pickle.dumps(cls), copy.copy(cls)
            fresh = classify_pair(alg, x, y)
            read = pickle.dumps(cls)
            for got in (cls, copied):
                self._same(got, fresh)
            for blob in (unread, read):
                got = pickle.loads(blob)
                assert got.algebra is not alg
                self._same(got, classify_pair(got.algebra, x, y))
                assert got.s_closure == cls.s_closure
            seen.add(cls.tag)
            if cls.tag == CaseTag.NO_CLOSED_FORM:
                continue
            res = bch_closed_form(alg, x, y, classification=cls)
            unread, copied = pickle.dumps(res), copy.copy(res)
            fresh = bch_closed_form(alg, x, y, classification=classify_pair(alg, x, y))
            for got in (res, copied, pickle.loads(unread), pickle.loads(pickle.dumps(res))):
                self._same(got, fresh)
        assert seen == set(CaseTag)


class TestLazyFacts:
    """The four facts check prints are computed only when it prints them;
    classification and evaluation read only derived_echelon, the integer [g,g]
    and whether it is abelian."""

    @staticmethod
    def _fresh_pairs(borel):
        """Pairs of every tag, each on an algebra whose facts were never read."""
        rng = random.Random(41)
        pairs = [(entry.algebra, x, y)
                 for entry in oracle._catalog_entries() for x, y, _ in entry.pairs]
        pairs += _borel_pairs(borel, 4, rng, per_kind=1)
        for alg in (families.random_rank_one(rng, 4), families.random_case1(rng, 4)[0],
                    families.random_derived_abelian(rng, 2, 3, kind="diag"),
                    families.random_derived_abelian(rng, 2, 3, kind="nilp")):
            pairs += [(alg, families.random_element(rng, alg.dim),
                       families.random_element(rng, alg.dim)) for _ in range(3)]
        return pairs

    def test_classification_computes_no_fact(self, monkeypatch, borel):
        pairs = self._fresh_pairs(borel)

        def no_fact(*args):
            raise AssertionError("an algebra fact was computed")

        monkeypatch.setattr(StructureConstants, "lower_central_series", no_fact)
        monkeypatch.setattr(StructureConstants, "derived_subalgebra", no_fact)
        monkeypatch.setattr(detect, "factorize_rank_one", no_fact)
        monkeypatch.setattr(detect, "is_derived_abelian", no_fact)
        classified = []
        for alg, x, y in pairs:
            cls = classify_pair(alg, x, y)
            if cls.tag == CaseTag.NO_CLOSED_FORM:
                with pytest.raises(NoClosedFormAvailable):
                    bch_closed_form(alg, x, y, classification=cls)
            else:
                bch_closed_form(alg, x, y, classification=cls)
            classified.append((alg, cls))
        monkeypatch.undo()
        assert {cls.tag for _, cls in classified} == set(CaseTag)
        for alg, cls in classified:
            assert cls.algebra is alg
            data = classification_json(cls)
            nilp = alg.lower_central_series()[1]
            fact = factorize_rank_one(alg)
            assert data["derived_dim"] == alg.derived_subalgebra().dim
            assert data["derived_abelian"] == is_derived_abelian(alg)
            assert data["nilpotent"] == ({"class": nilp.nil_class} if nilp.nilpotent else None)
            assert data["rank_one"] == (None if fact is None else {
                "omega": [[str(c) for c in row] for row in fact.omega],
                "n": [str(c) for c in fact.n.coords]})

    def test_overlapping_first_classifications_are_accepted(self, borel):
        # StructureConstants is shared between threads: every certificate made
        # at once on a fresh algebra must hold that algebra, or bch_closed_form
        # rejects it as made on another algebra, and every thread reads the lower
        # central series that a fresh copy of the algebra gives
        def series(alg):
            chain, nilpotent = alg._central_series()
            return [ech.rows for ech in chain], nilpotent

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                alg, _ = borel(5)
                rng = random.Random(trial)
                pairs = [[families.random_element(rng, alg.dim) for _ in range(2)]
                         for _ in range(4)]
                barrier = threading.Barrier(len(pairs))
                accepted, read = [None] * len(pairs), [None] * len(pairs)

                def run(i, x, y):
                    barrier.wait(timeout=30)
                    cls = classify_pair(alg, x, y)
                    try:
                        bch_closed_form(alg, x, y, classification=cls)
                    except NoClosedFormAvailable:
                        pass
                    accepted[i], read[i] = cls, series(alg)

                threads = [threading.Thread(target=run, args=(i, x, y))
                           for i, (x, y) in enumerate(pairs)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert all(cls is not None and cls.algebra is alg for cls in accepted), \
                    f"trial {trial}"
                assert read == [series(borel(5)[0])] * len(pairs), f"trial {trial}"
        finally:
            sys.setswitchinterval(interval)
