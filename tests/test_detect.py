"""Case-detection hierarchy and its certificates."""

import random
from fractions import Fraction

import pytest

from bchkit.detect import (
    CaseTag,
    classify_pair,
    factorize_rank_one,
    is_derived_abelian,
    pair_center_condition,
    pair_centralizer_condition,
    simultaneous_eigenpair,
    uv_from_rank_one,
)
from bchkit import families
from bchkit.oracle import (
    abelian_algebra,
    affine_algebra,
    heisenberg_algebra,
    sl2_algebra,
    two_scale_algebra,
    uvc_model_algebra,
)


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
    def test_uvc_identification(self):
        u, v, c = Fraction(1, 2), Fraction(-1, 3), Fraction(2)
        alg = uvc_model_algebra(u, v, c)
        fact = factorize_rank_one(alg)
        got = uv_from_rank_one(fact, alg.basis_element(0), alg.basis_element(1))
        assert got == (u, v)

    def test_heisenberg_zero(self):
        heis = heisenberg_algebra()
        fact = factorize_rank_one(heis)
        rng = random.Random(0)
        for _ in range(5):
            x = families.random_element(rng, 3)
            y = families.random_element(rng, 3)
            assert uv_from_rank_one(fact, x, y) == (0, 0)

    def test_zero_x_gives_zero_v(self):
        aff = affine_algebra()
        fact = factorize_rank_one(aff)
        u, v = uv_from_rank_one(fact, aff.zero(), aff.basis_element(1))
        assert v == 0


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
            return all(alg.bracket(w1, w2).is_zero()
                       for w1 in brackets for w2 in brackets)

        rng = random.Random(2)
        algs = [sl2_algebra(), abelian_algebra(3), heisenberg_algebra(),
                two_scale_algebra()]
        algs += [families.random_rank_one(rng, 4) for _ in range(3)]
        algs += [families.random_derived_abelian(rng, 2, 3) for _ in range(3)]
        for alg in algs:
            assert is_derived_abelian(alg) == brackets_commute(alg)


class TestPairConditions:
    def test_heisenberg_center(self):
        heis = heisenberg_algebra()
        rng = random.Random(3)
        for _ in range(5):
            x = families.random_element(rng, 3)
            y = families.random_element(rng, 3)
            assert pair_center_condition(heis, x, y)

    def test_abelian_derived_implies_center(self):
        rng = random.Random(4)
        for _ in range(5):
            alg = families.random_derived_abelian(rng, 2, 3)
            x = families.random_element(rng, alg.dim)
            y = families.random_element(rng, alg.dim)
            assert is_derived_abelian(alg)
            assert pair_center_condition(alg, x, y)

    def test_sl2_fails_center(self):
        sl2 = sl2_algebra()
        assert not pair_center_condition(sl2, sl2.basis_element(0), sl2.basis_element(1))

    def test_center_implies_centralizer(self):
        rng = random.Random(5)
        samples = [(heisenberg_algebra(), 3), (two_scale_algebra(), 4)]
        for alg, dim in samples:
            for _ in range(5):
                x = families.random_element(rng, dim)
                y = families.random_element(rng, dim)
                if pair_center_condition(alg, x, y):
                    ok, _ = pair_centralizer_condition(alg, x, y)
                    assert ok

    def test_heisenberg_centralizer(self):
        heis = heisenberg_algebra()
        ok, s = pair_centralizer_condition(heis, heis.basis_element(0), heis.basis_element(1))
        assert ok and s.dim == 1 and s.basis[0] == (0, 0, 1)

    def test_sl2_centralizer_fails(self):
        sl2 = sl2_algebra()
        ok, s = pair_centralizer_condition(sl2, sl2.basis_element(0), sl2.basis_element(1))
        assert not ok and s.dim == 3


class TestClassify:
    def test_abelian_commuting(self):
        alg = abelian_algebra(3)
        cls = classify_pair(alg, alg.basis_element(0), alg.basis_element(1))
        assert cls.tag == CaseTag.COMMUTING

    def test_heisenberg_central(self):
        heis = heisenberg_algebra()
        cls = classify_pair(heis, heis.basis_element(0), heis.basis_element(1))
        assert cls.tag == CaseTag.CENTRAL_BRACKET
        assert cls.facts.nilpotency.nil_class == 2
        assert cls.facts.rank_one is not None

    def test_affine_eigen(self):
        aff = affine_algebra()
        a, b = Fraction(3, 5), Fraction(-2, 7)
        cls = classify_pair(aff, aff.basis_element(0).scale(a),
                            aff.basis_element(1).scale(b))
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
        assert simultaneous_eigenpair(alg, x, y) is None

    def test_sl2_no_closed_form(self):
        sl2 = sl2_algebra()
        cls = classify_pair(sl2, sl2.basis_element(0), sl2.basis_element(1))
        assert cls.tag == CaseTag.NO_CLOSED_FORM

    def test_facts_computed_once_per_algebra(self):
        alg = two_scale_algebra()
        first = classify_pair(alg, alg.element([1, 2, 0, 0]), alg.element([0, 0, 1, 1]))
        second = classify_pair(alg, alg.basis_element(0), alg.basis_element(1))
        assert first.facts is second.facts
        assert classify_pair(two_scale_algebra(), alg.basis_element(0),
                             alg.basis_element(1)).facts is not first.facts

    def test_requires_exact(self):
        heis = heisenberg_algebra()
        with pytest.raises(TypeError):
            classify_pair(heis, heis.element([0.5, 0.0, 0.0]), heis.basis_element(1))


class TestEigenHelper:
    def test_float_mode(self):
        aff = affine_algebra()
        x = aff.element([0.7, 0.0])
        y = aff.element([0.0, 0.3])
        pair = simultaneous_eigenpair(aff, x, y)
        assert pair is not None
        u, v = pair
        assert abs(u) < 1e-15 and abs(v - 0.7) < 1e-15

    def test_float_mode_rejects_non_eigen(self):
        alg = two_scale_algebra()
        x = alg.element([1.0, 2.0, 0.0, 0.0])
        y = alg.element([0.0, 0.0, 1.0, 1.0])
        assert simultaneous_eigenpair(alg, x, y) is None

    def test_zero_bracket(self):
        alg = abelian_algebra(2)
        assert simultaneous_eigenpair(alg, alg.basis_element(0), alg.basis_element(1)) == (0, 0)


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
                ok, _ = pair_centralizer_condition(alg, x, y)
                assert ok
            if cls.tag == CaseTag.CENTRAL_BRACKET:
                assert simultaneous_eigenpair(alg, x, y) == (0, 0)
