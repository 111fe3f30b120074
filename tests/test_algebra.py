"""Core algebra: validation, bracket, adjoint, subspaces."""

import random
from fractions import Fraction

import pytest

from bchkit.algebra import (
    AntisymmetryViolation,
    DimensionMismatch,
    IndexOutOfRange,
    JacobiViolation,
    LieElement,
    StructureConstants,
    Subspace,
    validate,
)
from bchkit import families
from bchkit.oracle import (
    abelian_algebra,
    affine_algebra,
    builtin_catalog,
    heisenberg_algebra,
)
from reference import adjoint, apply, in_span, is_zero, span, times


@pytest.fixture
def heis():
    return heisenberg_algebra()


@pytest.fixture
def affine():
    return affine_algebra()


class TestValidate:
    def test_heisenberg(self, heis):
        assert heis.dim == 3
        z = heis.bracket(heis.basis_element(0), heis.basis_element(1))
        assert z.coords == (0, 0, 1)
        # every other basis bracket vanishes
        for a in range(3):
            for b in range(3):
                if {a, b} != {0, 1}:
                    assert is_zero(heis.bracket(heis.basis_element(a), heis.basis_element(b)))

    def test_affine_shift(self, affine):
        z = affine.bracket(affine.basis_element(0), affine.basis_element(1))
        assert z.coords == (0, 1)

    def test_jacobi_violation(self):
        bad = {(0, 1, 0): 1, (1, 2, 1): 1, (2, 0, 2): 1}
        with pytest.raises(JacobiViolation) as err:
            validate(bad, 3)
        assert err.value.indices == (0, 1, 2, 0)
        assert err.value.residual == 1

    def test_jacobi_violation_late_triple(self):
        # [T0,T1] = T1 is consistent; the cyclic part on T2,T3,T4 is not, and
        # the first failing triple in a < b < c order is (2, 3, 4)
        bad = {(0, 1, 1): 1, (2, 3, 2): "2/3", (3, 4, 3): "-5/7", (4, 2, 4): 3}
        with pytest.raises(JacobiViolation) as err:
            validate(bad, 5)
        assert err.value.indices == (2, 3, 4, 2)
        assert err.value.residual == Fraction(-10, 21)
        assert type(err.value.residual) is Fraction
        assert str(err.value) == ("Jacobi identity violated for (T_2,T_3,T_4): "
                                  "component 2 has residual -10/21")

    def test_antisymmetry_completion(self, heis):
        # supplying the opposite orientation yields the same algebra
        other = validate({(1, 0, 2): -1}, 3)
        assert other.structure_constant(0, 1, 2) == 1
        assert other.structure_constant(1, 0, 2) == -1
        assert other.structure_constant(0, 2, 1) == 0

    def test_both_orientations_consistent(self):
        alg = validate({(0, 1, 2): 1, (1, 0, 2): -1}, 3)
        assert alg.structure_constant(0, 1, 2) == 1

    def test_both_orientations_conflicting(self):
        with pytest.raises(AntisymmetryViolation):
            validate({(0, 1, 2): 1, (1, 0, 2): 1}, 3)

    def test_diagonal_entry_must_vanish(self):
        with pytest.raises(AntisymmetryViolation):
            validate({(1, 1, 0): 1}, 2)
        validate({(1, 1, 0): 0}, 2)  # explicit zero is fine

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            validate({(0, 3, 1): 1}, 3)

    def test_dim_positive(self):
        with pytest.raises(ValueError):
            validate({}, 0)

    @pytest.mark.parametrize("dim", [True, 3.0, "3", None], ids=["bool", "float", "str", "none"])
    def test_dim_not_an_int_rejected(self, dim):
        # True would be read as dim 1, and 3.0 as dim 3
        with pytest.raises(TypeError, match="dim must be an integer"):
            validate({}, dim)

    @pytest.mark.parametrize("names", ["PQI", ["P", "Q", 3], [b"P", b"Q", b"I"]],
                             ids=["string", "number", "bytes"])
    def test_basis_names_not_strings_rejected(self, names):
        # a string would be split into its letters
        with pytest.raises(TypeError, match="basis_names"):
            validate({(0, 1, 2): 1}, 3, basis_names=names)

    @pytest.mark.parametrize("index", ["0", True, 1.0], ids=["str", "bool", "float"])
    def test_index_not_an_int_rejected(self, index):
        # "0" is no index 0, and True would be read as 1
        with pytest.raises(TypeError, match=r"index .* of entry .* is not an integer"):
            validate({(index, 1, 1): 1}, 2)

    def test_rational_strings(self):
        alg = validate({(0, 1, 0): "-2/3"}, 2)
        assert alg.structure_constant(0, 1, 0) == Fraction(-2, 3)


class TestBracket:
    def test_self_bracket_vanishes(self, heis):
        x = heis.element(["1/2", "-3", "7/5"])
        assert is_zero(heis.bracket(x, x))

    def test_bilinearity_on_affine(self, affine):
        a, b = Fraction(3, 4), Fraction(-5, 7)
        x = times(a, affine.basis_element(0))
        y = times(b, affine.basis_element(1))
        assert affine.bracket(x, y).coords == (0, a * b)

    def test_antisymmetry(self, heis):
        x = heis.element([1, 2, 3])
        y = heis.element(["1/2", 0, "-1"])
        assert heis.bracket(x, y).coords == times(-1, heis.bracket(y, x)).coords

    def test_element_with_a_float_is_all_float(self, heis):
        # so a result never mixes floats and fractions
        assert heis.element([0.5, "1/4", 0]).coords == (0.5, 0.25, 0.0)
        assert all(type(c) is float for c in heis.element([0.5, "1/3", 2]).coords)
        assert heis.element(["1/2", 0, 1]).is_exact

    def test_dimension_mismatch(self, heis, affine):
        with pytest.raises(DimensionMismatch):
            heis.bracket(affine.basis_element(0), heis.basis_element(0))


class TestAdjoint:
    def test_heisenberg_shift(self, heis):
        ad = adjoint(heis, heis.basis_element(0))
        assert apply(ad, heis.basis_element(1)).coords == (0, 0, 1)
        nonzero = [(c, b) for c in range(3) for b in range(3) if ad[c][b] != 0]
        assert nonzero == [(2, 1)]

    def test_zero_element(self, heis):
        assert not any(any(row) for row in adjoint(heis, heis.element([0] * heis.dim)))

    def test_affine_eigenvalue_one(self, affine):
        ad = adjoint(affine, affine.basis_element(0))
        assert apply(ad, affine.basis_element(1)).coords == (0, 1)

    def test_matches_bracket(self, heis):
        # the Fraction-table adjoint against the integer bracket kernel
        x = heis.element(["2/3", "-1/5", 4])
        ad = adjoint(heis, x)
        for b in range(3):
            e = heis.basis_element(b)
            assert apply(ad, e).coords == heis.bracket(x, e).coords
        # L_x T_b = [x, T_b] with its sign, on every catalog algebra and on
        # one algebra from each random family
        rng = random.Random(11)
        algs = [entry.algebra for entry in builtin_catalog()]
        algs += [families.random_rank_one(rng, 5), families.random_case1(rng, 4)[0],
                 families.random_derived_abelian(rng, 2, 3, kind="diag"),
                 families.random_derived_abelian(rng, 2, 3, kind="nilp")]
        for alg in algs:
            for _ in range(3):
                x = families.random_element(rng, alg.dim)
                ad = adjoint(alg, x)
                for b in range(alg.dim):
                    e = alg.basis_element(b)
                    assert apply(ad, e).coords == alg.bracket(x, e).coords


class TestSubspaces:
    def test_derived_heisenberg(self, heis):
        d = heis.derived_subalgebra()
        assert d.dim == 1
        assert d.basis[0] == (0, 0, 1)

    def test_derived_abelian(self):
        assert abelian_algebra(4).derived_subalgebra().dim == 0

    def test_derived_affine(self, affine):
        d = affine.derived_subalgebra()
        assert d.dim == 1 and d.basis[0] == (0, 1)

    def test_membership(self, heis):
        d = heis.derived_subalgebra()
        assert in_span(d, (Fraction(0), Fraction(0), Fraction(5))) is True
        assert in_span(d, (Fraction(1), Fraction(0), Fraction(0))) is False

    def test_subspace_requires_exact(self):
        # subspace arithmetic stays exact: a float coordinate is the binary
        # rational it holds, so it gives what the equal "p/q" input gives
        tenth = str(Fraction(0.1))
        assert span([(0.1, 1.0)]) == span([(Fraction(tenth), Fraction(1))])
        assert span([(0.1, 1.0)]).basis == ((1, Fraction(1) / Fraction(tenth)),)

    def test_lcs_heisenberg(self, heis):
        chain, verdict = heis.lower_central_series()
        assert [s.dim for s in chain] == [1, 0]
        assert verdict.nilpotent and verdict.nil_class == 2

    def test_lcs_affine(self, affine):
        chain, verdict = affine.lower_central_series()
        assert not verdict.nilpotent
        assert chain[0] == chain[1] == verdict.stable
        assert verdict.stable.basis[0] == (0, 1)

    def test_lcs_abelian(self):
        chain, verdict = abelian_algebra(3).lower_central_series()
        assert [s.dim for s in chain] == [0]
        assert verdict.nilpotent and verdict.nil_class == 1

    def test_lcs_monotone(self, heis, affine):
        for alg in (heis, affine):
            chain, _ = alg.lower_central_series()
            assert len(chain) <= alg.dim + 1
            for bigger, smaller in zip(chain, chain[1:]):
                assert all(in_span(bigger, v) for v in smaller.basis)


class TestElements:
    def test_coercion(self, heis):
        e = heis.element(["1", "-2/3", 0])
        assert e.is_exact and e.coords == (1, Fraction(-2, 3), 0)
        f = heis.element([0.5, 0.0, 0.0])
        assert not f.is_exact

    def test_int_coordinates_are_exact(self):
        # is_exact means "no float coordinate", as BchResult.exact does
        assert LieElement((1, 0, 0)).is_exact
        assert LieElement((1, Fraction(1, 2))).is_exact
        assert not LieElement((1, 0.5)).is_exact

    def test_length_checked(self, heis):
        with pytest.raises(DimensionMismatch):
            heis.element([1, 2])

    @pytest.mark.parametrize("values", ["abc", b"abc", bytearray(b"abc")],
                             ids=["str", "bytes", "bytearray"])
    def test_text_in_place_of_coordinates_rejected(self, heis, values):
        # bytes would be read as the coordinates (97, 98, 99)
        with pytest.raises(TypeError, match="sequence of coordinates"):
            heis.element(values)

    def test_sup_norm(self, heis):
        assert heis.element([1, -3, "5/2"]).sup_norm() == 3.0
        assert heis.element([0.5, -0.25, 0.0]).sup_norm() == 0.5


class TestJson:
    def test_roundtrip(self, heis):
        data = heis.to_json_dict()
        assert data == {
            "dim": 3,
            "basis_names": ["P", "Q", "I"],
            "f": [{"a": 0, "b": 1, "c": 2, "v": "1"}],
        }
        again = StructureConstants.from_json_dict(data)
        assert again.to_json_dict() == data

    def test_duplicate_conflict(self):
        data = {"dim": 3, "f": [{"a": 0, "b": 1, "c": 2, "v": "1"},
                                {"a": 0, "b": 1, "c": 2, "v": "2"}]}
        with pytest.raises(AntisymmetryViolation):
            StructureConstants.from_json_dict(data)
