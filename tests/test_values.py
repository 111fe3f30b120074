"""The eight value types: repr, equality, hashing, immutability, copy and pickle.

The expected strings are literals, so a change to how the types are built
cannot move the repr that the pinned result hashes are taken over.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from bchkit.algebra import LieElement, NilpotencyVerdict, Subspace
from bchkit.closed_form import BchResult, BivariateSeries, ClassificationMismatch, bch_closed_form
from bchkit.detect import CaseClassification, CaseTag, RankOneFactorization, classify_pair
from bchkit.oracle import (CatalogEntry, affine_algebra, heisenberg_algebra, sl2_algebra,
                           two_scale_algebra)

F = Fraction
AFF, HEIS = affine_algebra(), heisenberg_algebra()


def _values():
    """(name, builder, repr) for each type; builder() makes a new, equal value each call."""
    return [
        ("exact_element", lambda: LieElement((F(1, 2), 0)),
         "LieElement(coords=(Fraction(1, 2), 0))"),
        ("float_element", lambda: LieElement([1.5, -0.0]),
         "LieElement(coords=(1.5, -0.0))"),
        ("subspace", lambda: Subspace(((F(1), F(0), F(-1, 2)), (F(0), F(1), F(3)))),
         "Subspace(basis=((Fraction(1, 1), Fraction(0, 1), Fraction(-1, 2)), "
         "(Fraction(0, 1), Fraction(1, 1), Fraction(3, 1))))"),
        ("nilpotent", lambda: NilpotencyVerdict(True, nil_class=2),
         "NilpotencyVerdict(nilpotent=True, nil_class=2, stable=None)"),
        ("not_nilpotent", lambda: NilpotencyVerdict(False, stable=Subspace(((F(0), F(1)),))),
         "NilpotencyVerdict(nilpotent=False, nil_class=None, "
         "stable=Subspace(basis=((Fraction(0, 1), Fraction(1, 1)),)))"),
        ("rank_one", lambda: RankOneFactorization(((F(0), F(1)), (F(-1), F(0))),
                                                  LieElement((F(0), F(1)))),
         "RankOneFactorization(omega=((Fraction(0, 1), Fraction(1, 1)), "
         "(Fraction(-1, 1), Fraction(0, 1))), n=LieElement(coords=(Fraction(0, 1), "
         "Fraction(1, 1))))"),
        ("eigenpair_case",
         lambda: classify_pair(AFF, AFF.element(["1/2", 0]), AFF.element([0, 3])),
         "CaseClassification(tag=<CaseTag.SIMULTANEOUS_EIGENVECTOR: "
         "'SimultaneousEigenvector'>, u=Fraction(0, 1), v=Fraction(1, 2), "
         "algebra=StructureConstants(dim=2, nonzero_pairs=1), "
         "x=LieElement(coords=(Fraction(1, 2), Fraction(0, 1))), "
         "y=LieElement(coords=(Fraction(0, 1), Fraction(3, 1))), "
         "w=LieElement(coords=(Fraction(0, 1), Fraction(3, 2))), witness=None)"),
        ("central_case",
         lambda: classify_pair(HEIS, HEIS.element([1, 0, 0]), HEIS.element([0, 1, 0])),
         "CaseClassification(tag=<CaseTag.CENTRAL_BRACKET: 'CentralBracket'>, u=None, "
         "v=None, algebra=StructureConstants(dim=3, nonzero_pairs=1), "
         "x=LieElement(coords=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))), "
         "y=LieElement(coords=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1))), "
         "w=LieElement(coords=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))), "
         "witness=None)"),
        ("scalar_result",
         lambda: BchResult(LieElement((F(1, 2), F(3))), "ScalarF", False,
                           residual_bound=1e-16, degree=None, _uv=(-3, 1, 1, 2)),
         "BchResult(z=LieElement(coords=(Fraction(1, 2), Fraction(3, 1))), "
         "method='ScalarF', exact=False, residual_bound=1e-16, u=Fraction(-3, 1), "
         "v=Fraction(1, 2), degree=None)"),
        ("sum_result", lambda: BchResult(LieElement((1, 0)), "Sum", True),
         "BchResult(z=LieElement(coords=(1, 0)), method='Sum', exact=True, "
         "residual_bound=None, u=None, v=None, degree=None)"),
        ("series", lambda: BivariateSeries((((1,), 2), ((-1, -1), 6))),
         "BivariateSeries(coefficients={(0, 0): Fraction(1, 2), (1, 0): Fraction(-1, 6), "
         "(0, 1): Fraction(-1, 6)}, max_degree=1)"),
        ("catalog_entry",
         lambda: CatalogEntry("toy", "a toy entry", AFF,
                              ((AFF.basis_element(0), AFF.basis_element(1),
                                CaseTag.SIMULTANEOUS_EIGENVECTOR),),
                              (((0.0, 1.0), (0.0, 0.0)),), "nothing"),
         "CatalogEntry(name='toy', description='a toy entry', "
         "algebra=StructureConstants(dim=2, nonzero_pairs=1), "
         "pairs=((LieElement(coords=(Fraction(1, 1), Fraction(0, 1))), "
         "LieElement(coords=(Fraction(0, 1), Fraction(1, 1))), "
         "<CaseTag.SIMULTANEOUS_EIGENVECTOR: 'SimultaneousEigenvector'>),), "
         "rep_images=(((0.0, 1.0), (0.0, 0.0)),), faithful_on='nothing')"),
    ]


VALUES = _values()
IDS = [name for name, _, _ in VALUES]
BUILDERS = [build for _, build, _ in VALUES]
HASHABLE = [build for name, build, _ in VALUES if name != "series"]


@pytest.mark.parametrize("build, expected", [(b, r) for _, b, r in VALUES], ids=IDS)
def test_repr(build, expected):
    assert repr(build()) == expected


def test_repr_hides_private_and_derived_fields():
    cls = classify_pair(HEIS, HEIS.element([1, 0, 0]), HEIS.element([0, 1, 0]))
    assert cls._integer_form == (([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1))
    assert cls.s_closure is None
    assert "_integer_form" not in repr(cls)


def test_defaults():
    assert LieElement(coords=[1, 2]).coords == (1, 2)
    assert NilpotencyVerdict(True) == NilpotencyVerdict(True, None, None)
    r = BchResult(LieElement((1,)), "Sum", True)
    assert (r.residual_bound, r.u, r.v, r.degree) == (None, None, None, None)
    cls = classify_pair(AFF, AFF.element([1, 0]), AFF.element([0, 1]))
    bare = CaseClassification(cls.tag, cls.algebra, cls.x, cls.y,
                              _integer_form=cls._integer_form)
    assert (bare.u, bare.v, bare.witness, bare.s_closure) == (None, None, None, None)
    entry = CatalogEntry("toy", "", AFF, ())
    assert (entry.rep_images, entry.faithful_on, entry.rep) == (None, "", None)
    with pytest.raises(TypeError):
        Subspace(((F(1),),), (0,))  # a subspace is its basis alone


@pytest.mark.parametrize("build", HASHABLE, ids=[i for i in IDS if i != "series"])
def test_equal_values_hash_equal(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("build", BUILDERS, ids=IDS)
def test_other_types_compare_unequal(build):
    a = build()
    fields = tuple(vars(a).values())
    assert a != fields and fields != a
    assert a != object()
    assert a.__eq__(object()) is NotImplemented


def test_unequal_values():
    assert LieElement((1, 0)) != LieElement((0, 1))
    assert LieElement((F(1), 0)) == LieElement((1, 0))  # equal coordinates, any type
    assert BchResult(LieElement((1,)), "Sum", True) != BchResult(LieElement((1,)), "Sum", False)
    assert NilpotencyVerdict(True, 2) != NilpotencyVerdict(True, 3)
    assert Subspace(((F(1), F(0)),)) != Subspace(((F(0), F(1)),))


def test_a_value_equals_itself_before_its_key_is_built(monkeypatch):
    values = [build() for build in BUILDERS]

    def no_key(self):
        raise AssertionError("_key built to compare a value with itself")

    for value in values:
        monkeypatch.setattr(type(value), "_key", no_key)
    assert all(value == value and not value != value for value in values)


def test_private_fields_do_not_compare():
    # the same values from other integers: w = (2 ws) / (2 sw), u = 2 un / 2 ud, ...
    cls = classify_pair(AFF, AFF.element(["1/2", 0]), AFF.element([0, 3]))
    xf, yf, (ws, sw) = cls._integer_form
    doubled = tuple(2 * t for t in cls._uv)
    other = CaseClassification(cls.tag, cls.algebra, cls.x, cls.y,
                               _integer_form=(xf, yf, ([2 * c for c in ws], 2 * sw)),
                               _uv=doubled)
    assert other == cls and hash(other) == hash(cls) and repr(other) == repr(cls)
    assert other._integer_form != cls._integer_form and other._uv != cls._uv
    z = LieElement((F(1), F(2)))
    res = BchResult(z, "ScalarF", False, _uv=cls._uv)
    assert res == BchResult(z, "ScalarF", False, _uv=doubled) and res._uv != doubled


def test_result_lines_are_built_on_read_and_do_not_compare():
    # an operator form split into eigenlines keeps one private ratio tuple
    # (un, ud, vn, vd) per line and builds the (u_k, v_k) Fractions on read
    z = LieElement((1.0, 2.0))
    res = BchResult(z, "OperatorF", False, _lines=((0, 1, 4, 2), (-2, 6, 1, 2)))
    assert res.lines == ((F(0), F(2)), (F(-1, 3), F(1, 2)))
    assert res == BchResult(z, "OperatorF", False) and "lines" not in repr(res)
    assert BchResult(z, "Sum", True).lines is None


def test_series_holding_a_dict_is_unhashable():
    with pytest.raises(TypeError):
        hash(BivariateSeries((((1,), 2),)))


@pytest.mark.parametrize("build", BUILDERS, ids=IDS)
def test_immutable(build):
    a = build()
    name = next(iter(vars(a)))
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert a == build()


def test_cached_properties_still_fill_in():
    cls = classify_pair(AFF, AFF.element([1, 0]), AFF.element([0, 1]))
    assert cls.s_closure is None
    series = BivariateSeries((((1,), 2), ((-1, -1), 6)))
    assert series.evaluate(0.5, 0.25) == 0.5 - (0.5 + 0.25) / 6
    entry = CatalogEntry("toy", "", AFF, (), (((0.0, 1.0), (0.0, 0.0)),), "nothing")
    assert entry.rep is entry.rep


COPIED = {"exact_element", "float_element", "subspace", "nilpotent", "not_nilpotent",
          "scalar_result", "sum_result"}


@pytest.mark.parametrize("build", [b for n, b, _ in VALUES if n in COPIED],
                         ids=[n for n in IDS if n in COPIED])
def test_copy_and_pickle(build):
    a = build()
    for b in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
        assert type(b) is type(a)
        with pytest.raises(AttributeError):
            b.unknown = 1


def _certified_pairs():
    """(tag, alg, x, y) for one pair of each tag."""
    two, sl2 = two_scale_algebra(), sl2_algebra()
    return [(CaseTag.COMMUTING, HEIS, HEIS.element([1, 0, 0]), HEIS.element([2, 0, 0])),
            (CaseTag.CENTRAL_BRACKET, HEIS, HEIS.element([1, 0, 0]), HEIS.element([0, 1, 0])),
            (CaseTag.SIMULTANEOUS_EIGENVECTOR, AFF, AFF.element(["1/2", 0]),
             AFF.element([0, 3])),
            (CaseTag.OPERATOR_COMMUTING, two, two.element([1, 2, 0, 0]),
             two.element([0, 0, 1, 1])),
            (CaseTag.NO_CLOSED_FORM, sl2, sl2.basis_element(0), sl2.basis_element(1))]


@pytest.mark.parametrize("tag, alg, x, y", _certified_pairs(), ids=[t.value for t in CaseTag])
def test_certificate_copy_and_pickle(tag, alg, x, y):
    cls = classify_pair(alg, x, y)
    assert cls.tag == tag
    copied, unpickled = copy.copy(cls), pickle.loads(pickle.dumps(cls))
    kept = ("tag", "u", "v", "w", "witness", "s_closure")
    for other in (copied, unpickled):
        assert [getattr(other, f) for f in kept] == [getattr(cls, f) for f in kept]
    assert copied.algebra is alg and copied == cls
    # the unpickled certificate holds an algebra object of its own
    assert unpickled.algebra is not alg and unpickled != cls
    with pytest.raises(ClassificationMismatch):
        bch_closed_form(alg, x, y, classification=unpickled)
    if tag != CaseTag.NO_CLOSED_FORM:
        z = bch_closed_form(alg, x, y, classification=cls)
        assert bch_closed_form(alg, x, y, classification=copied) == z
        assert bch_closed_form(unpickled.algebra, x, y, classification=unpickled) == z
