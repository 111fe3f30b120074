"""Detect which closed-form composition law applies to a pair (X, Y).

The conditions are ordered from strongest to weakest:

  Commuting               [X,Y] = 0
  CentralBracket          L_[X,Y] = 0 on the whole algebra
  SimultaneousEigenvector L_X [X,Y] = v [X,Y] and L_Y [X,Y] = -u [X,Y]
  OperatorCommuting       [X,Y] commutes with its own iterated-adjoint closure

Each detector returns certificate data consumed by bch_closed_form.
classify_pair's certificate holds the algebra it was made on.  One
pair-independent fact is read per pair, the derived algebra [g,g] and whether
it is abelian, which the algebra computes once (derived_echelon); check
computes the others from the algebra when it prints them.  The conditions are
algebraic identities, decided exactly on integer coordinates for every input:
a float coordinate is the binary rational it holds.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .algebra import (
    DimensionMismatch,
    Echelon,
    LieElement,
    StructureConstants,
    Subspace,
    _Frozen,
    _setattr,
    clear_denominators,
    unscaled,
)


class CaseTag(Enum):
    COMMUTING = "Commuting"
    CENTRAL_BRACKET = "CentralBracket"
    SIMULTANEOUS_EIGENVECTOR = "SimultaneousEigenvector"
    OPERATOR_COMMUTING = "OperatorCommuting"
    NO_CLOSED_FORM = "NoClosedForm"


class RankOneFactorization(_Frozen):
    """Factorization f_ab^c = omega_ab n^c for a one-dimensional derived algebra.

    The gauge freedom (lambda*omega, n/lambda) is fixed by normalizing the
    first nonzero coordinate of n to 1.
    """

    _fields = ("omega", "n")

    def __init__(self, omega: tuple, n: LieElement):
        # omega: dim x dim antisymmetric Fraction matrix
        _setattr(self, "omega", omega)
        _setattr(self, "n", n)


def _uv_field(k: int) -> cached_property:
    """The u (k = 0) or v (k = 2) of a value holding the private ratios
    _uv = (un, ud, vn, vd), ud, vd > 0: un / ud or vn / vd, built on first read,
    or None where _uv is None."""
    def read(self) -> Fraction | None:
        uv = self._uv
        return None if uv is None else Fraction(uv[k], uv[k + 1])
    return cached_property(read)


class CaseClassification(_Frozen):
    """The strongest condition the pair (x, y) meets on algebra, as built by
    classify_pair: w = [x, y], (u, v) for SimultaneousEigenvector, and the closure
    S of w under L_x, L_y for OperatorCommuting and NoClosedForm.

    algebra is the StructureConstants the pair was classified on; it compares by
    identity, so certificates made on distinct but equal algebra objects differ.
    For NoClosedForm, witness is a vector b of S with [w, b] != 0: the first image
    of w that the closure worklist inserts and w fails to centralize, scaled to
    primitive integer coordinates; it is None for every other tag.

    The certificate holds only the integers classify_pair decided with, all
    keyword-only and private: _integer_form, the integer forms
    ((xs, sx), (ys, sy), (ws, sw)) of x, y, w, as clear_denominators gives them;
    _uv = (un, ud, vn, vd), ud, vd > 0, for SimultaneousEigenvector (None for the
    other tags); _images = (den sx [xs, ws], den sy [ys, ws]), the kernel's images
    L_X w and L_Y w on those coordinates, for OperatorCommuting (None for the other
    tags); _witness_form, the witness's integer vector (None but for
    NoClosedForm).  w, u = un / ud, v = vn / vd, witness and s_closure are built
    from them on first read; bch_closed_form reads the integers, not the fields.
    The private attributes take no part in ==, hash or repr.
    """

    _fields = ("tag", "u", "v", "algebra", "x", "y", "w", "witness")

    def __init__(self, tag: CaseTag, algebra: StructureConstants, x: LieElement,
                 y: LieElement, *, _integer_form: tuple, _uv: tuple | None = None,
                 _images: tuple | None = None, _witness_form: list | None = None):
        _setattr(self, "tag", tag)
        _setattr(self, "algebra", algebra)
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "_integer_form", _integer_form)
        _setattr(self, "_uv", _uv)
        _setattr(self, "_images", _images)
        _setattr(self, "_witness_form", _witness_form)

    u = _uv_field(0)
    v = _uv_field(2)

    @cached_property
    def w(self) -> LieElement:
        return LieElement(unscaled(*self._integer_form[2]))

    @cached_property
    def witness(self) -> LieElement | None:
        vec = self._witness_form
        return None if vec is None else LieElement(unscaled(vec, math.gcd(*vec)))

    @cached_property
    def s_closure(self) -> Subspace | None:
        """S for OperatorCommuting and NoClosedForm, else None, grown in full by
        _closure (with L_X w and L_Y w from _images where held): classify_pair grows
        no S where [g,g] is abelian, and stops a NoClosedForm S at its witness."""
        if self.tag not in (CaseTag.OPERATOR_COMMUTING, CaseTag.NO_CLOSED_FORM):
            return None
        alg = self.algebra
        (xs, _), (ys, _), (ws, _) = self._integer_form
        images = self._images or (alg.scaled_bracket(xs, ws), alg.scaled_bracket(ys, ws))
        ech = Echelon()
        for _ in _closure(alg, ech, xs, ys, ws, *images):
            pass
        return ech.subspace()


def factorize_rank_one(alg: StructureConstants) -> RankOneFactorization | None:
    """Return the omega (x) n factorization, or None unless dim [g,g] = 1."""
    derived = alg.derived_subalgebra()
    if derived.dim != 1:
        return None
    n = derived.basis[0]  # echelon basis vector: first nonzero coordinate is 1
    pivot = next(j for j, c in enumerate(n) if c != 0)
    dim = alg.dim
    omega = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            w = alg.structure_constant(a, b, pivot)
            omega[a][b] = w
            omega[b][a] = -w
    return RankOneFactorization(tuple(tuple(row) for row in omega), LieElement(n))


def _witness(alg: StructureConstants, w_scaled, vectors):
    """The first vector b with [b, w] != 0, on scaled coordinates, or None if there is none."""
    return next((b for b in vectors if any(alg.scaled_bracket(b, w_scaled))), None)


def is_derived_abelian(alg: StructureConstants) -> bool:
    """True iff [[g,g],[g,g]] = 0, as the algebra's derived_echelon() decides it."""
    return alg.derived_echelon()[1]


def _pair_forms(alg: StructureConstants, x: LieElement, y: LieElement):
    """((xs, sx), (ys, sy), (ws, sw)): the integer forms of x, y and w = [x, y], each
    as clear_denominators gives it, from one clearing of x and y and one kernel call.
    The kernel gives den sx sy w; dividing it and den sx sy by their gcd leaves the
    least common denominator of w.  DimensionMismatch unless x and y belong to alg."""
    if x.dim != alg.dim or y.dim != alg.dim:
        raise DimensionMismatch("element does not belong to this algebra")
    (xs, sx), (ys, sy) = clear_denominators(x.coords), clear_denominators(y.coords)
    ws = alg.scaled_bracket(xs, ys)
    sw = alg.den * sx * sy
    g = math.gcd(*ws, sw)
    return (xs, sx), (ys, sy), ([c // g for c in ws], sw // g)


def _eigenvalue(vec, img):
    """The ratio (n, d), d > 0, with img = (n / d) vec for a nonzero integer vec, or
    None: cross-multiply at the pivot of vec."""
    k = next(j for j, c in enumerate(vec) if c)
    vk, ik = vec[k], img[k]
    if not all(a * vk == ik * c for a, c in zip(img, vec)):
        return None
    return (ik, vk) if vk > 0 else (-ik, -vk)


def _closure(alg, ech, xs, ys, ws, lx_ws, ly_ws):
    """Grow the closure S of w under L_X, L_Y in the empty Echelon ech, on scaled
    integer coordinates, and yield each image of w it inserts: L_X w and L_Y w if
    new, then by a worklist, last owed first, the new brackets of each owed vector
    with x and then y, each owed in turn (the image, not its residual row, whose
    integers are longer).  w and these images span S and [w, w] = 0, so [w, S] = 0
    iff w centralizes each image yielded; S is complete once the generator ends."""
    ech.insert(ws)
    owed = []
    for img in (lx_ws, ly_ws):
        if ech.insert(img):
            owed.append(img)
            yield img
    insert, bracket, generators = ech.insert, alg.scaled_bracket, (xs, ys)
    while owed:
        vec = owed.pop()
        for g in generators:
            img = bracket(g, vec)
            if insert(img):
                owed.append(img)
                yield img


def classify_pair(alg: StructureConstants, x: LieElement, y: LieElement) -> CaseClassification:
    """Strongest applicable condition for (x, y), with certificate data.

    Detectors run strongest-first and the first hit wins, so the scalar
    formula is preferred over the operator formula whenever both apply.
    The conditions are algebraic identities, decided exactly: float coordinates
    count as the binary rationals they hold, so the certificate (w, u, v, S) is
    exact for every input.
    Per pair, w = [X,Y] and its images L_X w, L_Y w are computed once, in that
    order, and w is bracketed with the basis elements only if both images
    vanish: a central w has [X, w] = [Y, w] = 0.  Past the scalar test, one
    pair-independent fact decides: w and S lie in the ideal [g,g], so where
    [g,g] is abelian (alg.derived_echelon(), computed once per algebra),
    [w, S] = 0 and the pair is OperatorCommuting with no closure grown.
    Otherwise S is grown only until its first image b with [[X,Y], b] != 0,
    the NoClosedForm witness.  The certificate keeps the integers it was
    decided on and builds no Fraction: w, u, v, witness and s_closure are built
    on first read (CaseClassification).
    """
    # integer coordinates: xs = sx x, ys = sy y, ws = sw w
    scaled = _pair_forms(alg, x, y)
    (xs, sx), (ys, sy), (ws, _) = scaled

    def certified(tag, **lazy):
        return CaseClassification(tag, alg, x, y, _integer_form=scaled, **lazy)

    if not any(ws):
        return certified(CaseTag.COMMUTING)
    lx_ws, ly_ws = alg.scaled_bracket(xs, ws), alg.scaled_bracket(ys, ws)
    if not any(lx_ws) and not any(ly_ws) and _witness(alg, ws, alg.units) is None:
        return certified(CaseTag.CENTRAL_BRACKET)
    # L_X w = v w and L_Y w = -u w: lx_ws = den sx v ws and ly_ws = -den sy u ws
    rx = _eigenvalue(ws, lx_ws)
    ry = None if rx is None else _eigenvalue(ws, ly_ws)
    if ry is not None:
        return certified(CaseTag.SIMULTANEOUS_EIGENVECTOR,
                         _uv=(-ry[0], alg.den * sy * ry[1], rx[0], alg.den * sx * rx[1]))
    witness = (None if alg.derived_echelon()[1] else
               _witness(alg, ws, _closure(alg, Echelon(), xs, ys, ws, lx_ws, ly_ws)))
    if witness is None:
        return certified(CaseTag.OPERATOR_COMMUTING, _images=(lx_ws, ly_ws))
    return certified(CaseTag.NO_CLOSED_FORM, _witness_form=witness)
