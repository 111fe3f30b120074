"""Detect which closed-form composition law applies to a pair (X, Y).

The conditions are ordered from strongest to weakest:

  Commuting               [X,Y] = 0
  CentralBracket          L_[X,Y] = 0 on the whole algebra
  SimultaneousEigenvector L_X [X,Y] = v [X,Y] and L_Y [X,Y] = -u [X,Y]
  OperatorCommuting       [X,Y] commutes with its own iterated-adjoint closure

Each detector returns certificate data consumed by the closed-form
evaluators.  Subspace-based detectors require exact rational coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .algebra import (
    DimensionMismatch,
    LieElement,
    NilpotencyVerdict,
    StructureConstants,
    Subspace,
)


class CaseTag(Enum):
    COMMUTING = "Commuting"
    CENTRAL_BRACKET = "CentralBracket"
    SIMULTANEOUS_EIGENVECTOR = "SimultaneousEigenvector"
    OPERATOR_COMMUTING = "OperatorCommuting"
    NO_CLOSED_FORM = "NoClosedForm"


@dataclass(frozen=True)
class RankOneFactorization:
    """Factorization f_ab^c = omega_ab n^c for a one-dimensional derived algebra.

    The gauge freedom (lambda*omega, n/lambda) is fixed by normalizing the
    first nonzero coordinate of n to 1.
    """

    omega: tuple          # dim x dim antisymmetric Fraction matrix
    n: LieElement

    @property
    def dim(self) -> int:
        return self.n.dim

    def omega_contract(self, x: LieElement, y: LieElement) -> Fraction:
        """omega_ab x^a y^b."""
        total = Fraction(0)
        for a, row in enumerate(self.omega):
            xa = x.coords[a]
            if xa == 0:
                continue
            for b, w in enumerate(row):
                if w != 0 and y.coords[b] != 0:
                    total += xa * w * y.coords[b]
        return total


@dataclass(frozen=True)
class AlgebraFacts:
    """Pair-independent facts of an algebra; built once by :func:`algebra_facts`."""

    derived_dim: int
    derived_abelian: bool
    nilpotency: NilpotencyVerdict
    rank_one: RankOneFactorization | None


@dataclass(frozen=True)
class CaseClassification:
    """The strongest condition the pair (x, y) meets, as built by classify_pair:
    w = [x, y], (u, v) for SimultaneousEigenvector, and the closure S of w under
    L_x, L_y for OperatorCommuting and NoClosedForm."""

    tag: CaseTag
    u: Fraction | float | None
    v: Fraction | float | None
    s_closure: Subspace | None
    facts: AlgebraFacts
    x: LieElement
    y: LieElement
    w: LieElement


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
    fact = RankOneFactorization(tuple(tuple(row) for row in omega), LieElement(n))
    # [g,g] one-dimensional forces every basis bracket onto n; check anyway.
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                if alg.structure_constant(a, b, c) != fact.omega[a][b] * n[c]:
                    raise AssertionError("rank-one factorization failed to rebuild tensor")
    return fact


def uv_from_rank_one(fact: RankOneFactorization, x: LieElement, y: LieElement):
    """u = -y^a omega_ab n^b,  v = x^a omega_ab n^b."""
    if x.dim != fact.dim or y.dim != fact.dim:
        raise DimensionMismatch("element does not match factorization dimension")
    u = -fact.omega_contract(y, fact.n)
    v = fact.omega_contract(x, fact.n)
    return u, v


def centralizes(alg: StructureConstants, w: LieElement, vectors) -> bool:
    """True iff [w, b] = 0 for every coordinate vector b; stops at the first nonzero one."""
    return all(alg.bracket(w, LieElement(b)).is_zero() for b in vectors)


def is_derived_abelian(alg: StructureConstants) -> bool:
    """True iff [[g,g],[g,g]] = 0, from pairwise brackets of the echelonized derived basis."""
    basis = alg.derived_subalgebra().basis
    return all(centralizes(alg, LieElement(b), basis[i + 1:]) for i, b in enumerate(basis))


def algebra_facts(alg: StructureConstants) -> AlgebraFacts:
    """The pair-independent facts of alg, computed on first use and kept on alg."""
    if alg._facts is None:
        _, nilpotency = alg.lower_central_series()
        alg._facts = AlgebraFacts(
            derived_dim=alg.derived_subalgebra().dim,
            derived_abelian=is_derived_abelian(alg),
            nilpotency=nilpotency,
            rank_one=factorize_rank_one(alg),
        )
    return alg._facts


def is_central(alg: StructureConstants, w: LieElement) -> bool:
    """True iff [w, T_b] = 0 for every basis element T_b."""
    return centralizes(alg, w, (alg.basis_element(b).coords for b in range(alg.dim)))


def pair_center_condition(alg: StructureConstants, x: LieElement, y: LieElement) -> bool:
    """True iff [[X,Y], [g,g]] = 0: the bracket lies in the centre of [g,g]."""
    return centralizes(alg, alg.bracket(x, y), alg.derived_subalgebra().basis)


def is_eigenvector(w: LieElement, image: LieElement, lam, rel_tol: float = 1e-12) -> bool:
    """image = lam w: exactly if all three are exact, else within rel_tol max(1, |lam| |w|)."""
    if w.is_exact and image.is_exact and isinstance(lam, Fraction):
        return all(ic == lam * wc for ic, wc in zip(image.coords, w.coords))
    residual = max(abs(float(ic) - float(lam) * float(wc))
                   for ic, wc in zip(image.coords, w.coords))
    return residual <= rel_tol * max(1.0, abs(float(lam)) * w.sup_norm())


def _eigenpair(w: LieElement, lx_w: LieElement, ly_w: LieElement, rel_tol: float = 1e-12):
    """(u, v) with L_X w = v w and L_Y w = -u w, read off the images of a nonzero w, or None."""
    if w.is_exact and lx_w.is_exact and ly_w.is_exact:  # ratios at the pivot of w
        k = next(j for j, c in enumerate(w.coords) if c != 0)
        v, neg_u = (img.coords[k] / w.coords[k] for img in (lx_w, ly_w))
    else:  # least-squares ratios
        ww = sum(float(c) * float(c) for c in w.coords)
        v, neg_u = (sum(float(ic) * float(wc) for ic, wc in zip(img.coords, w.coords)) / ww
                    for img in (lx_w, ly_w))
    if is_eigenvector(w, lx_w, v, rel_tol) and is_eigenvector(w, ly_w, neg_u, rel_tol):
        return -neg_u, v
    return None


def _closure(alg, x, y, w, lx_w, ly_w):
    """(ok, S): the closure S of w under L_X, L_Y, grown from the images of w, and [w, S] = 0."""
    s_closure = alg.grow_closure(Subspace.span([w, lx_w, ly_w]), (lx_w, ly_w), (x, y))
    return centralizes(alg, w, s_closure.basis), s_closure


def pair_centralizer_condition(alg: StructureConstants, x: LieElement, y: LieElement):
    """Closure S of [X,Y] under L_X, L_Y, and whether [X,Y] centralizes it.

    Returns (ok, S); S is reused by the operator-form evaluator.
    """
    w = alg.bracket(x, y)
    return _closure(alg, x, y, w, alg.bracket(x, w), alg.bracket(y, w))


def simultaneous_eigenpair(alg: StructureConstants, x: LieElement, y: LieElement,
                           rel_tol: float = 1e-12):
    """(u, v) with L_X w = v w, L_Y w = -u w for w = [X,Y], or None.

    Exact componentwise equality in rational mode; in float mode the residual
    norm must stay below rel_tol relative to the candidate eigenvalue action.
    """
    w = alg.bracket(x, y)
    if w.is_zero():
        return Fraction(0), Fraction(0)
    return _eigenpair(w, alg.bracket(x, w), alg.bracket(y, w), rel_tol)


def classify_pair(alg: StructureConstants, x: LieElement, y: LieElement) -> CaseClassification:
    """Strongest applicable condition for (x, y), with certificate data.

    Detectors run strongest-first and the first hit wins, so the scalar
    formula is preferred over the operator formula whenever both apply.
    Requires exact coordinates (the conditions are algebraic identities).
    The algebra facts are computed once per algebra and shared by every
    classification on it; per pair, [X,Y] and its images under L_X, L_Y are computed once.
    """
    if not (x.is_exact and y.is_exact):
        raise TypeError("classification requires exact rational coordinates")
    facts = algebra_facts(alg)
    w = alg.bracket(x, y)

    def certified(tag, u=None, v=None, s_closure=None):
        return CaseClassification(tag, u, v, s_closure, facts, x, y, w)

    if w.is_zero():
        return certified(CaseTag.COMMUTING)
    if is_central(alg, w):
        return certified(CaseTag.CENTRAL_BRACKET)
    lx_w, ly_w = alg.bracket(x, w), alg.bracket(y, w)
    pair = _eigenpair(w, lx_w, ly_w)
    if pair is not None:
        return certified(CaseTag.SIMULTANEOUS_EIGENVECTOR, *pair)
    ok, s_closure = _closure(alg, x, y, w, lx_w, ly_w)
    tag = CaseTag.OPERATOR_COMMUTING if ok else CaseTag.NO_CLOSED_FORM
    return certified(tag, s_closure=s_closure)
