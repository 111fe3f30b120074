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
    tag: CaseTag
    u: Fraction | float | None
    v: Fraction | float | None
    s_closure: Subspace | None
    facts: AlgebraFacts


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


def is_derived_abelian(alg: StructureConstants) -> bool:
    """True iff [[g,g],[g,g]] = 0, from pairwise brackets of the echelonized derived basis."""
    basis = [LieElement(b) for b in alg.derived_subalgebra().basis]
    return all(
        alg.bracket(w1, w2).is_zero()
        for i, w1 in enumerate(basis)
        for w2 in basis[i + 1:]
    )


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


def pair_center_condition(alg: StructureConstants, x: LieElement, y: LieElement) -> bool:
    """True iff [[X,Y], [g,g]] = 0: the bracket lies in the centre of [g,g]."""
    w = alg.bracket(x, y)
    return all(
        alg.bracket(w, LieElement(b)).is_zero()
        for b in alg.derived_subalgebra().basis
    )


def pair_centralizer_condition(alg: StructureConstants, x: LieElement, y: LieElement):
    """Closure S of [X,Y] under L_X, L_Y, and whether [X,Y] centralizes it.

    Returns (ok, S); S is reused by the operator-form evaluator.
    """
    w = alg.bracket(x, y)
    s_closure = alg.span_closure([w], [alg.adjoint(x), alg.adjoint(y)])
    ok = all(alg.bracket(w, LieElement(b)).is_zero() for b in s_closure.basis)
    return ok, s_closure


def simultaneous_eigenpair(alg: StructureConstants, x: LieElement, y: LieElement,
                           rel_tol: float = 1e-12):
    """(u, v) with L_X w = v w, L_Y w = -u w for w = [X,Y], or None.

    Exact componentwise equality in rational mode; in float mode the residual
    norm must stay below rel_tol relative to the candidate eigenvalue action.
    """
    w = alg.bracket(x, y)
    if w.is_zero():
        return Fraction(0), Fraction(0)
    lx_w = alg.bracket(x, w)
    ly_w = alg.bracket(y, w)
    exact = w.is_exact and lx_w.is_exact and ly_w.is_exact

    def eigenvalue(image: LieElement):
        if exact:
            k = next(j for j, c in enumerate(w.coords) if c != 0)
            lam = image.coords[k] / w.coords[k]
            if all(ic == lam * wc for ic, wc in zip(image.coords, w.coords)):
                return lam
            return None
        ww = sum(float(c) * float(c) for c in w.coords)
        lam = sum(float(ic) * float(wc) for ic, wc in zip(image.coords, w.coords)) / ww
        residual = max(
            abs(float(ic) - lam * float(wc))
            for ic, wc in zip(image.coords, w.coords)
        )
        scale = max(1.0, abs(lam) * w.sup_norm())
        return lam if residual <= rel_tol * scale else None

    v = eigenvalue(lx_w)
    if v is None:
        return None
    neg_u = eigenvalue(ly_w)
    if neg_u is None:
        return None
    return -neg_u, v


def classify_pair(alg: StructureConstants, x: LieElement, y: LieElement) -> CaseClassification:
    """Strongest applicable condition for (x, y), with certificate data.

    Detectors run strongest-first and the first hit wins, so the scalar
    formula is preferred over the operator formula whenever both apply.
    Requires exact coordinates (the conditions are algebraic identities).
    The algebra facts are computed once per algebra and shared by every
    classification on it; only [X,Y], L_X and L_Y are computed per pair.
    """
    if not (x.is_exact and y.is_exact):
        raise TypeError("classification requires exact rational coordinates")
    facts = algebra_facts(alg)
    w = alg.bracket(x, y)
    if w.is_zero():
        return CaseClassification(CaseTag.COMMUTING, None, None, None, facts)
    if alg.adjoint(w).is_zero():
        return CaseClassification(CaseTag.CENTRAL_BRACKET, None, None, None, facts)
    pair = simultaneous_eigenpair(alg, x, y)
    if pair is not None:
        u, v = pair
        return CaseClassification(CaseTag.SIMULTANEOUS_EIGENVECTOR, u, v, None, facts)
    ok, s_closure = pair_centralizer_condition(alg, x, y)
    if ok:
        return CaseClassification(CaseTag.OPERATOR_COMMUTING, None, None, s_closure, facts)
    return CaseClassification(CaseTag.NO_CLOSED_FORM, None, None, s_closure, facts)
