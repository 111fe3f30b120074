"""Ground-truth engines independent of the closed forms.

Two routes to ln(e^X e^Y):

* an exact rational truncation of the integral composition series, graded
  by the total number of X/Y letters in each term, and
* numeric matrix exp/log on a faithful matrix representation.

Both are kept deliberately ignorant of the detector/closed-form machinery
so that agreement between routes is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import (
    LieElement,
    StructureConstants,
    as_fraction,
    validate,
)
from .detect import CaseTag


class LogDomainError(ValueError):
    """Matrix logarithm could not be driven toward the identity."""


class ExpansionResidualTooLarge(ValueError):
    """ln(e^X e^Y) does not lie in the span of the representation images."""

    def __init__(self, residual: float, threshold: float):
        self.residual = residual
        self.threshold = threshold
        super().__init__(
            f"basis expansion residual {residual:.3e} exceeds {threshold:.1e}; "
            "the result is not closed in the representation span"
        )


# ---------------------------------------------------------------------------
# exact truncation of the integral composition series
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _inv_factorials(n: int) -> tuple:
    out, f = [Fraction(1)], 1
    for k in range(1, n + 1):
        f *= k
        out.append(Fraction(1, f))
    return tuple(out)


def bch_integral_series(alg: StructureConstants, x: LieElement, y: LieElement,
                        degree: int, _n_cap: int | None = None,
                        _exp_cap: int | None = None) -> LieElement:
    """ln(e^X e^Y) correct through the given grading degree, exactly.

    Evaluates

        X + Y + integral_0^1 dt  sum_n (I - e^{L_X} e^{t L_Y})^{n-1} / (n(n+1))
                                 . (e^{L_X} - I)/L_X . [X, Y]

    with every exponential expanded as a polynomial in its adjoint.  Terms
    are tracked as (grading degree, power of t) cells and pruned during
    multiplication: each adjoint factor carries degree 1 and the seed [X,Y]
    carries degree 2, so the n-sum terminates on its own once the minimum
    degree of the running term exceeds the truncation.  (e^{L_X} - I)/L_X
    means the entire series sum_k L_X^k / (k+1)!; nothing is inverted.  The
    t-integration maps t^k to 1/(k+1) exactly.

    The _n_cap/_exp_cap arguments override the proven internal cutoffs
    (n <= degree-1, exponential order <= degree-2); raising them must not
    change the result, which the tests exercise.
    """
    if degree < 2:
        raise ValueError("truncation degree must be >= 2")
    if not (x.is_exact and y.is_exact):
        raise TypeError("the series oracle requires exact rational coordinates")
    dim = alg.dim
    inv_fact = _inv_factorials(degree + 2)
    n_cap = _n_cap if _n_cap is not None else degree - 1
    exp_cap = _exp_cap if _exp_cap is not None else degree - 2

    lx_rows = alg.adjoint(x).sparse_rows()
    ly_rows = alg.adjoint(y).sparse_rows()
    zero = Fraction(0)

    def apply_rows(rows, vec):
        return [sum((m * vec[b] for b, m in row), zero) for row in rows]

    def add_into(state, key, vec, scale):
        cur = state.get(key)
        if cur is None:
            state[key] = [scale * c for c in vec]
        else:
            for i, c in enumerate(vec):
                if c != 0:
                    cur[i] = cur[i] + scale * c

    def exp_apply(state, rows, with_t):
        out = {}
        for (d, k), vec in state.items():
            add_into(out, (d, k), vec, Fraction(1))
            cur = vec
            for m in range(1, min(exp_cap, degree - d) + 1):
                cur = apply_rows(rows, cur)
                if not any(cur):
                    break
                add_into(out, (d + m, k + m if with_t else k), cur, inv_fact[m])
        return out

    def prune(state):
        return {k: v for k, v in state.items() if any(c != 0 for c in v)}

    w = alg.bracket(x, y)
    if w.is_zero():
        return x + y

    # seed: (e^{L_X} - I)/L_X [X,Y] = sum_k L_X^k [X,Y] / (k+1)!
    seed: dict = {}
    cur = list(w.coords)
    for k in range(0, degree - 1):
        if not any(cur):
            break
        add_into(seed, (2 + k, 0), cur, inv_fact[k + 1])
        cur = apply_rows(lx_rows, cur)

    total: dict = {}
    term = seed
    for n in range(1, n_cap + 1):
        if not term:
            break
        coeff = Fraction(1, n * (n + 1))
        for key, vec in term.items():
            add_into(total, key, vec, coeff)
        # apply A = I - e^{L_X} e^{t L_Y} for the next n
        expanded = exp_apply(exp_apply(term, ly_rows, True), lx_rows, False)
        nxt: dict = {}
        for key, vec in term.items():
            add_into(nxt, key, vec, Fraction(1))
        for key, vec in expanded.items():
            add_into(nxt, key, vec, Fraction(-1))
        term = prune(nxt)

    result = [zero] * dim
    for (d, k), vec in total.items():
        scale = Fraction(1, k + 1)  # integral of t^k over [0, 1]
        for i, c in enumerate(vec):
            if c != 0:
                result[i] = result[i] + scale * c
    return x + y + LieElement(tuple(result))


# ---------------------------------------------------------------------------
# matrix exponential and logarithm
# ---------------------------------------------------------------------------

# diagonal Pade order 13 coefficients and the Higham theta_13 bound
_PADE13 = (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1,
)
_THETA13 = 5.371920351148152
_LOG_SERIES_THRESHOLD = 0.25
_MAX_SQRT_STEPS = 60


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with the order-13 diagonal Pade approximant."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp requires a square matrix")
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    s = max(0, int(math.ceil(math.log2(norm / _THETA13)))) if norm > _THETA13 else 0
    if s:
        a = a / (2.0**s)
    b = _PADE13
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    f = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        f = f @ f
    return f


def _sqrtm_denman_beavers(m: np.ndarray) -> np.ndarray:
    """Principal square root by the Denman-Beavers iteration."""
    yk = m.astype(float)
    zk = np.eye(m.shape[0])
    for _ in range(100):
        try:
            yi = np.linalg.inv(yk)
            zi = np.linalg.inv(zk)
        except np.linalg.LinAlgError as exc:
            raise LogDomainError(f"square root iteration hit a singular iterate: {exc}")
        y_next = 0.5 * (yk + zi)
        z_next = 0.5 * (zk + yi)
        delta = np.linalg.norm(y_next - yk, 1)
        yk, zk = y_next, z_next
        if delta <= 1e-15 * max(1.0, np.linalg.norm(yk, 1)):
            return yk
    raise LogDomainError("square root iteration failed to converge")


def matrix_log(m: np.ndarray) -> np.ndarray:
    """Principal logarithm by inverse scaling-and-squaring.

    Repeated principal square roots bring the matrix within 0.25 of the
    identity, then the alternating series for log(I + E) finishes the job.
    For unipotent input the series terminates with the same strictly
    triangular structure as the exact answer.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix_log requires a square matrix")
    n = m.shape[0]
    ident = np.eye(n)
    k = 0
    while np.linalg.norm(m - ident, 1) >= _LOG_SERIES_THRESHOLD:
        if k >= _MAX_SQRT_STEPS:
            raise LogDomainError("square roots are not approaching the identity")
        m = _sqrtm_denman_beavers(m)
        k += 1
    e = m - ident
    term = e.copy()
    acc = e.copy()
    for j in range(2, 120):
        term = term @ e
        tn = np.linalg.norm(term, 1)
        if tn == 0.0:
            break
        acc += ((-1) ** (j - 1) / j) * term
        if tn / j < 1e-18:
            break
    return acc * (2.0**k)


# ---------------------------------------------------------------------------
# faithful matrix representations
# ---------------------------------------------------------------------------

class MatrixRep:
    """Images rho(T_a) of the basis under a faithful matrix representation."""

    def __init__(self, basis_images: Sequence[np.ndarray], faithful_on: str = ""):
        self.basis_images = [np.asarray(im, dtype=float) for im in basis_images]
        if not self.basis_images or self.basis_images[0].ndim != 2:
            raise ValueError("basis images must be a nonempty list of square matrices")
        self.dim_rep = self.basis_images[0].shape[0]
        for im in self.basis_images:
            if im.shape != (self.dim_rep, self.dim_rep):
                raise ValueError("all basis images must be square of equal size")
        self.faithful_on = faithful_on
        stacked = np.stack([im.reshape(-1) for im in self.basis_images], axis=1)
        self._pinv = np.linalg.pinv(stacked)
        self._stacked = stacked

    @property
    def dim(self) -> int:
        return len(self.basis_images)

    def image(self, x: LieElement) -> np.ndarray:
        if x.dim != self.dim:
            raise ValueError("element does not match representation dimension")
        out = np.zeros((self.dim_rep, self.dim_rep))
        for c, im in zip(x.coords, self.basis_images):
            fc = float(c)
            if fc != 0.0:
                out += fc * im
        return out

    def validate_against(self, alg: StructureConstants, tol: float = 1e-12) -> None:
        """Check rho([T_a, T_b]) = [rho(T_a), rho(T_b)] on all basis pairs."""
        if alg.dim != self.dim:
            raise ValueError("representation size does not match the algebra")
        for a in range(alg.dim):
            for b in range(a + 1, alg.dim):
                lhs = self.image(alg.bracket(alg.basis_element(a), alg.basis_element(b)))
                rhs = (self.basis_images[a] @ self.basis_images[b]
                       - self.basis_images[b] @ self.basis_images[a])
                if np.max(np.abs(lhs - rhs)) > tol:
                    raise ValueError(f"homomorphism check failed on (T_{a}, T_{b})")

    def to_json_dict(self) -> dict:
        return {
            "dim_rep": self.dim_rep,
            "basis_images": [im.tolist() for im in self.basis_images],
            "faithful_on": self.faithful_on,
        }

    @classmethod
    def from_json_dict(cls, data) -> "MatrixRep":
        return cls([np.asarray(im, dtype=float) for im in data["basis_images"]],
                   faithful_on=data.get("faithful_on", ""))


def matrix_bch(rep: MatrixRep, x: LieElement, y: LieElement,
               with_residual: bool = False, threshold: float = 1e-9):
    """ln(e^rho(x) e^rho(y)) expanded back into basis coordinates.

    The expansion solves a least-squares system with the representation's
    precomputed pseudo-inverse (images need not be orthogonal).  A residual
    above the threshold means the logarithm left the representation span.
    """
    z_mat = matrix_log(matrix_exp(rep.image(x)) @ matrix_exp(rep.image(y)))
    coords = rep._pinv @ z_mat.reshape(-1)
    residual = float(np.linalg.norm(rep._stacked @ coords - z_mat.reshape(-1)))
    if residual > threshold:
        raise ExpansionResidualTooLarge(residual, threshold)
    elem = LieElement(tuple(float(c) for c in coords))
    return (elem, residual) if with_residual else elem


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    algebra: StructureConstants
    rep: MatrixRep | None
    pairs: tuple  # ((x, y, expected CaseTag), ...) documented probe pairs


def _unit_matrix(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def abelian_algebra(dim: int = 3) -> StructureConstants:
    return validate({}, dim)


def heisenberg_algebra() -> StructureConstants:
    return validate({(0, 1, 2): 1}, 3, basis_names=["P", "Q", "I"])


def affine_algebra() -> StructureConstants:
    """[T_0, T_1] = T_1: T_0 shifts T_1 (eigenvalue 1 on the derived algebra)."""
    return validate({(0, 1, 1): 1}, 2, basis_names=["A", "B"])


def uvc_model_algebra(u, v, c) -> StructureConstants:
    """dim-3 model on basis (X, Y, I) with [T_0, T_1] = u T_0 + v T_1 + c T_2."""
    u, v, c = as_fraction(u), as_fraction(v), as_fraction(c)
    entries = {(0, 1, 0): u, (0, 1, 1): v, (0, 1, 2): c}
    return validate(entries, 3, basis_names=["X", "Y", "I"])


def two_scale_algebra() -> StructureConstants:
    """[T_0, T_2] = T_2, [T_1, T_3] = T_3: two independent shift pairs."""
    return validate({(0, 2, 2): 1, (1, 3, 3): 1}, 4,
                    basis_names=["A1", "A2", "B1", "B2"])


def sl2_algebra() -> StructureConstants:
    """[E, F] = H, [H, E] = 2E, [H, F] = -2F; generic pairs admit no closed form."""
    return validate({(0, 1, 2): 1, (2, 0, 0): 2, (2, 1, 1): -2}, 3,
                    basis_names=["E", "F", "H"])


def _catalog_entries() -> list[CatalogEntry]:
    e = lambda alg, i: alg.basis_element(i)

    abelian = abelian_algebra(3)
    abelian_rep = MatrixRep([_unit_matrix(3, i, i) for i in range(3)],
                            faithful_on="diagonal matrices")

    heis = heisenberg_algebra()
    heis_rep = MatrixRep(
        [_unit_matrix(3, 0, 1), _unit_matrix(3, 1, 2), _unit_matrix(3, 0, 2)],
        faithful_on="strictly upper triangular 3x3")

    aff = affine_algebra()
    aff_rep = MatrixRep([_unit_matrix(2, 0, 0), _unit_matrix(2, 0, 1)],
                        faithful_on="upper triangular 2x2 with zero second row")

    uvc = uvc_model_algebra(Fraction(1, 2), Fraction(-1, 3), 2)

    two = two_scale_algebra()
    two_rep = MatrixRep(
        [_unit_matrix(4, 0, 0), _unit_matrix(4, 2, 2),
         _unit_matrix(4, 0, 1), _unit_matrix(4, 2, 3)],
        faithful_on="block diagonal pair of affine 2x2 blocks")

    sl2 = sl2_algebra()
    sl2_rep = MatrixRep(
        [_unit_matrix(2, 0, 1), _unit_matrix(2, 1, 0),
         np.diag([1.0, -1.0])],
        faithful_on="defining 2x2 representation")

    two_x = two.element([1, 2, 0, 0])
    two_y = two.element([0, 0, 1, 1])

    return [
        CatalogEntry("abelian3", "three-dimensional abelian algebra",
                     abelian, abelian_rep,
                     ((e(abelian, 0), e(abelian, 1), CaseTag.COMMUTING),)),
        CatalogEntry("heisenberg", "Heisenberg algebra [P, Q] = I",
                     heis, heis_rep,
                     ((e(heis, 0), e(heis, 1), CaseTag.CENTRAL_BRACKET),)),
        CatalogEntry("affine", "shift algebra [A, B] = B",
                     aff, aff_rep,
                     ((e(aff, 0), e(aff, 1), CaseTag.SIMULTANEOUS_EIGENVECTOR),)),
        CatalogEntry("uvc", "three-dimensional model [X, Y] = uX + vY + cI "
                            "with (u, v, c) = (1/2, -1/3, 2)",
                     uvc, None,
                     ((e(uvc, 0), e(uvc, 1), CaseTag.SIMULTANEOUS_EIGENVECTOR),)),
        CatalogEntry("two_scale", "two independent shift pairs with distinct rates",
                     two, two_rep,
                     ((two_x, two_y, CaseTag.OPERATOR_COMMUTING),)),
        CatalogEntry("sl2", "simple algebra where generic pairs admit no closed form",
                     sl2, sl2_rep,
                     ((e(sl2, 0), e(sl2, 1), CaseTag.NO_CLOSED_FORM),)),
    ]


_CATALOG_CACHE: list[CatalogEntry] | None = None


def builtin_catalog() -> list[CatalogEntry]:
    """The shipped example algebras, with reps where a faithful one is easy."""
    global _CATALOG_CACHE
    if _CATALOG_CACHE is None:
        _CATALOG_CACHE = _catalog_entries()
    return list(_CATALOG_CACHE)


def catalog_entry(name: str) -> CatalogEntry:
    for entry in builtin_catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")
