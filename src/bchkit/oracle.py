"""Ground-truth engines independent of the closed forms.

Two routes to ln(e^X e^Y):

* the exact rational truncation of the composition series, graded by the
  total number of X/Y letters in each term and computed by the graded
  recursion of Varadarajan (1974, section 2.15), and
* numeric matrix exp/log on a faithful matrix representation.

Both are kept deliberately ignorant of the detector/closed-form machinery
so that agreement between routes is meaningful evidence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

from .algebra import (
    DimensionMismatch,
    LieElement,
    StructureConstants,
    _Frozen,
    _setattr,
    as_fraction,
    clear_denominators,
    unscaled,
    validate,
)
from .detect import CaseTag

if TYPE_CHECKING:
    import numpy as np


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
# exact truncation of the composition series
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli(n: int) -> tuple[Fraction, ...]:
    """B_0 .. B_n from sum_{k=0}^{m} C(m+1, k) B_k = 0 for m >= 1 (B_1 = -1/2)."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return tuple(b)


def _reduced(vec: list, den: int):
    """(vec, den) divided by the gcd of its entries and den, or None for zero."""
    g = math.gcd(*vec)
    if not g:
        return None
    g = math.gcd(g, den)
    return ([v // g for v in vec], den // g) if g > 1 else (vec, den)


def _integer_sum(parts):
    """The sum of (integer vector, denominator) pairs over the lcm of their
    denominators, reduced; None entries are zero and skipped."""
    parts = [p for p in parts if p is not None]
    if len(parts) < 2:
        return parts[0] if parts else None
    den = math.lcm(*(d for _, d in parts))
    out = [0] * len(parts[0][0])
    for vec, d in parts:
        k = den // d
        for i, v in enumerate(vec):
            if v:
                out[i] += k * v
    return _reduced(out, den)


def _integer_parts(alg: StructureConstants, x: LieElement, y: LieElement, degree: int) -> list:
    """Z_1 .. Z_degree as (integer vector, positive denominator) pairs, None for zero."""
    if degree < 1:
        raise ValueError("truncation degree must be >= 1")
    if x.dim != alg.dim or y.dim != alg.dim:
        raise DimensionMismatch("element does not belong to this algebra")
    xy, s = clear_denominators(x.coords + y.coords)
    xs, ys = xy[:alg.dim], xy[alg.dim:]
    x_plus_y = _reduced([a + b for a, b in zip(xs, ys)], s)
    if not any(alg.scaled_bracket(xs, ys)):
        return [x_plus_y] + [None] * (degree - 1)

    bern = _bernoulli(degree)
    half_diff = _reduced([a - b for a, b in zip(xs, ys)], 2 * s)
    z, nest = [None, x_plus_y], {}  # z[n] = Z_n, nest[m, n] = S(m, n)

    def bracket(a, b):
        if a is None or b is None:
            return None
        return _reduced(alg.scaled_bracket(a[0], b[0]), a[1] * b[1] * alg.den)

    def nested(m, n):  # S(m, n), each computed once
        if (m, n) not in nest:
            nest[m, n] = (bracket(z[n], x_plus_y) if m == 1 else
                          _integer_sum(bracket(z[k], nested(m - 1, n - k))
                                       for k in range(1, n - m + 2)))
        return nest[m, n]

    for n in range(1, degree):
        parts = [bracket(half_diff, z[n])]
        for p in range(1, n // 2 + 1):
            if (t := nested(2 * p, n)) is not None:
                c = bern[2 * p] / math.factorial(2 * p)
                parts.append(_reduced([c.numerator * v for v in t[0]], t[1] * c.denominator))
        nxt = _integer_sum(parts)
        z.append(nxt if nxt is None else _reduced(nxt[0], nxt[1] * (n + 1)))
    return z[1:]


def _element(part, dim: int) -> LieElement:
    """The element of an (integer vector, denominator) pair, or the zero of dim."""
    return LieElement(unscaled(*part) if part else (Fraction(0),) * dim)


def bch_series_terms(alg: StructureConstants, x: LieElement, y: LieElement,
                     degree: int) -> tuple[LieElement, ...]:
    """The homogeneous parts (Z_1, ..., Z_degree) of ln(e^X e^Y), exactly.

    Z_n collects the terms with n letters X/Y, so Z_n(eX, eY) = e^n Z_n(X, Y).
    Graded recursion of Varadarajan (Lie Groups, Lie Algebras and Their
    Representations, 1974, section 2.15; Casas & Murua, J. Math. Phys. 50,
    033513, 2009), from Z_1 = X + Y:

        (n+1) Z_{n+1} = 1/2 [X - Y, Z_n] + sum_{p>=1, 2p<=n} B_{2p}/(2p)! S(2p, n)
        S(1, n) = [Z_n, X + Y],  S(m, n) = sum_{k=1}^{n-m+1} [Z_k, S(m-1, n-k)]

    S(m, n) sums the m-fold nested brackets [Z_k1, [..., [Z_km, X + Y]]] over
    k1 + ... + km = n.  The recursion runs fraction-free: X and Y are cleared
    once to integer vectors over their common denominator, and every Z_n and
    S(m, n) is one integer vector over one positive denominator, kept
    reduced by their gcd.  A bracket is the algebra's integer kernel
    scaled_bracket over the product of the denominators and the algebra's
    den; a sum scales each vector to the lcm of the denominators; the
    factors B_{2p}/(2p)! and 1/(n+1) multiply numerator and denominator
    separately.  Fractions are built once per returned part.  Brackets and
    sums with a zero operand are skipped, which keeps nilpotent and
    commuting pairs cheap.
    """
    return tuple(_element(p, alg.dim) for p in _integer_parts(alg, x, y, degree))


def series_sum(terms: Sequence[LieElement]) -> LieElement:
    """Z_1 + ... + Z_D for exact graded parts, summed on integers over one denominator."""
    return _element(_integer_sum(_reduced(*clear_denominators(t.coords)) for t in terms),
                    terms[0].dim)


def bch_integral_series(alg: StructureConstants, x: LieElement, y: LieElement,
                        degree: int) -> LieElement:
    """ln(e^X e^Y) correct through the given grading degree, exactly.

    The exact truncation of the composition series: the sum of the
    homogeneous parts Z_1 .. Z_degree of bch_series_terms, taken on their
    integer vectors and made Fractions once.  It equals the truncation of
    the integral formula

        X + Y + integral_0^1 dt  sum_n (I - e^{L_X} e^{t L_Y})^{n-1} / (n(n+1))
                                 . (e^{L_X} - I)/L_X . [X, Y]

    at the same degree.
    """
    if degree < 2:
        raise ValueError("truncation degree must be >= 2")
    return _element(_integer_sum(_integer_parts(alg, x, y, degree)), alg.dim)


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
_EXPANSION_THRESHOLD = 1e-9  # largest basis-expansion residual matrix_bch accepts
_HOMOMORPHISM_TOL = 1e-12    # largest entry of rho([a, b]) - [rho(a), rho(b)] accepted


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with the order-13 diagonal Pade approximant."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
        import numpy as np

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
        import numpy as np

        out = np.zeros((self.dim_rep, self.dim_rep))
        for c, im in zip(x.coords, self.basis_images):
            fc = float(c)
            if fc != 0.0:
                out += fc * im
        return out

    def validate_against(self, alg: StructureConstants) -> None:
        """Check rho([T_a, T_b]) = [rho(T_a), rho(T_b)] on all basis pairs."""
        if alg.dim != self.dim:
            raise ValueError("representation size does not match the algebra")
        import numpy as np

        for a in range(alg.dim):
            for b in range(a + 1, alg.dim):
                lhs = self.image(alg.bracket(alg.basis_element(a), alg.basis_element(b)))
                rhs = (self.basis_images[a] @ self.basis_images[b]
                       - self.basis_images[b] @ self.basis_images[a])
                if np.max(np.abs(lhs - rhs)) > _HOMOMORPHISM_TOL:
                    raise ValueError(f"homomorphism check failed on (T_{a}, T_{b})")

    @classmethod
    def from_json_dict(cls, data) -> "MatrixRep":
        return cls(data["basis_images"], faithful_on=data.get("faithful_on", ""))


def matrix_bch(rep: MatrixRep, x: LieElement, y: LieElement) -> LieElement:
    """ln(e^rho(x) e^rho(y)) expanded back into basis coordinates.

    The expansion solves a least-squares system with the representation's
    precomputed pseudo-inverse (images need not be orthogonal).  A residual
    above 1e-9 means the logarithm left the representation span
    (ExpansionResidualTooLarge).  A product e^rho(x) e^rho(y) with an entry
    beyond the double range raises LogDomainError.

    The matrices are floats, so the error scales with the sup norm of z,
    not with each coordinate: a small coordinate next to a large one is not
    resolved.  On two_scale with x = (1/4, 1/3, 0, 0) and
    y = (0, 0, 1e12, 2e12) the exact z_A2 is 1/3; this returns a z within
    1e-14 |z|_inf, whose z_A2 was seen 1.2e-3 off.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        product = matrix_exp(rep.image(x)) @ matrix_exp(rep.image(y))
    if not np.isfinite(product).all():
        raise LogDomainError("e^X e^Y overflows the double range")
    z_mat = matrix_log(product)
    coords = rep._pinv @ z_mat.reshape(-1)
    residual = float(np.linalg.norm(rep._stacked @ coords - z_mat.reshape(-1)))
    if residual > _EXPANSION_THRESHOLD:
        raise ExpansionResidualTooLarge(residual, _EXPANSION_THRESHOLD)
    return LieElement(tuple(float(c) for c in coords))


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------

class CatalogEntry(_Frozen):
    """A shipped example algebra, its documented probe pairs and, where a
    faithful one is easy, a matrix representation.

    The representation is kept as plain data: rep_images, the basis images
    rho(T_a) as nested tuples of floats (None where there is no rep), and its
    faithful_on text.  rep builds the MatrixRep on first read and keeps it, so
    looking up an entry for its algebra does not import numpy.  pairs holds the
    documented probe pairs as ((x, y, expected CaseTag), ...).
    """

    _fields = ("name", "description", "algebra", "pairs", "rep_images", "faithful_on")

    def __init__(self, name: str, description: str, algebra: StructureConstants, pairs: tuple,
                 rep_images: tuple | None = None, faithful_on: str = ""):
        _setattr(self, "name", name)
        _setattr(self, "description", description)
        _setattr(self, "algebra", algebra)
        _setattr(self, "pairs", pairs)
        _setattr(self, "rep_images", rep_images)
        _setattr(self, "faithful_on", faithful_on)

    @cached_property
    def rep(self) -> MatrixRep | None:
        if self.rep_images is None:
            return None
        return MatrixRep(self.rep_images, faithful_on=self.faithful_on)


def _unit_matrix(n, i, j):
    """The n x n matrix unit E_ij as nested tuples of floats."""
    return tuple(tuple(float(r == i and c == j) for c in range(n)) for r in range(n))


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
    heis = heisenberg_algebra()
    aff = affine_algebra()
    uvc = uvc_model_algebra(Fraction(1, 2), Fraction(-1, 3), 2)
    two = two_scale_algebra()
    sl2 = sl2_algebra()

    two_x = two.element([1, 2, 0, 0])
    two_y = two.element([0, 0, 1, 1])

    return [
        CatalogEntry("abelian3", "three-dimensional abelian algebra", abelian,
                     ((e(abelian, 0), e(abelian, 1), CaseTag.COMMUTING),),
                     tuple(_unit_matrix(3, i, i) for i in range(3)),
                     "diagonal matrices"),
        CatalogEntry("heisenberg", "Heisenberg algebra [P, Q] = I", heis,
                     ((e(heis, 0), e(heis, 1), CaseTag.CENTRAL_BRACKET),),
                     (_unit_matrix(3, 0, 1), _unit_matrix(3, 1, 2), _unit_matrix(3, 0, 2)),
                     "strictly upper triangular 3x3"),
        CatalogEntry("affine", "shift algebra [A, B] = B", aff,
                     ((e(aff, 0), e(aff, 1), CaseTag.SIMULTANEOUS_EIGENVECTOR),),
                     (_unit_matrix(2, 0, 0), _unit_matrix(2, 0, 1)),
                     "upper triangular 2x2 with zero second row"),
        CatalogEntry("uvc", "three-dimensional model [X, Y] = uX + vY + cI "
                            "with (u, v, c) = (1/2, -1/3, 2)", uvc,
                     ((e(uvc, 0), e(uvc, 1), CaseTag.SIMULTANEOUS_EIGENVECTOR),)),
        CatalogEntry("two_scale", "two independent shift pairs with distinct rates", two,
                     ((two_x, two_y, CaseTag.OPERATOR_COMMUTING),),
                     (_unit_matrix(4, 0, 0), _unit_matrix(4, 2, 2),
                      _unit_matrix(4, 0, 1), _unit_matrix(4, 2, 3)),
                     "block diagonal pair of affine 2x2 blocks"),
        CatalogEntry("sl2", "simple algebra where generic pairs admit no closed form", sl2,
                     ((e(sl2, 0), e(sl2, 1), CaseTag.NO_CLOSED_FORM),),
                     (_unit_matrix(2, 0, 1), _unit_matrix(2, 1, 0), ((1.0, 0.0), (0.0, -1.0))),
                     "defining 2x2 representation"),
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
